fn main() {
    experiments::figures::main("fig12_interval_share");
}
