fn main() {
    experiments::figures::main("fig10_burst_hist");
}
