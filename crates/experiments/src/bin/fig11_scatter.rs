fn main() {
    experiments::figures::main("fig11_scatter");
}
