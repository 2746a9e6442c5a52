fn main() {
    experiments::figures::main("table3_divergence");
}
