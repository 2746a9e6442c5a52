fn main() {
    experiments::figures::main("fig13_rdelta_cdf");
}
