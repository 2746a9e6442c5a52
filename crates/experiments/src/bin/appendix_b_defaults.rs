fn main() {
    experiments::figures::main("appendix_b_defaults");
}
