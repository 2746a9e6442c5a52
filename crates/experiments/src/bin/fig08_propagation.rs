fn main() {
    experiments::figures::main("fig08_propagation");
}
