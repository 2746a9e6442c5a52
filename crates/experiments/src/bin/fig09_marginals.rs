fn main() {
    experiments::figures::main("fig09_marginals");
}
