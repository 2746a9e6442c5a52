fn main() {
    experiments::figures::main("table4_precision_recall");
}
