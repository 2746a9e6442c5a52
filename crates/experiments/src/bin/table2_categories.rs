fn main() {
    experiments::figures::main("table2_categories");
}
