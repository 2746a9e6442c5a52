fn main() {
    experiments::figures::main("fig07_project_overlap");
}
