fn main() {
    experiments::figures::main("fig06_link_similarity");
}
