fn main() {
    experiments::figures::main("fig05_signature");
}
