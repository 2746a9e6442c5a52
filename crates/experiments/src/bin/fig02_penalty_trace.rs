fn main() {
    experiments::figures::main("fig02_penalty_trace");
}
