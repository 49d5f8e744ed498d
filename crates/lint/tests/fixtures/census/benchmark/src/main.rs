fn main() {
    demo::from_benchmark();
}
