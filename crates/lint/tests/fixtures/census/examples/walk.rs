fn main() {
    demo::from_example();
}
