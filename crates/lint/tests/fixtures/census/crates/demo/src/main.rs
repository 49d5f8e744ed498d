fn main() {
    demo::live(&[demo::Table], &mut demo::Other);
    demo::tally();
}
