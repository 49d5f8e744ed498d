#[test]
fn table() {
    demo::Table.only_from_tests();
}
