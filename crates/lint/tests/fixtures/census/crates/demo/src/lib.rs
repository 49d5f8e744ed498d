//! Census fixture: each `pub` fn's doc says whether the census lists it.

pub struct Table;
pub struct Widget;
pub struct Other;

impl Table {
    /// Listed: only `tests/it.rs` calls it.
    pub fn only_from_tests(&self) {}

    /// Not listed: named only as a path, `.map(Table::as_path)`.
    pub fn as_path(&self) -> u8 {
        0
    }
}

/// Listed: only the `#[cfg(test)]` module below calls it.
pub(crate) fn only_from_cfg_test() {}

/// Not listed: `benchmark/src` calls it.
pub fn from_benchmark() {}

/// Not listed: `examples/` calls it.
pub fn from_example() {}

impl Widget {
    /// Not listed: `Other::reset` shares the bare name and is called.
    pub fn reset(&mut self) {}
}

impl Other {
    pub fn reset(&mut self) {}
}

mod inner {
    /// Listed: a re-export is not a use.
    pub fn reexported_only() {}
}

pub use inner::reexported_only;

/// Not listed: private fns are outside the census.
fn private_helper() {}

/// Not listed: the crate's binary calls it.
pub fn live(tables: &[Table], other: &mut Other) -> Vec<u8> {
    other.reset();
    private_helper();
    tables.iter().map(Table::as_path).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls() {
        only_from_cfg_test();
    }
}
