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
    Gauge::record(&mut Gauge);
    MeterAlias::drain();
    tables.iter().map(Table::as_path).collect()
}

pub struct Gauge;
pub struct Meter;
pub type MeterAlias = Meter;

impl Gauge {
    /// Not listed: `live` names it by path, `Gauge::record(..)`.
    pub fn record(&mut self) {
        Self::settle();
        self.flush();
    }

    /// Not listed: `Gauge::record` calls it as `Self::settle()`.
    pub fn settle() {}

    /// Not listed: `Gauge::record` calls it as `self.flush()`.
    pub fn flush(&mut self) {}
}

impl Meter {
    /// Listed: the path `Gauge::record` names the other type's fn.
    pub fn record(&mut self) {}

    /// Listed: `Self::settle()` inside `impl Gauge` names `Gauge::settle`.
    pub fn settle() {}

    /// Listed: `self.flush()` inside `impl Gauge` names `Gauge::flush`.
    pub fn flush(&mut self) {}

    /// Not listed: the graph defines no `MeterAlias::drain`, so the path
    /// `MeterAlias::drain()` keeps every fn named `drain` alive.
    pub fn drain() {}
}

pub struct Counter {
    hits: u64,
    total: u64,
}

impl Counter {
    /// Listed: its own body reads the field `self.hits` and `tally` labels
    /// the field `hits:`, but nothing calls it.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Not listed: `tally` calls it as a method.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Not listed: the crate's binary calls it.
pub fn tally() -> u64 {
    let counter = Counter { hits: 1, total: 2 };
    counter.total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls() {
        only_from_cfg_test();
    }
}
