//! `census` over the `fixtures/census/` mini-root: a `pub fn` called only
//! from `tests/`, only from a `#[cfg(test)]` module, only re-exported,
//! named only as a field (`self.x`, `x:`), or sharing its name only with
//! another type's fn named by path (`Gauge::record`, `Self::settle`,
//! `self.flush()` in `impl Gauge`) is listed; one called from
//! `benchmark/src`, `examples/` or a bin, named only as a path
//! (`.map(T::f)`, or through an alias the graph does not define), sharing
//! its bare name with a called method, or defined in `crates/lint` is not.
//! The output is pinned byte-for-byte in `census.expected`
//! (`UPDATE_EXPECT=1 cargo test -p dvelm-lint --test census` regenerates
//! after review).

use dvelm_lint::census;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn census_fixture_matches_expected() {
    let rendered: String = census(&fixtures_dir().join("census"))
        .expect("walk the census fixture")
        .iter()
        .map(|e| format!("{e}\n"))
        .collect();
    let expected_path = fixtures_dir().join("census.expected");
    if std::env::var_os("UPDATE_EXPECT").is_some() {
        std::fs::write(&expected_path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", expected_path.display()));
    assert_eq!(
        rendered, expected,
        "census output drifted from the golden file (UPDATE_EXPECT=1 regenerates after review)"
    );

    // The binary prints the same bytes on every run and always exits 0.
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_dvelm-lint"))
            .args(["census", "--root"])
            .arg(fixtures_dir().join("census"))
            .output()
            .expect("run dvelm-lint")
    };
    let (a, b) = (run(), run());
    assert!(a.status.success(), "census is a report and never fails");
    assert_eq!(a.stdout, b.stdout, "census output must be byte-stable");
    assert_eq!(String::from_utf8(a.stdout).unwrap(), expected);
}
