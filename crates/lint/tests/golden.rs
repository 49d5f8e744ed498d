//! Golden-fixture tests: each bad fixture, linted under a virtual in-scope
//! path, must produce exactly the rendered diagnostics in its `.expected`
//! file — same rule, `file:line`, message and allow key. Because every bad
//! fixture yields at least one unallowed finding, `dvelm-lint check` exits
//! non-zero on a tree containing it (proved end-to-end below); the clean
//! fixture must stay silent.
//!
//! To regenerate the `.expected` files after an intentional rule change:
//! `UPDATE_EXPECT=1 cargo test -p dvelm-lint --test golden` (then review
//! the diff).

use dvelm_lint::{check_workspace, lint_file, Allowlist, Severity};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lint `fixture` as if it sat at `virtual_path` and render one line per
/// diagnostic.
fn render(fixture: &str, virtual_path: &str) -> String {
    let src = std::fs::read_to_string(fixtures_dir().join(fixture))
        .unwrap_or_else(|e| panic!("read fixture {fixture}: {e}"));
    lint_file(virtual_path, &src)
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Compare against the fixture's `.expected` file (or rewrite it under
/// `UPDATE_EXPECT=1`), and require `rule` among the findings.
fn check_golden(fixture: &str, virtual_path: &str, rule: &str) {
    let rendered = render(fixture, virtual_path);
    assert!(
        rendered.lines().any(|l| l.contains(&format!("[{rule}/"))),
        "bad fixture {fixture} must trip {rule}; got:\n{rendered}"
    );
    let expected_path = fixtures_dir().join(fixture).with_extension("expected");
    if std::env::var_os("UPDATE_EXPECT").is_some() {
        std::fs::write(&expected_path, format!("{rendered}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", expected_path.display()));
    assert_eq!(
        rendered.trim_end(),
        expected.trim_end(),
        "{fixture} diagnostics drifted from the golden file \
         (UPDATE_EXPECT=1 regenerates after review)"
    );
}

#[test]
fn r1_determinism_fixture() {
    check_golden("r1_determinism.rs", "crates/stack/src/fixture.rs", "R1");
}

#[test]
fn r2_stale_clock_fixture() {
    // The minimized PR-3 xlate repro: both the clock-less wrapper feeding
    // `SimTime::ZERO` to `install_at` (R2b) and the `now`-less TTL refresh
    // (R2a) must be flagged.
    check_golden("r2_stale_clock.rs", "crates/stack/src/fixture.rs", "R2");
    let rendered = render("r2_stale_clock.rs", "crates/stack/src/fixture.rs");
    assert!(
        rendered.contains("fn:Table::install") && rendered.contains("SimTime::ZERO"),
        "R2b must point at the clock-less wrapper:\n{rendered}"
    );
    assert!(
        rendered.contains("refresh_all"),
        "R2a must point at the now-less TTL refresh:\n{rendered}"
    );
}

#[test]
fn r3_wildcard_fixture() {
    check_golden("r3_wildcard.rs", "crates/metrics/src/fixture.rs", "R3");
}

#[test]
fn r4_panic_fixture() {
    check_golden("r4_panic.rs", "crates/core/src/fixture.rs", "R4");
}

#[test]
fn r5_undoc_fixture() {
    check_golden("r5_undoc.rs", "crates/stack/src/fixture.rs", "R5");
}

#[test]
fn r6_shard_fixture() {
    check_golden("r6_shard.rs", "crates/cluster/src/fixture.rs", "R6");
    // No path is exempt: the old home of the parallel core is flagged like
    // any other file in the simulation family.
    let rendered = render("r6_shard.rs", "crates/sim/src/par.rs");
    let expected = render("r6_shard.rs", "crates/cluster/src/fixture.rs")
        .replace("crates/cluster/src/fixture.rs", "crates/sim/src/par.rs");
    assert!(
        !rendered.is_empty(),
        "crates/sim/src/par.rs must be flagged by R6"
    );
    assert_eq!(
        rendered, expected,
        "par.rs must be flagged like any other path"
    );
}

#[test]
fn clean_fixture_is_silent() {
    let rendered = render("clean.rs", "crates/stack/src/fixture.rs");
    assert!(
        rendered.is_empty(),
        "clean fixture must lint clean:\n{rendered}"
    );
}

#[test]
fn out_of_scope_path_silences_scoped_rules() {
    // The same R1 fixture under a path outside the determinism scope.
    let rendered = render("r1_determinism.rs", "crates/metrics/src/fixture.rs");
    assert!(rendered.is_empty(), "R1 is scoped:\n{rendered}");
}

/// End-to-end through the workspace walker: a fake repo root containing one
/// bad fixture yields unallowed error findings (strict `check` exits
/// non-zero), and the allowlist suppresses exactly the keyed finding.
#[test]
fn check_workspace_finds_planted_fixture() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_root");
    let src_dir = root.join("crates/stack/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::copy(
        fixtures_dir().join("r2_stale_clock.rs"),
        src_dir.join("fixture.rs"),
    )
    .unwrap();

    let report = check_workspace(&root, &Allowlist::default()).unwrap();
    assert_eq!(report.files, 1);
    assert!(
        report
            .findings
            .iter()
            .any(|d| d.rule == "R2" && d.severity == Severity::Error),
        "the planted stale-clock fixture must surface through the walker"
    );
    // The semantic layer runs through the walker too: the same planted
    // constant is a clock-dataflow hit (the `install` wrapper feeds
    // `SimTime::ZERO` into `install_at`'s tainted `now` position).
    assert!(
        report
            .findings
            .iter()
            .any(|d| d.rule == "R9" && d.key == "fn:Table::install"),
        "R9 must flag the planted clock constant through the call graph: {:?}",
        report.findings
    );

    // Allowlisting the sites by their stable impl-qualified keys silences
    // the check.
    let allow = Allowlist::parse(
        "R2 crates/stack/src/fixture.rs fn:Table::install\n\
         R2 crates/stack/src/fixture.rs fn:Table::refresh_all\n\
         R9 crates/stack/src/fixture.rs fn:Table::install\n",
    );
    let report = check_workspace(&root, &allow).unwrap();
    assert!(
        report.findings.is_empty(),
        "allowlisted findings must be suppressed: {:?}",
        report.findings
    );
    assert_eq!(report.allowed, 3);
    assert!(report.stale_allows.is_empty());
}
