//! Semantic-layer golden tests: each `fixtures/semantic/<rule>_bad/` dir is
//! a miniature workspace root (real crate paths, fake content) whose only
//! findings must come from the rule under test — so deleting the rule from
//! [`dvelm_lint::semantic::run`] makes the fixture lint clean, proving the
//! finding belongs to that rule and nothing else. Rendered diagnostics are
//! pinned byte-for-byte in `<rule>_bad.expected`
//! (`UPDATE_EXPECT=1 cargo test -p dvelm-lint --test semantic` regenerates
//! after review).
//!
//! Also here: the parser round-trip against the *real* effect/strategy
//! enums (the symbol graph must name every variant exactly — no drift
//! between the linter's view and the source of truth), and byte-stability
//! of `--format json` through the binary.

use dvelm_lint::parse::FileSyms;
use dvelm_lint::{check_workspace, FileCtx};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semantic")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Lint the mini-root, require every finding to carry `rule`, and compare
/// the rendered diagnostics against `<name>.expected`.
fn check_semantic_golden(name: &str, rule: &str) {
    let root = fixtures_dir().join(name);
    let report = check_workspace(&root).unwrap_or_else(|e| panic!("walk {name}: {e}"));
    assert!(
        !report.findings.is_empty(),
        "{name} must trip {rule}, found nothing"
    );
    for d in &report.findings {
        assert_eq!(
            d.rule, rule,
            "{name} must only trip {rule} (other layers stay quiet): {d}"
        );
    }
    let rendered = report
        .findings
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n");
    let expected_path = fixtures_dir().join(format!("{name}.expected"));
    if std::env::var_os("UPDATE_EXPECT").is_some() {
        std::fs::write(&expected_path, format!("{rendered}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", expected_path.display()));
    assert_eq!(
        rendered.trim_end(),
        expected.trim_end(),
        "{name} diagnostics drifted from the golden file \
         (UPDATE_EXPECT=1 regenerates after review)"
    );
}

#[test]
fn r7_missing_arm_and_dead_variant() {
    check_semantic_golden("r7_bad", "R7");
}

#[test]
fn r8_missing_abort_row_and_unasserted_reason() {
    check_semantic_golden("r8_bad", "R8");
}

#[test]
fn r9_one_hop_clock_constant() {
    check_semantic_golden("r9_bad", "R9");
}

/// The symbol graph over the real `crates/core/src/effect.rs`,
/// `crates/core/src/strategy.rs` and `crates/faults/src/lib.rs` must name
/// every variant of the dispatched enums exactly — additions, removals
/// and renames all break this test, so the semantic rules can never
/// silently diverge from the vocabulary they police.
#[test]
fn parser_round_trips_the_real_effect_enums() {
    let cases: [(&str, &str, &[&str]); 5] = [
        (
            "crates/core/src/effect.rs",
            "Effect",
            &[
                "PhaseEntered",
                "SuspendApp",
                "InstallCapture",
                "SendXlate",
                "Stack",
                "SocketDetached",
                "Shipped",
                "QueuePressure",
                "PacketReinjected",
                "Complete",
                "ResumeApp",
                "RemoveCapture",
                "RevokeXlate",
                "Aborted",
                "Subscribe",
                "Unsubscribe",
            ],
        ),
        (
            "crates/core/src/effect.rs",
            "PhaseId",
            &[
                "PrecopyFull",
                "PrecopyIter",
                "FreezeCapture",
                "FreezeDetach",
                "Restore",
            ],
        ),
        (
            "crates/core/src/effect.rs",
            "AbortReason",
            &[
                "DestinationCrashed",
                "SourceCrashed",
                "TransferStalled",
                "CaptureInstallFailed",
                "RestoreFailed",
                "ProcessKilled",
                "NodeDetached",
                "Overloaded",
                "NonConverging",
                "FencedStaleEpoch",
            ],
        ),
        (
            "crates/core/src/strategy.rs",
            "Strategy",
            &["Iterative", "Collective", "IncrementalCollective"],
        ),
        (
            "crates/faults/src/lib.rs",
            "Fault",
            &[
                "NodeCrash",
                "DownlinkLoss",
                "TransferStall",
                "CaptureInstallFail",
                "RestoreFail",
                "CtrlBlackout",
                "Partition",
                "CtrlLoss",
                "CtrlDup",
                "CtrlReorder",
                "Overload",
            ],
        ),
    ];
    for (path, enum_name, want) in cases {
        let src = std::fs::read_to_string(repo_root().join(path))
            .unwrap_or_else(|e| panic!("read {path}: {e}"));
        let ctx = FileCtx::new(path, &src);
        let syms = FileSyms::from_ctx(&ctx);
        let def = syms
            .enum_def(enum_name)
            .unwrap_or_else(|| panic!("{path} must define enum {enum_name}"));
        let got: Vec<&str> = def.variants.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(
            got, want,
            "symbol graph drifted from `{enum_name}` in {path}"
        );
    }
}

/// `--format json` is the CI contract: two runs over the same tree must be
/// byte-identical (fixed key order, pre-sorted findings, no timestamps),
/// and a tree with findings still exits non-zero in json mode.
#[test]
fn json_output_is_byte_stable_and_strict() {
    let root = fixtures_dir().join("r9_bad");
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_dvelm-lint"))
            .args(["check", "--format", "json", "--root"])
            .arg(&root)
            .output()
            .expect("run dvelm-lint")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.stdout, b.stdout, "json output must be byte-stable");
    assert!(
        !a.status.success(),
        "json mode must still exit non-zero on findings"
    );
    let text = String::from_utf8(a.stdout).expect("json is utf-8");
    assert!(
        text.contains("\"rule\": \"R9\"") && text.contains("\"version\": 2"),
        "json must carry the R9 finding:\n{text}"
    );
}
