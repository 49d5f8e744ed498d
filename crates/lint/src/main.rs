//! Command-line front end: `cargo run -p dvelm-lint -- check`.

use dvelm_lint::{census, check_workspace, explain, CheckReport, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
dvelm-lint — repo-specific static analysis for the dvelm workspace

USAGE:
    cargo run -p dvelm-lint -- check [--root <dir>] [--format <text|json>]
    cargo run -p dvelm-lint -- census [--root <dir>]
    cargo run -p dvelm-lint -- rules
    cargo run -p dvelm-lint -- explain <RULE>

COMMANDS:
    check      Lint every workspace source file (lexical rules per file,
               semantic rules over the workspace symbol graph); exit 1 on
               any finding.
    census     Report every `pub`/`pub(crate)` fn outside crates/lint that
               no non-test code names (workspace sources, `examples/`,
               `benchmark/src`), one sorted `path:line Type::name` line
               each. A report: always exits 0.
    rules      Print the rule table (generated from the registry).
    explain    Print one rule's rationale, minimal bad/good example and bug
               lineage, extracted from the rule's own doc comment.

OPTIONS:
    --root <dir>       Workspace root (default: auto-detected).
    --format <fmt>     `text` (default) or `json` — machine-readable,
                       byte-stable findings for CI annotation.

The toolchain enforces the rest: clippy's disallowed_types and
disallowed_methods (each simulation crate's clippy.toml), and the
panic and documentation lints at the roots of dvelm-migrate and
dvelm-stack.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut explain_rule: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" | "census" | "rules" | "explain" if cmd.is_none() => cmd = Some(a.clone()),
            "--root" => root = it.next().map(PathBuf::from),
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!("--format takes `text` or `json`, got {other:?}\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if cmd.as_deref() == Some("explain") && explain_rule.is_none() => {
                explain_rule = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    match cmd.as_deref() {
        Some("rules") => {
            print_rules();
            ExitCode::SUCCESS
        }
        Some("explain") => match explain_rule.as_deref().map(explain) {
            Some(Some(text)) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Some(None) => {
                eprintln!(
                    "unknown rule; valid: {}",
                    RULES
                        .iter()
                        .map(|r| format!("{} ({})", r.id, r.name))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                ExitCode::FAILURE
            }
            None => {
                eprintln!("explain needs a rule id or name, e.g. `explain R9`\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("check") => run_check(root, format),
        Some("census") => run_census(root),
        _ => {
            print!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

/// The rule table, generated from the registry so it cannot drift.
fn print_rules() {
    for r in RULES {
        println!(
            "{} {:<15} {:<8} {:<26} {}",
            r.id, r.name, r.layer, r.scope, r.summary
        );
    }
}

fn run_check(root: Option<PathBuf>, format: Format) -> ExitCode {
    let root = root.unwrap_or_else(detect_root);
    let report = match check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dvelm-lint: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    match format {
        Format::Json => print!("{}", render_json(&report)),
        Format::Text => print_text(&report),
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_census(root: Option<PathBuf>) -> ExitCode {
    let root = root.unwrap_or_else(detect_root);
    match census(&root) {
        Ok(entries) => {
            for e in &entries {
                println!("{e}");
            }
            eprintln!(
                "dvelm-lint census: {} pub fn(s) with no non-test mention",
                entries.len()
            );
        }
        Err(e) => eprintln!("dvelm-lint: cannot walk {}: {e}", root.display()),
    }
    ExitCode::SUCCESS
}

fn print_text(report: &CheckReport) {
    for d in &report.findings {
        println!("{d}");
    }
    println!(
        "dvelm-lint: {} files, {} finding(s)",
        report.files,
        report.findings.len()
    );
    if !report.findings.is_empty() {
        println!("dvelm-lint: FAILED");
    }
}

/// Byte-stable JSON: fixed key order, findings pre-sorted by
/// (path, line, rule, key) in [`check_workspace`], no timestamps, no map
/// iteration — identical trees render identical bytes.
fn render_json(report: &CheckReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 2,\n");
    out.push_str(&format!("  \"files\": {},\n", report.files));
    out.push_str("  \"findings\": [");
    for (i, d) in report.findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": {}, \"name\": {}, \"path\": {}, \"line\": {}, \"key\": {}, \"msg\": {}}}",
            json_str(d.rule),
            json_str(d.name),
            json_str(&d.path),
            d.line,
            json_str(&d.key),
            json_str(&d.msg),
        ));
    }
    out.push_str(if report.findings.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });
    out.push_str("}\n");
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Workspace root: the current directory if it has a `crates/` dir, else
/// two levels up from this crate's manifest (`crates/lint` → repo root).
fn detect_root() -> PathBuf {
    let cwd = PathBuf::from(".");
    if cwd.join("crates").is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or(cwd)
}
