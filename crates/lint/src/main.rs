//! Command-line front end: `cargo run -p dvelm-lint -- check`.

use dvelm_lint::{census, check_workspace, explain, Allowlist, CheckReport, Severity, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
dvelm-lint — repo-specific static analysis for the dvelm workspace

USAGE:
    cargo run -p dvelm-lint -- check [--root <dir>] [--allow <file>]
                                     [--format <text|json>] [--stale-allow]
    cargo run -p dvelm-lint -- census [--root <dir>]
    cargo run -p dvelm-lint -- rules
    cargo run -p dvelm-lint -- explain <RULE>

COMMANDS:
    check      Lint every workspace source file (lexical rules per file,
               semantic rules over the workspace symbol graph); exit 1 on
               any finding not covered by the allowlist (warnings are
               denied too).
    census     Report every `pub`/`pub(crate)` fn outside crates/lint that
               no non-test code names (workspace sources, `examples/`,
               `benchmark/src`), one sorted `path:line Type::name` line
               each. A report: always exits 0.
    rules      Print the rule table (generated from the registry).
    explain    Print one rule's rationale, minimal bad/good example and bug
               lineage, extracted from the rule's own doc comment.

OPTIONS:
    --root <dir>       Workspace root (default: auto-detected).
    --allow <file>     Allowlist file (default: <root>/lint.allow).
    --format <fmt>     `text` (default) or `json` — machine-readable,
                       byte-stable findings for CI annotation.
    --stale-allow      Also fail when lint.allow entries match nothing
                       (dead grandfathering must be deleted).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root: Option<PathBuf> = None;
    let mut allow_path: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut stale_strict = false;
    let mut explain_rule: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" | "census" | "rules" | "explain" if cmd.is_none() => cmd = Some(a.clone()),
            "--root" => root = it.next().map(PathBuf::from),
            "--allow" => allow_path = it.next().map(PathBuf::from),
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!("--format takes `text` or `json`, got {other:?}\n\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--stale-allow" => stale_strict = true,
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
        Some("check") => run_check(root, allow_path, format, stale_strict),
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
            "{} {:<15} {:<8} {:<8} {:<26} {}",
            r.id, r.name, r.severity, r.layer, r.scope, r.summary
        );
    }
}

fn run_check(
    root: Option<PathBuf>,
    allow_path: Option<PathBuf>,
    format: Format,
    stale_strict: bool,
) -> ExitCode {
    let root = root.unwrap_or_else(detect_root);
    let allow_path = allow_path.unwrap_or_else(|| root.join("lint.allow"));
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    };
    let report = match check_workspace(&root, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dvelm-lint: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let failed = !report.findings.is_empty() || (stale_strict && !report.stale_allows.is_empty());
    match format {
        Format::Json => print!("{}", render_json(&report, stale_strict)),
        Format::Text => print_text(&report, stale_strict),
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
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

fn counts(report: &CheckReport) -> (usize, usize) {
    let errors = report
        .findings
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    (errors, report.findings.len() - errors)
}

fn print_text(report: &CheckReport, stale_strict: bool) {
    for d in &report.findings {
        println!("{d}");
    }
    for stale in &report.stale_allows {
        println!("note: stale lint.allow entry (matched nothing): {stale}");
    }
    let (errors, warnings) = counts(report);
    println!(
        "dvelm-lint: {} files, {} error(s), {} warning(s), {} allowlisted",
        report.files, errors, warnings, report.allowed
    );
    if !report.findings.is_empty() {
        println!("dvelm-lint: FAILED (strict mode: warnings are denied; add `RULE path key` lines to lint.allow only with a written justification)");
    } else if stale_strict && !report.stale_allows.is_empty() {
        println!("dvelm-lint: FAILED (--stale-allow: delete the dead lint.allow entries above)");
    }
}

/// Byte-stable JSON: fixed key order, findings pre-sorted by
/// (path, line, rule, key) in [`check_workspace`], no timestamps, no map
/// iteration — identical trees render identical bytes.
fn render_json(report: &CheckReport, stale_strict: bool) -> String {
    let (errors, warnings) = counts(report);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"files\": {},\n", report.files));
    out.push_str(&format!("  \"errors\": {errors},\n"));
    out.push_str(&format!("  \"warnings\": {warnings},\n"));
    out.push_str(&format!("  \"allowed\": {},\n", report.allowed));
    out.push_str(&format!("  \"stale_allow_strict\": {stale_strict},\n"));
    out.push_str("  \"findings\": [");
    for (i, d) in report.findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": {}, \"name\": {}, \"severity\": {}, \"path\": {}, \"line\": {}, \"key\": {}, \"msg\": {}}}",
            json_str(d.rule),
            json_str(d.name),
            json_str(&d.severity.to_string()),
            json_str(&d.path),
            d.line,
            json_str(&d.key),
            json_str(&d.msg),
        ));
    }
    out.push_str(if report.findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"stale_allows\": [");
    for (i, s) in report.stale_allows.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!("    {}", json_str(s)));
    }
    out.push_str(if report.stale_allows.is_empty() {
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
