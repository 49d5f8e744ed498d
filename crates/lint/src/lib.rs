//! `dvelm-lint` — repo-specific static analysis for the dvelm workspace.
//!
//! The reproduction rests on a deterministic simulation (fig5b/5c/timeline
//! outputs must stay byte-identical across PRs), and PR 3's review caught two
//! invariant violations a machine could have found: a stale sim clock
//! reaching the xlate TTL hot path, and a wildcard fallback misattributing
//! capture pressure. This crate encodes those incident classes — plus the
//! determinism and hygiene rules that prevent the next ones — in two layers:
//!
//! * **Lexical rules (R1–R6)**, in [`rules`]: pure functions over one file's
//!   token stream ([`FileCtx`]).
//! * **Semantic rules (R7–R9)**, in [`semantic`]: run over a workspace-wide
//!   symbol graph ([`graph::SymbolGraph`]) built by a lightweight parser
//!   pass ([`parse`]) on top of the same lexer — enum definitions with
//!   their variants, fn signatures with parameter names, call sites with
//!   argument shapes, and classified path uses. Cross-file invariants
//!   (effect dispatch coverage, abort-row coverage, interprocedural clock
//!   threading) live here.
//!
//! The same graph also backs [`census`]: a report, not a rule, of every
//! `pub` fn that no non-test code names.
//!
//! | rule | severity | scope | invariant |
//! |---|---|---|---|
//! | R1 `determinism` | error | sim, core, stack, cluster, lb | no `HashMap`/`HashSet`/`Instant::now`/`SystemTime::now`/`thread_rng` |
//! | R2 `clock-threading` | error | stack | `last_hit`/TTL state only behind a `now` parameter; no `SimTime::ZERO` fed to `*_at` calls |
//! | R3 `no-wildcard-arm` | error | all crates | no `_` arm in matches over `Effect`/`AbortReason`/`Fault`/`Event` |
//! | R4 `panic-hygiene` | error | core, stack | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` |
//! | R5 `doc-hygiene` | warning | core, stack | every `pub` item documented |
//! | R6 `shard-isolation` | error | sim, core, stack, cluster, lb | no threads or shared-state concurrency primitives |
//! | R7 `effect-coverage` | error | workspace | every `Effect`/`LbEffect`/`Fault` variant dispatched and constructed |
//! | R8 `abort-row` | error | workspace | every entered `PhaseId` has an abort row; every emittable `AbortReason` is asserted in a matrix test |
//! | R9 `clock-dataflow` | error | sim family + dve | no `SimTime::ZERO`-derived constant into a clock parameter, transitively |
//!
//! Test code (`#[cfg(test)]` / `#[test]` items, `tests/`, `benches/`) is
//! exempt from every rule; strings and comments never trigger rules (the
//! vendored [`lexer`] strips them). Grandfathered sites live in the
//! repo-root `lint.allow` file, keyed by `(rule, path, enclosing item)` so
//! entries survive line drift — function keys are `impl`-qualified
//! (`fn:MigrationEngine::step_precopy`) so same-named methods in different
//! `impl` blocks of one file never share a suppression. CI fails if the file
//! grows. `check` treats warnings as errors (strict mode) so the tree stays
//! clean.

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod semantic;

use lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// How bad a finding is. `check` denies both — the distinction is for
/// readers triaging output, not for gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Style/completeness finding (R5).
    Warning,
    /// Invariant violation (R1–R4).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One lint finding at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id, e.g. `"R1"`.
    pub rule: &'static str,
    /// Short rule name, e.g. `"determinism"`.
    pub name: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Allowlist key: the enclosing item (`fn:name`, `item:name`) or `top`.
    /// Stable across line drift, unlike the line number.
    pub key: String,
    /// Human-readable explanation.
    pub msg: String,
}

impl Diagnostic {
    /// The `lint.allow` entry that would suppress this finding.
    pub fn allow_entry(&self) -> String {
        format!("{} {} {}", self.rule, self.path, self.key)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}/{}] {} (allow key: {})",
            self.path, self.line, self.severity, self.rule, self.name, self.msg, self.key
        )
    }
}

/// A lexed file plus the derived per-token facts every rule needs.
pub struct FileCtx<'a> {
    /// Repo-relative path with `/` separators.
    pub path: &'a str,
    /// The token stream.
    pub toks: Vec<Tok>,
    /// For each token: inside a `#[cfg(test)]` / `#[test]` item?
    pub in_test: Vec<bool>,
    /// For each token: `impl`-qualified name (`Type::method`, or the bare
    /// name for free functions) of the innermost enclosing `fn`, if any.
    pub fn_of: Vec<Option<String>>,
    /// For each token: type name of the innermost enclosing `impl` block,
    /// if any.
    pub impl_of: Vec<Option<String>>,
}

impl<'a> FileCtx<'a> {
    /// Lex `src` and compute the test-region and enclosing-scope maps.
    pub fn new(path: &'a str, src: &str) -> FileCtx<'a> {
        let toks = lex(src);
        let in_test = test_regions(&toks);
        let (fn_of, impl_of) = scope_maps(&toks);
        FileCtx {
            path,
            toks,
            in_test,
            fn_of,
            impl_of,
        }
    }

    /// Allowlist key for a finding at token `i`: the innermost enclosing
    /// function (`impl`-qualified), or `top` for module-level code.
    pub fn key_at(&self, i: usize) -> String {
        match &self.fn_of[i] {
            Some(f) => format!("fn:{f}"),
            None => "top".to_string(),
        }
    }

    /// The `impl`-qualified name of the fn whose `fn` keyword sits at token
    /// `fn_kw`: `Type::bare` for methods, `bare` for free functions and for
    /// fns nested inside another fn body.
    pub fn qualified_fn(&self, fn_kw: usize, bare: &str) -> String {
        if self.fn_of[fn_kw].is_some() {
            // Nested inside another fn: not an impl method.
            return bare.to_string();
        }
        match &self.impl_of[fn_kw] {
            Some(ty) => format!("{ty}::{bare}"),
            None => bare.to_string(),
        }
    }

    /// Whether `path` lives under any of the given crate prefixes.
    pub fn in_scope(&self, prefixes: &[&str]) -> bool {
        prefixes.iter().any(|p| self.path.starts_with(p))
    }
}

/// Mark tokens covered by `#[cfg(test)]` / `#[test]`-attributed items.
///
/// An attribute whose tokens contain the identifier `test` but not `not`
/// (so `#[cfg(not(test))]` stays live code) marks the next item — through
/// its `{ … }` body, or up to the `;` for bodyless items — as test-only.
fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#')
            && matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Open('[')))
        {
            let close = match matching_close(toks, i + 1) {
                Some(c) => c,
                None => break,
            };
            let attr = &toks[i + 2..close];
            let has_test = attr.iter().any(|t| t.is_ident("test"));
            let has_not = attr.iter().any(|t| t.is_ident("not"));
            if has_test && !has_not {
                let end = item_end(toks, close + 1);
                for flag in in_test.iter_mut().take(end + 1).skip(i) {
                    *flag = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Index of the last token of the item starting at `start` (skipping further
/// attributes): the matching `}` of its first top-level brace group, or the
/// first top-level `;` for bodyless items.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    // Skip stacked attributes.
    while i < toks.len()
        && toks[i].is_punct('#')
        && matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Open('[')))
    {
        match matching_close(toks, i + 1) {
            Some(c) => i = c + 1,
            None => return toks.len().saturating_sub(1),
        }
    }
    let mut depth = 0i32;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Open('{') => {
                return matching_close(toks, i).unwrap_or(toks.len() - 1);
            }
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => depth -= 1,
            TokKind::Punct(';') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Index of the delimiter closing the one opened at `open`.
pub fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// For each token, the `impl`-qualified name of the innermost enclosing `fn`
/// body and the type name of the innermost enclosing `impl` block.
///
/// Methods are qualified by their `impl` type (`MigrationEngine::step`), so
/// allowlist keys distinguish same-named fns in different `impl` blocks of
/// one file. Fns nested inside another fn body keep their bare name.
fn scope_maps(toks: &[Tok]) -> (Vec<Option<String>>, Vec<Option<String>>) {
    let impl_opens = impl_body_opens(toks);
    let mut fn_of = vec![None; toks.len()];
    let mut impl_of = vec![None; toks.len()];
    // Stacks of (name, brace depth at which the body opened).
    let mut fn_stack: Vec<(String, u32)> = Vec::new();
    let mut impl_stack: Vec<(String, u32)> = Vec::new();
    let mut pending: Option<String> = None;
    // Delimiter depth inside the pending fn's signature (arrays in types,
    // parameter groups) so a `;` or `{` there is not mistaken for the
    // declaration end / body start.
    let mut sig_depth = 0i32;
    let mut depth = 0u32;
    for (i, t) in toks.iter().enumerate() {
        match &t.kind {
            TokKind::Ident if t.text == "fn" => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    pending = Some(name.text.clone());
                    sig_depth = 0;
                }
            }
            TokKind::Punct(';') if pending.is_some() && sig_depth == 0 => {
                // Bodyless declaration (trait method): discard.
                pending = None;
            }
            TokKind::Open('{') => {
                if let Some(ty) = impl_opens.get(&i) {
                    depth += 1;
                    impl_stack.push((ty.clone(), depth));
                    pending = None;
                } else if pending.is_some() && sig_depth == 0 {
                    depth += 1;
                    let bare = pending.take().unwrap_or_default();
                    // Qualify by the impl type unless nested in another fn.
                    let qual = match (impl_stack.last(), fn_stack.is_empty()) {
                        (Some((ty, _)), true) => format!("{ty}::{bare}"),
                        _ => bare,
                    };
                    fn_stack.push((qual, depth));
                } else if pending.is_some() {
                    sig_depth += 1;
                } else {
                    depth += 1;
                }
            }
            TokKind::Open(_) if pending.is_some() => sig_depth += 1,
            TokKind::Close('}') if pending.is_none() || sig_depth == 0 => {
                if fn_stack.last().is_some_and(|(_, d)| *d == depth) {
                    fn_stack.pop();
                }
                if impl_stack.last().is_some_and(|(_, d)| *d == depth) {
                    impl_stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            TokKind::Close(_) if pending.is_some() && sig_depth > 0 => sig_depth -= 1,
            _ => {}
        }
        fn_of[i] = fn_stack.last().map(|(n, _)| n.clone());
        impl_of[i] = impl_stack.last().map(|(n, _)| n.clone());
    }
    (fn_of, impl_of)
}

/// Map from the token index of each `impl` block's body `{` to the impl'd
/// type name: the last path segment after `for` for trait impls, else the
/// last top-level path segment of the self type.
///
/// Only item-position `impl` counts — `impl Trait` in type position (after
/// `:`, `(`, `=`, `->`, …) is ignored by checking the preceding token.
fn impl_body_opens(toks: &[Tok]) -> std::collections::BTreeMap<usize, String> {
    let mut out = std::collections::BTreeMap::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("impl") {
            continue;
        }
        let item_position = match toks.get(i.wrapping_sub(1)).filter(|_| i > 0) {
            None => true,
            Some(p) => {
                matches!(
                    p.kind,
                    TokKind::Close('}')
                        | TokKind::Close(']')
                        | TokKind::DocOuter
                        | TokKind::DocInner
                ) || p.is_punct(';')
                    || p.is_ident("unsafe")
            }
        };
        if !item_position {
            continue;
        }
        // Scan the header: track angle/delimiter depth, collect the last
        // top-level type name before and after `for`, stop at the body `{`.
        let mut angle = 0i32;
        let mut delim = 0i32;
        let mut for_seen = false;
        let mut where_seen = false;
        let mut pre: Option<String> = None;
        let mut post: Option<String> = None;
        let mut j = i + 1;
        while let Some(t) = toks.get(j) {
            match &t.kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle -= 1,
                TokKind::Open('{') if angle <= 0 && delim == 0 => {
                    if let Some(name) = post.or(pre) {
                        out.insert(j, name);
                    }
                    break;
                }
                TokKind::Open(_) => delim += 1,
                TokKind::Close(_) => delim -= 1,
                TokKind::Punct(';') if angle <= 0 && delim == 0 => break,
                TokKind::Ident if angle <= 0 && delim == 0 && !where_seen => {
                    match t.text.as_str() {
                        "for" => for_seen = true,
                        "where" => where_seen = true,
                        "const" | "unsafe" | "dyn" | "mut" => {}
                        _ if for_seen => post = Some(t.text.clone()),
                        _ => pre = Some(t.text.clone()),
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    out
}

/// One entry in the rule registry: identity, layer and the metadata the
/// CLI renders (`rules`, `explain`).
pub struct RuleInfo {
    /// Rule id, e.g. `"R7"`.
    pub id: &'static str,
    /// Short rule name, e.g. `"effect-coverage"`.
    pub name: &'static str,
    /// Severity of the rule's findings.
    pub severity: Severity,
    /// `"lexical"` (per-file token pass) or `"semantic"` (symbol graph).
    pub layer: &'static str,
    /// Human-readable scope.
    pub scope: &'static str,
    /// One-line summary for the rule table.
    pub summary: &'static str,
    /// Name of the implementing fn, for doc-comment extraction.
    fn_ident: &'static str,
    /// Source of the module holding the implementing fn.
    src: &'static str,
}

const RULES_SRC: &str = include_str!("rules.rs");
const SEMANTIC_SRC: &str = include_str!("semantic.rs");

/// Every rule, in id order. The CLI's `rules` table and `explain` output
/// are generated from this so they cannot drift from the implementations.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "R1",
        name: "determinism",
        severity: Severity::Error,
        layer: "lexical",
        scope: "sim,core,stack,cluster,lb",
        summary: "no HashMap/HashSet/Instant::now/SystemTime::now/thread_rng",
        fn_ident: "r1_determinism",
        src: RULES_SRC,
    },
    RuleInfo {
        id: "R2",
        name: "clock-threading",
        severity: Severity::Error,
        layer: "lexical",
        scope: "stack",
        summary: "last_hit/TTL state needs a `now` param; no SimTime::ZERO into *_at()",
        fn_ident: "r2_clock_threading",
        src: RULES_SRC,
    },
    RuleInfo {
        id: "R3",
        name: "no-wildcard-arm",
        severity: Severity::Error,
        layer: "lexical",
        scope: "all crates",
        summary: "no `_` arm in matches over Effect/AbortReason/Fault/Event/LbMsg/Strategy",
        fn_ident: "r3_no_wildcard_arm",
        src: RULES_SRC,
    },
    RuleInfo {
        id: "R4",
        name: "panic-hygiene",
        severity: Severity::Error,
        layer: "lexical",
        scope: "core,stack",
        summary: "no unwrap/expect/panic!/unreachable!/todo!/unimplemented!",
        fn_ident: "r4_panic_hygiene",
        src: RULES_SRC,
    },
    RuleInfo {
        id: "R5",
        name: "doc-hygiene",
        severity: Severity::Warning,
        layer: "lexical",
        scope: "core,stack",
        summary: "every pub item documented",
        fn_ident: "r5_doc_hygiene",
        src: RULES_SRC,
    },
    RuleInfo {
        id: "R6",
        name: "shard-isolation",
        severity: Severity::Error,
        layer: "lexical",
        scope: "sim,core,stack,cluster,lb",
        summary: "no Mutex/RwLock/Condvar/Atomic*/mpsc/thread::spawn",
        fn_ident: "r6_shard_isolation",
        src: RULES_SRC,
    },
    RuleInfo {
        id: "R7",
        name: "effect-coverage",
        severity: Severity::Error,
        layer: "semantic",
        scope: "workspace",
        summary: "every Effect/LbEffect/Fault variant dispatched and constructed",
        fn_ident: "r7_effect_coverage",
        src: SEMANTIC_SRC,
    },
    RuleInfo {
        id: "R8",
        name: "abort-row",
        severity: Severity::Error,
        layer: "semantic",
        scope: "workspace",
        summary: "every entered PhaseId has an abort row; every emittable AbortReason asserted in a matrix test",
        fn_ident: "r8_abort_rows",
        src: SEMANTIC_SRC,
    },
    RuleInfo {
        id: "R9",
        name: "clock-dataflow",
        severity: Severity::Error,
        layer: "semantic",
        scope: "sim,core,stack,cluster,lb,dve",
        summary: "no literal/SimTime::ZERO-derived constant into a clock parameter, transitively",
        fn_ident: "r9_clock_dataflow",
        src: SEMANTIC_SRC,
    },
];

/// Look up a rule by id (`"R7"`) or name (`"effect-coverage"`).
pub fn rule_info(id_or_name: &str) -> Option<&'static RuleInfo> {
    RULES
        .iter()
        .find(|r| r.id.eq_ignore_ascii_case(id_or_name) || r.name == id_or_name)
}

/// The rule's full explanation: rationale, minimal bad/good example and bug
/// lineage, extracted from the doc comment of the implementing fn (embedded
/// via `include_str!` so the text cannot drift from the code).
pub fn explain(id_or_name: &str) -> Option<String> {
    let info = rule_info(id_or_name)?;
    let needle = format!("pub fn {}(", info.fn_ident);
    let lines: Vec<&str> = info.src.lines().collect();
    let def = lines.iter().position(|l| l.contains(&needle))?;
    let mut doc: Vec<String> = Vec::new();
    for l in lines[..def].iter().rev() {
        let t = l.trim_start();
        if let Some(rest) = t.strip_prefix("///") {
            doc.push(rest.strip_prefix(' ').unwrap_or(rest).to_string());
        } else {
            break;
        }
    }
    doc.reverse();
    let mut out = format!(
        "{} {} ({}, {} layer)\nscope: {}\n\n",
        info.id, info.name, info.severity, info.layer, info.scope
    );
    out.push_str(&doc.join("\n"));
    out.push('\n');
    Some(out)
}

/// Run every lexical rule over an already-built [`FileCtx`].
fn lexical_rules(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    rules::r1_determinism(ctx, out);
    rules::r2_clock_threading(ctx, out);
    rules::r3_no_wildcard_arm(ctx, out);
    rules::r4_panic_hygiene(ctx, out);
    rules::r5_doc_hygiene(ctx, out);
    rules::r6_shard_isolation(ctx, out);
}

/// Run every lexical rule over one file. `path` must be repo-relative with
/// `/` separators — rule scoping matches on its prefix. The semantic rules
/// need the whole workspace and run only through [`check_workspace`].
pub fn lint_file(path: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(path, src);
    let mut out = Vec::new();
    lexical_rules(&ctx, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// The parsed `lint.allow` file: entries of the form `RULE path key`,
/// `#`-comments and blank lines ignored.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: BTreeSet<String>,
}

impl Allowlist {
    /// Parse allowlist text.
    pub fn parse(text: &str) -> Allowlist {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            // Normalize interior whitespace so "R4  a/b.rs  fn:x # why"
            // and "R4 a/b.rs fn:x" are the same entry.
            .map(|l| {
                l.split_whitespace()
                    .take_while(|w| !w.starts_with('#'))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .filter(|l| !l.is_empty())
            .collect();
        Allowlist { entries }
    }

    /// Whether `d` is suppressed by this allowlist.
    pub fn allows(&self, d: &Diagnostic) -> bool {
        self.entries.contains(&d.allow_entry())
    }

    /// Number of entries (the CI growth guard compares this).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries that suppressed nothing in this run — stale grandfathering
    /// that should be deleted.
    pub fn unused<'a>(&'a self, used: &BTreeSet<String>) -> Vec<&'a str> {
        self.entries
            .iter()
            .filter(|e| !used.contains(*e))
            .map(String::as_str)
            .collect()
    }
}

/// Result of a whole-workspace check.
pub struct CheckReport {
    /// Findings not covered by the allowlist, sorted by (path, line).
    pub findings: Vec<Diagnostic>,
    /// Findings suppressed by the allowlist.
    pub allowed: usize,
    /// Allowlist entries that matched nothing.
    pub stale_allows: Vec<String>,
    /// Files scanned.
    pub files: usize,
}

/// Walk every workspace source directory under `root` (`crates/*/src` and
/// the umbrella crate's `src/`), lint each `.rs` file, run the semantic
/// rules over the workspace symbol graph, and apply `allow`.
///
/// Integration-test files (the umbrella `tests/` and each crate's `tests/`)
/// are never linted but *are* parsed into the symbol graph: the construction
/// census (R7) and the assertion census (R8) need to see them. `compat/`
/// stubs are outside the walked set by construction, and this crate's own
/// `tests/fixtures` is skipped.
pub fn check_workspace(root: &Path, allow: &Allowlist) -> std::io::Result<CheckReport> {
    let (files, aux_files) = workspace_files(root)?;
    let mut findings = Vec::new();
    let mut allowed = 0usize;
    let mut used = BTreeSet::new();
    let mut syms: Vec<parse::FileSyms> = Vec::new();
    let scanned = files.len();
    for (file, lint_it) in files
        .iter()
        .map(|f| (f, true))
        .chain(aux_files.iter().map(|f| (f, false)))
    {
        let (rel, src) = read_rel(root, file)?;
        let ctx = FileCtx::new(&rel, &src);
        if lint_it {
            let mut file_findings = Vec::new();
            lexical_rules(&ctx, &mut file_findings);
            findings.append(&mut file_findings);
        }
        syms.push(parse::FileSyms::from_ctx(&ctx));
    }
    let graph = graph::SymbolGraph::build(syms);
    semantic::run(&graph, &mut findings);

    findings.retain(|d| {
        if allow.allows(d) {
            allowed += 1;
            used.insert(d.allow_entry());
            false
        } else {
            true
        }
    });
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.key.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.key.as_str(),
        ))
    });
    let stale_allows = allow.unused(&used).into_iter().map(String::from).collect();
    Ok(CheckReport {
        findings,
        allowed,
        stale_allows,
        files: scanned,
    })
}

/// This crate's fixture mini-roots: lint inputs, not part of the tree.
const FIXTURES: &str = "crates/lint/tests/fixtures";

/// The files `check` walks, each list sorted: workspace sources
/// (`crates/*/src` and the umbrella `src/`), then integration tests (the
/// umbrella `tests/` and each crate's `tests/`, less [`FIXTURES`]).
fn workspace_files(
    root: &Path,
) -> std::io::Result<(Vec<std::path::PathBuf>, Vec<std::path::PathBuf>)> {
    let mut files = Vec::new();
    let mut aux_files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<_> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
            collect_rs(&member.join("tests"), &mut aux_files)?;
        }
    }
    collect_rs(&root.join("src"), &mut files)?;
    collect_rs(&root.join("tests"), &mut aux_files)?;
    let fixtures = root.join(FIXTURES);
    aux_files.retain(|f| !f.starts_with(&fixtures));
    files.sort();
    aux_files.sort();
    Ok((files, aux_files))
}

/// A file's repo-relative path (with `/` separators) and contents.
fn read_rel(root: &Path, file: &Path) -> std::io::Result<(String, String)> {
    let rel = file
        .strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/");
    Ok((rel, std::fs::read_to_string(file)?))
}

/// One `census` entry: a `pub` fn that no non-test code names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CensusEntry {
    /// Repo-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `impl`-qualified name (`Type::name`, or the bare name).
    pub name: String,
}

impl fmt::Display for CensusEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {}", self.path, self.line, self.name)
    }
}

/// The `pub` fn census: every `pub`/`pub(crate)` fn in the workspace
/// sources outside `crates/lint` whose bare name no non-test code mentions,
/// sorted by (path, line).
///
/// Non-test code is `check`'s source set plus `examples/` and
/// `benchmark/src`, which only this walk parses: they keep fns alive but
/// define none of the entries. A report, not a rule: nothing here fails.
pub fn census(root: &Path) -> std::io::Result<Vec<CensusEntry>> {
    let (files, aux_files) = census_files(root)?;
    let mut syms = Vec::new();
    for file in files.iter().chain(&aux_files) {
        let (rel, src) = read_rel(root, file)?;
        syms.push(parse::FileSyms::from_ctx(&FileCtx::new(&rel, &src)));
    }
    let graph = graph::SymbolGraph::build(syms);
    let mut out: Vec<CensusEntry> = graph
        .unreferenced_pub_fns(|p| {
            (p.starts_with("crates/") || p.starts_with("src/")) && !p.starts_with("crates/lint/")
        })
        .into_iter()
        .map(|(path, line, name)| CensusEntry {
            path: path.to_string(),
            line,
            name: name.to_string(),
        })
        .collect();
    out.sort();
    Ok(out)
}

/// The files `census` parses: `check`'s, plus `examples/` and
/// `benchmark/src` among the non-test files.
fn census_files(
    root: &Path,
) -> std::io::Result<(Vec<std::path::PathBuf>, Vec<std::path::PathBuf>)> {
    let (mut files, aux_files) = workspace_files(root)?;
    collect_rs(&root.join("examples"), &mut files)?;
    collect_rs(&root.join("benchmark/src"), &mut files)?;
    Ok((files, aux_files))
}

/// Recursively collect `.rs` files under `dir` (no-op if it doesn't exist).
fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_roots_are_outside_both_walks() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let fixtures = root.join(FIXTURES);
        assert!(fixtures.is_dir());
        for walk in [workspace_files(&root), census_files(&root)] {
            let (files, aux_files) = walk.unwrap();
            assert!(aux_files.contains(&root.join("crates/lint/tests/census.rs")));
            let walked: Vec<_> = files.iter().chain(&aux_files).collect();
            assert!(walked.len() > 90);
            assert!(
                walked.iter().all(|f| !f.starts_with(&fixtures)),
                "a fixture file was walked"
            );
        }
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn live() {} #[cfg(test)] mod tests { fn hidden() {} }";
        let ctx = FileCtx::new("crates/stack/src/x.rs", src);
        let hidden = ctx.toks.iter().position(|t| t.is_ident("hidden")).unwrap();
        let live = ctx.toks.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(ctx.in_test[hidden]);
        assert!(!ctx.in_test[live]);
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))] fn live() {}";
        let ctx = FileCtx::new("crates/stack/src/x.rs", src);
        let live = ctx.toks.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!ctx.in_test[live]);
    }

    #[test]
    fn enclosing_fn_names_nested() {
        let src = "fn outer() { fn inner() { mark(); } }";
        let ctx = FileCtx::new("crates/stack/src/x.rs", src);
        let mark = ctx.toks.iter().position(|t| t.is_ident("mark")).unwrap();
        assert_eq!(ctx.fn_of[mark].as_deref(), Some("inner"));
    }

    #[test]
    fn impl_qualified_fn_names() {
        let src = "impl Table { fn install(&mut self) { mark(); } }\n\
                   impl Other { fn install(&mut self) { mark2(); } }\n\
                   fn free() { mark3(); }\n\
                   impl fmt::Display for Wide { fn fmt(&self) { mark4(); } }";
        let ctx = FileCtx::new("crates/stack/src/x.rs", src);
        let at = |name: &str| {
            let i = ctx.toks.iter().position(|t| t.is_ident(name)).unwrap();
            ctx.fn_of[i].clone().unwrap()
        };
        assert_eq!(at("mark"), "Table::install");
        assert_eq!(at("mark2"), "Other::install");
        assert_eq!(at("mark3"), "free");
        assert_eq!(at("mark4"), "Wide::fmt");
    }

    #[test]
    fn impl_in_type_position_is_not_a_scope() {
        let src = "fn f(g: impl Fn(u8) -> u8) { mark(); }";
        let ctx = FileCtx::new("crates/stack/src/x.rs", src);
        let mark = ctx.toks.iter().position(|t| t.is_ident("mark")).unwrap();
        assert_eq!(ctx.fn_of[mark].as_deref(), Some("f"));
        assert_eq!(ctx.impl_of[mark], None);
    }

    #[test]
    fn generic_impl_and_nested_fn_qualification() {
        let src = "impl<K: Ord> Heap<K> { fn push(&mut self, k: K) { fn helper() { mark(); } } }";
        let ctx = FileCtx::new("crates/stack/src/x.rs", src);
        let mark = ctx.toks.iter().position(|t| t.is_ident("mark")).unwrap();
        // The nested helper is not a method: bare name.
        assert_eq!(ctx.fn_of[mark].as_deref(), Some("helper"));
        let k = ctx.toks.iter().rposition(|t| t.is_ident("k")).unwrap();
        assert_eq!(ctx.impl_of[k].as_deref(), Some("Heap"));
    }

    #[test]
    fn explain_extracts_rule_docs() {
        let text = explain("R9").expect("R9 is registered");
        assert!(text.starts_with("R9 clock-dataflow"));
        assert!(text.contains("PR 3"), "lineage must be stated: {text}");
        assert!(text.contains("Bad"), "needs a bad example: {text}");
        assert!(text.contains("Good"), "needs a good example: {text}");
        // Every registered rule must explain itself.
        for r in RULES {
            let t = explain(r.id).unwrap_or_else(|| panic!("{} has no explanation", r.id));
            assert!(
                t.contains(r.name),
                "{} explanation must name the rule",
                r.id
            );
        }
        assert!(explain("effect-coverage").is_some(), "lookup by name works");
        assert!(explain("R99").is_none());
    }

    #[test]
    fn allowlist_roundtrip() {
        let d = Diagnostic {
            rule: "R4",
            name: "panic-hygiene",
            severity: Severity::Error,
            path: "crates/stack/src/socket.rs".into(),
            line: 7,
            key: "fn:tcp_mut".into(),
            msg: "x".into(),
        };
        let allow = Allowlist::parse(
            "# comment\n\nR4 crates/stack/src/socket.rs fn:tcp_mut  # accessor contract\n",
        );
        assert_eq!(allow.len(), 1);
        assert!(allow.allows(&d));
    }
}
