//! The lexical lint rules (R1–R6). Each rule is a pure function over a
//! [`FileCtx`] appending [`Diagnostic`]s; scoping (which crates a rule
//! watches) lives here next to the rule it configures. Cross-file rules
//! (R7–R9) live in [`crate::semantic`] and run over the symbol graph.
//!
//! Rule doc comments double as the `explain` subcommand's output (extracted
//! from the embedded source), so each carries its rationale, a minimal
//! bad/good example and the bug class it descends from.

use crate::lexer::{Tok, TokKind};
use crate::parse::{arms, fn_sites, match_body};
use crate::{matching_close, Diagnostic, FileCtx, Severity};

/// Crates whose runtime behaviour feeds the deterministic simulation: any
/// iteration-order or wall-clock dependence here breaks byte-identical
/// figure outputs.
const R1_SCOPE: &[&str] = &[
    "crates/sim/",
    "crates/core/",
    "crates/stack/",
    "crates/cluster/",
    "crates/lb/",
];

/// Crates holding the migration hot paths where a panic would tear down the
/// whole simulated cluster instead of surfacing a typed abort.
const R4_SCOPE: &[&str] = &["crates/core/", "crates/stack/"];

/// Crates whose public API must be documented (same set as R4 — the
/// contribution layer).
const R5_SCOPE: &[&str] = &["crates/core/", "crates/stack/"];

/// The cross-layer enums every dispatcher must match exhaustively: adding a
/// variant has to force each layer to decide, not fall into a `_` arm
/// (PR 3's capture-pressure misattribution hid behind exactly such an arm).
const R3_ENUMS: &[&str] = &[
    "Effect",
    "AbortReason",
    "Fault",
    "Event",
    "LbMsg",
    "Strategy",
];

/// R1 `determinism`: no `HashMap`/`HashSet` (RandomState iteration order),
/// no `Instant::now`/`SystemTime::now` (wall clock), no `thread_rng`
/// (unseeded randomness) in simulation-facing crates.
///
/// Lineage: the repo's acceptance bar is byte-identical fig5b/5c/timeline
/// output across PRs; one RandomState iteration in a hot loop silently
/// reorders events and breaks that forever.
///
/// Bad:  `let mut queues: HashMap<NodeId, Vec<Msg>> = HashMap::new();`
/// Good: `let mut queues: BTreeMap<NodeId, Vec<Msg>> = BTreeMap::new();`
pub fn r1_determinism(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.in_scope(R1_SCOPE) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let msg = match t.text.as_str() {
            "HashMap" | "HashSet" => Some(format!(
                "`{}` iterates in RandomState order; use BTreeMap/BTreeSet (or allowlist with a proof of order-independence)",
                t.text
            )),
            "thread_rng" => {
                Some("`thread_rng` is unseeded; use the sim's DetRng".to_string())
            }
            "Instant" | "SystemTime" if path_call(&ctx.toks, i, "now") => Some(format!(
                "`{}::now` reads the wall clock; thread the sim clock instead",
                t.text
            )),
            _ => None,
        };
        if let Some(msg) = msg {
            out.push(diag(ctx, i, "R1", "determinism", Severity::Error, msg));
        }
    }
}

/// Whether token `i` starts the path call `<ident>::<method>`.
fn path_call(toks: &[Tok], i: usize, method: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(method))
}

/// R2 `clock-threading`: the PR-3 stale-clock bug class. In `crates/stack`:
///
/// * **R2a** — a function whose body reads or writes `last_hit` (the TTL
///   liveness timestamp) must take a `now` parameter; otherwise it can only
///   invent a clock, and an invented clock is what let TTL GC evict live
///   xlate rules.
/// * **R2b** — passing `SimTime::ZERO` as an argument to a `*_at(…)` call is
///   that invention at the call site: a clock-threaded API fed a constant.
///
/// Lineage: PR 3 shipped an xlate-table wrapper that installed TTL rules at
/// `SimTime::ZERO`, so the GC sweep saw every rule as idle-expired and
/// evicted live translations mid-migration. R9 (`clock-dataflow`)
/// generalizes this rule across call hops and crates.
///
/// Bad:  `fn install(&mut self, r: Rule) { self.install_at(r, SimTime::ZERO) }`
/// Good: `fn install(&mut self, r: Rule, now: SimTime) { self.install_at(r, now) }`
pub fn r2_clock_threading(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.in_scope(&["crates/stack/"]) {
        return;
    }
    for f in fn_sites(&ctx.toks) {
        if ctx.in_test[f.fn_kw] {
            continue;
        }
        let (body_open, body_close) = match f.body {
            Some(b) => b,
            None => continue,
        };
        let touches_ttl = ctx.toks[body_open..=body_close]
            .iter()
            .any(|t| t.is_ident("last_hit"));
        let has_now = ctx.toks[f.params.0..=f.params.1]
            .iter()
            .any(|t| t.is_ident("now"));
        if touches_ttl && !has_now {
            // Keyed by the offending fn itself (at the `fn` keyword the
            // enclosing-fn map would say `top`), impl-qualified so two
            // same-named methods never share a suppression.
            out.push(Diagnostic {
                rule: "R2",
                name: "clock-threading",
                severity: Severity::Error,
                path: ctx.path.to_string(),
                line: ctx.toks[f.fn_kw].line,
                key: format!("fn:{}", ctx.qualified_fn(f.fn_kw, &f.name)),
                msg: format!(
                    "fn `{}` touches `last_hit` (TTL state) but takes no `now` parameter; thread the sim clock through",
                    f.name
                ),
            });
        }
    }
    // R2b: SimTime::ZERO fed to a clock-threaded `*_at(…)` call.
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i]
            || t.kind != TokKind::Ident
            || !t.text.ends_with("_at")
            || !matches!(
                ctx.toks.get(i + 1).map(|n| &n.kind),
                Some(TokKind::Open('('))
            )
        {
            continue;
        }
        // Skip definitions (`fn install_at(…)`) — only call sites matter.
        if i > 0 && ctx.toks[i - 1].is_ident("fn") {
            continue;
        }
        let close = match matching_close(&ctx.toks, i + 1) {
            Some(c) => c,
            None => continue,
        };
        for j in i + 2..close {
            if ctx.toks[j].is_ident("SimTime") && path_call(&ctx.toks, j, "ZERO") {
                out.push(diag(
                    ctx,
                    j,
                    "R2",
                    "clock-threading",
                    Severity::Error,
                    format!(
                        "`SimTime::ZERO` passed to clock-threaded `{}`; pass the real sim clock (stale-clock bug class from PR 3)",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// R3 `no-wildcard-arm`: a `match` whose arm patterns name one of the
/// cross-layer enums must not contain a bare `_` arm.
///
/// Lineage: PR 3's capture-pressure misattribution — a `_` fallback in the
/// effect dispatcher silently swallowed a new variant, charging its cost to
/// the wrong phase. Adding a variant has to force every layer to decide.
/// R7 (`effect-coverage`) proves the complementary cross-file half: the arm
/// actually exists in every dispatcher.
///
/// Bad:  `match e { Effect::Complete => done(), _ => {} }`
/// Good: `match e { Effect::Complete => done(), Effect::Aborted => undo() }`
pub fn r3_no_wildcard_arm(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.in_scope(&["crates/"]) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] || !t.is_ident("match") {
            continue;
        }
        let Some(body_open) = match_body(&ctx.toks, i) else {
            continue;
        };
        let Some(body_close) = matching_close(&ctx.toks, body_open) else {
            continue;
        };
        let arms = arms(&ctx.toks, body_open, body_close);
        let mut enum_named: Option<&str> = None;
        let mut wildcard_at: Vec<usize> = Vec::new();
        for (pat_start, arrow) in &arms {
            let pat = &ctx.toks[*pat_start..*arrow];
            if let Some(name) = pat.iter().enumerate().find_map(|(k, p)| {
                R3_ENUMS
                    .iter()
                    .find(|e| p.is_ident(e) && path_sep(pat, k))
                    .copied()
            }) {
                enum_named = Some(name);
            }
            // Bare `_` (optionally guarded: `_ if …`).
            if pat.first().is_some_and(|p| p.is_ident("_"))
                && (pat.len() == 1 || pat[1].is_ident("if"))
            {
                wildcard_at.push(*pat_start);
            }
        }
        if let Some(name) = enum_named {
            for w in wildcard_at {
                out.push(diag(
                    ctx,
                    w,
                    "R3",
                    "no-wildcard-arm",
                    Severity::Error,
                    format!(
                        "wildcard `_` arm in a match over `{name}`; enumerate the variants so new ones force a decision"
                    ),
                ));
            }
        }
    }
}

/// Whether `pat[k]` is followed by `::` (i.e. is a path segment, not a
/// binding that happens to shadow an enum name).
fn path_sep(pat: &[Tok], k: usize) -> bool {
    pat.get(k + 1).is_some_and(|t| t.is_punct(':'))
        && pat.get(k + 2).is_some_and(|t| t.is_punct(':'))
}

/// R4 `panic-hygiene`: no `unwrap`/`expect` method calls and no
/// `panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test core/stack
/// code — hot paths must surface typed errors or documented allowlisted
/// invariants, not process aborts.
///
/// Lineage: a panic mid-migration tears down the whole simulated cluster
/// instead of surfacing a typed `AbortReason`, so one bad unwrap turns a
/// recoverable fault into a vanished experiment. Grandfathered sites live
/// in `lint.allow`, each keyed `fn:<Impl::name>` with a written invariant.
///
/// Bad:  `let image = self.staged.take().unwrap();` (an `Option` field that
/// only some phases fill)
/// Good: `Progress::Detached(d) => self.step_restore(d, io, sink)` (the
/// phase's enum variant carries the image, so there is nothing to unwrap)
pub fn r4_panic_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.in_scope(R4_SCOPE) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let method_call = i > 0
            && ctx.toks[i - 1].is_punct('.')
            && matches!(
                ctx.toks.get(i + 1).map(|n| &n.kind),
                Some(TokKind::Open('('))
            );
        let macro_bang = ctx.toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let hit = match t.text.as_str() {
            "unwrap" | "expect" if method_call => true,
            "panic" | "unreachable" | "todo" | "unimplemented" if macro_bang => true,
            _ => false,
        };
        if hit {
            out.push(diag(
                ctx,
                i,
                "R4",
                "panic-hygiene",
                Severity::Error,
                format!(
                    "`{}` can abort the process on a hot path; return a typed error, restructure, or allowlist with the invariant that makes it unreachable",
                    t.text
                ),
            ));
        }
    }
}

/// R5 `doc-hygiene`: every `pub` item (including `pub` struct fields) in
/// core/stack carries an outer doc comment. `pub(crate)`/`pub(super)`
/// restricted items and `pub use` re-exports (documented at the definition)
/// are exempt.
///
/// Lineage: the contribution layer (core/stack) is the paper-facing API;
/// undocumented knobs are how configuration drift between experiments went
/// unnoticed pre-PR 2. Warning severity, but `check` is strict, so the tree
/// stays at zero either way.
///
/// Bad:  `pub fn detach_budget(&self) -> u32 { … }`
/// Good: `/// Bytes the freeze window may still ship.` above it.
pub fn r5_doc_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.in_scope(R5_SCOPE) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] || !t.is_ident("pub") {
            continue;
        }
        // Restricted visibility: `pub(crate)` etc.
        if matches!(
            ctx.toks.get(i + 1).map(|n| &n.kind),
            Some(TokKind::Open('('))
        ) {
            continue;
        }
        let Some((kind, name)) = item_after_pub(&ctx.toks, i) else {
            continue;
        };
        if kind == "use" {
            continue;
        }
        if !documented(&ctx.toks, i) {
            out.push(diag(
                ctx,
                i,
                "R5",
                "doc-hygiene",
                Severity::Warning,
                format!("public {kind} `{name}` has no doc comment"),
            ));
        }
    }
}

/// R6 `shard-isolation`: no `Mutex`/`RwLock`/`Condvar`/`Atomic*`/`mpsc`/
/// `thread::spawn`/`thread::scope` in simulation-facing crates. Every event
/// dispatches from one totally ordered queue on one thread; that order is
/// what makes two runs of one seed byte-identical. A thread or shared-state
/// primitive is a channel for OS-scheduling-dependent behaviour to leak
/// into simulation state.
///
/// Lineage: the rule once exempted `sim/par.rs`, the worker pool of a
/// parallel event core. The core measured slower than the single loop and
/// was removed with its exemption, so no path is exempt.
///
/// Bad:  `static HITS: AtomicU64 = AtomicU64::new(0);` in a hot path.
/// Good: a plain `u64` counter on the world, bumped in dispatch order.
pub fn r6_shard_isolation(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.in_scope(R1_SCOPE) {
        return;
    }
    for (i, t) in ctx.toks.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let msg = match t.text.as_str() {
            "Mutex" | "RwLock" | "Condvar" => Some(format!(
                "`{}` shares state across threads; the simulation is single-threaded, so keep state plain and mutate it in dispatch order",
                t.text
            )),
            "mpsc" => Some(
                "`mpsc` channels order messages by OS scheduling, not by dispatch key; schedule an event on the world's queue instead".to_string(),
            ),
            "thread" if path_call(&ctx.toks, i, "spawn") || path_call(&ctx.toks, i, "scope") => {
                Some(
                    "threads make simulation order depend on OS scheduling; dispatch the work as events on the single event loop".to_string(),
                )
            }
            s if s.starts_with("Atomic") && s.len() > "Atomic".len() => Some(format!(
                "`{}` is scheduling-ordered shared state; use a plain counter updated in dispatch order",
                t.text
            )),
            _ => None,
        };
        if let Some(msg) = msg {
            out.push(diag(ctx, i, "R6", "shard-isolation", Severity::Error, msg));
        }
    }
}

/// Classify the item following a `pub` at index `i`: returns
/// `(kind, name)` — e.g. `("fn", "route_out")` or `("field", "local_port")`.
fn item_after_pub(toks: &[Tok], i: usize) -> Option<(&'static str, String)> {
    let mut j = i + 1;
    // Skip modifiers: const/unsafe/async/extern "C".
    loop {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "unsafe" | "async" => j += 1,
            "extern" => {
                j += 1;
                if toks.get(j).is_some_and(|n| n.kind == TokKind::Lit) {
                    j += 1;
                }
            }
            "const" => {
                // `pub const fn` is a fn; `pub const NAME` is a const item.
                if toks.get(j + 1).is_some_and(|n| n.is_ident("fn")) {
                    j += 1;
                } else {
                    let name = toks.get(j + 1)?.text.clone();
                    return Some(("const", name));
                }
            }
            _ => break,
        }
    }
    let t = toks.get(j)?;
    let kind = match t.text.as_str() {
        "fn" => "fn",
        "struct" => "struct",
        "enum" => "enum",
        "trait" => "trait",
        "mod" => "mod",
        "static" => "static",
        "type" => "type",
        "union" => "union",
        "use" => return Some(("use", String::new())),
        _ if t.kind == TokKind::Ident => {
            // `pub name: Type` — a struct field.
            if toks.get(j + 1).is_some_and(|n| n.is_punct(':')) {
                return Some(("field", t.text.clone()));
            }
            return None;
        }
        _ => return None,
    };
    let name = toks.get(j + 1).map(|n| n.text.clone()).unwrap_or_default();
    Some((kind, name))
}

/// Whether the item introduced at token `i` (its `pub`) is preceded by an
/// outer doc comment, skipping attribute groups (`#[derive(…)]` may sit
/// between the doc and the item).
fn documented(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match toks[j].kind {
            TokKind::Close(']') => {
                // Walk back over the attribute to its `#`.
                let mut depth = 0i32;
                loop {
                    match toks[j].kind {
                        TokKind::Close(_) => depth += 1,
                        TokKind::Open(_) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        return false;
                    }
                    j -= 1;
                }
                if j == 0 || !toks[j - 1].is_punct('#') {
                    return false;
                }
                j -= 1; // land on `#`; loop steps before it
            }
            TokKind::DocOuter => return true,
            _ => return false,
        }
    }
    false
}

fn diag(
    ctx: &FileCtx<'_>,
    tok: usize,
    rule: &'static str,
    name: &'static str,
    severity: Severity,
    msg: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        name,
        severity,
        path: ctx.path.to_string(),
        line: ctx.toks[tok].line,
        key: ctx.key_at(tok),
        msg,
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_file;

    fn rules_hit(path: &str, src: &str) -> Vec<(&'static str, u32)> {
        lint_file(path, src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn r1_flags_hashmap_in_scope_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_hit("crates/stack/src/x.rs", src), vec![("R1", 1)]);
        assert!(rules_hit("crates/metrics/src/x.rs", src).is_empty());
    }

    #[test]
    fn r1_ignores_tests_and_instant_without_now() {
        let src =
            "#[cfg(test)]\nmod tests { use std::collections::HashSet; }\nfn f(i: Instant) {}\n";
        assert!(rules_hit("crates/cluster/src/x.rs", src).is_empty());
    }

    #[test]
    fn r2a_requires_now_param() {
        let bad = "fn refresh(&mut self) { self.rules[0].last_hit = t; }";
        let good = "fn refresh(&mut self, now: SimTime) { self.rules[0].last_hit = now; }";
        assert_eq!(rules_hit("crates/stack/src/x.rs", bad), vec![("R2", 1)]);
        assert!(rules_hit("crates/stack/src/x.rs", good).is_empty());
    }

    #[test]
    fn r2b_flags_zero_fed_to_clocked_call() {
        let src = "fn f(&mut self) { self.install_at(rule, SimTime::ZERO); }";
        assert_eq!(rules_hit("crates/stack/src/x.rs", src), vec![("R2", 1)]);
        let def = "fn install_at(&mut self, now: SimTime) { let last_hit = now; }";
        assert!(rules_hit("crates/stack/src/x.rs", def).is_empty());
    }

    #[test]
    fn r3_flags_wildcard_over_target_enum_only() {
        let bad = "fn f(e: Effect) { match e { Effect::Complete => {}\n _ => {} } }";
        let ok = "fn f(n: u8) { match n { 1 => {}\n _ => {} } }";
        let full = "fn f(e: Effect) { match e { Effect::Complete => {}\n Effect::Aborted => {} } }";
        assert_eq!(rules_hit("crates/metrics/src/x.rs", bad), vec![("R3", 2)]);
        assert!(rules_hit("crates/metrics/src/x.rs", ok).is_empty());
        assert!(rules_hit("crates/metrics/src/x.rs", full).is_empty());
    }

    #[test]
    fn r3_ignores_nested_wildcards_in_arm_bodies() {
        let src = "fn f(e: Effect, n: u8) { match e { Effect::Complete => match n { 1 => {}\n _ => {} }, Effect::Aborted => {} } }";
        assert!(rules_hit("crates/metrics/src/x.rs", src).is_empty());
    }

    #[test]
    fn r4_flags_unwrap_but_not_unwrap_or() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0); x.unwrap() }";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), vec![("R4", 1)]);
    }

    #[test]
    fn r6_flags_primitives_in_scope_only() {
        let src = "use std::sync::Mutex;\nstatic N: AtomicU64 = AtomicU64::new(0);\n";
        assert_eq!(
            rules_hit("crates/cluster/src/x.rs", src),
            vec![("R6", 1), ("R6", 2), ("R6", 2)]
        );
        // Out of the simulation family: free to use what it likes.
        assert!(rules_hit("crates/metrics/src/x.rs", src).is_empty());
        // No path in the simulation family is exempt.
        assert_eq!(
            rules_hit("crates/sim/src/par.rs", src),
            vec![("R6", 1), ("R6", 2), ("R6", 2)]
        );
    }

    #[test]
    fn r6_flags_adhoc_threads() {
        let bad = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_hit("crates/sim/src/x.rs", bad), vec![("R6", 1)]);
        // `thread` not followed by ::spawn/::scope (e.g. a field) is fine.
        let field = "struct S { thread: u8 }";
        assert!(rules_hit("crates/sim/src/x.rs", field).is_empty());
    }

    #[test]
    fn r6_ignores_test_code() {
        let src = "#[cfg(test)]\nmod tests { use std::sync::Mutex; }\n";
        assert!(rules_hit("crates/cluster/src/x.rs", src).is_empty());
    }

    #[test]
    fn r5_field_and_fn_docs() {
        let bad = "pub struct S { pub x: u8 }\n";
        let hits = rules_hit("crates/stack/src/x.rs", bad);
        assert_eq!(hits, vec![("R5", 1), ("R5", 1)]);
        let good = "/// S.\npub struct S {\n /// X.\n #[allow(dead_code)]\n pub x: u8 }\n";
        assert!(rules_hit("crates/stack/src/x.rs", good).is_empty());
    }
}
