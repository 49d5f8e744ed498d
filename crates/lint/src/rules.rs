//! The lexical lint rules (R2, R3). Each rule is a pure function over a
//! [`FileCtx`] appending [`Diagnostic`]s; scoping (which crates a rule
//! watches) lives here next to the rule it configures. Cross-file rules
//! (R7–R9) live in [`crate::semantic`] and run over the symbol graph. The
//! toolchain enforces the per-crate bans and hygiene rules that were R1 and
//! R4–R6 (DESIGN.md §8).
//!
//! Rule doc comments double as the `explain` subcommand's output (extracted
//! from the embedded source), so each carries its rationale, a minimal
//! bad/good example and the bug class it descends from.

use crate::lexer::Tok;
use crate::parse::{arms, fn_sites, match_body};
use crate::{matching_close, Diagnostic, FileCtx};

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

/// R2 `clock-threading`: the PR-3 stale-clock bug class, at its source. In
/// `crates/stack`, a function whose body reads or writes `last_hit` (the TTL
/// liveness timestamp) must take a `now` parameter; otherwise it can only
/// invent a clock, and an invented clock is what let TTL GC evict live
/// xlate rules.
///
/// Lineage: PR 3 shipped an xlate-table wrapper that installed TTL rules at
/// `SimTime::ZERO`, so the GC sweep saw every rule as idle-expired and
/// evicted live translations mid-migration. R9 (`clock-dataflow`) catches
/// the constant where it is passed, any number of call hops away; this rule
/// catches a TTL write that has no clock to pass.
///
/// Bad:  `fn refresh(&mut self) { self.rule.last_hit = SimTime::ZERO; }`
/// Good: `fn refresh(&mut self, now: SimTime) { self.rule.last_hit = now; }`
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
            // same-named methods get distinct keys.
            out.push(Diagnostic {
                rule: "R2",
                name: "clock-threading",
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

fn diag(
    ctx: &FileCtx<'_>,
    tok: usize,
    rule: &'static str,
    name: &'static str,
    msg: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        name,
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
    fn r2a_requires_now_param() {
        let bad = "fn refresh(&mut self) { self.rules[0].last_hit = t; }";
        let good = "fn refresh(&mut self, now: SimTime) { self.rules[0].last_hit = now; }";
        assert_eq!(rules_hit("crates/stack/src/x.rs", bad), vec![("R2", 1)]);
        assert!(rules_hit("crates/stack/src/x.rs", good).is_empty());
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
}
