//! The parser pass: from the flat token stream of one file to the symbols
//! the semantic rules need.
//!
//! This is deliberately *not* a Rust parser. It recognizes exactly four
//! shapes — enum definitions with their variants, `fn` signatures with
//! parameter names, call sites with argument spans, and two-segment
//! `Head::Seg` path uses classified by position (pattern vs. expression,
//! inside an `assert!`-family macro or not) — because those four are all the
//! workspace-level rules (R7–R9) consume. It also keeps the set of
//! identifiers non-test code names, which the `pub fn` census consumes. No
//! type inference, no macro expansion, no name resolution beyond `Type::fn`
//! paths: the symbol graph ([`crate::graph`]) compensates with conservative
//! matching (a call site binds to a definition only when every candidate
//! agrees).
//!
//! The low-level scanners ([`fn_sites`], [`match_body`], [`arms`]) are
//! shared with the lexical rules in [`crate::rules`].

use crate::lexer::{Tok, TokKind};
use crate::matching_close;
use crate::FileCtx;
use std::collections::BTreeSet;

/// A function found in the stream: its `fn` keyword, name, parameter-group
/// token span (inclusive of the delimiters) and body span, if any.
pub struct FnSite {
    /// Token index of the `fn` keyword.
    pub fn_kw: usize,
    /// The function's bare name (no `impl` qualification).
    pub name: String,
    /// Token span of the parameter group, inclusive of the parentheses.
    pub params: (usize, usize),
    /// Token span of the body braces, if the fn has a body.
    pub body: Option<(usize, usize)>,
}

/// Find every `fn` with its parameter list and body. Generic parameter
/// lists between name and `(` are skipped by angle-depth tracking.
pub fn fn_sites(toks: &[Tok]) -> Vec<FnSite> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        // Parameter group: first `(` at generic-angle depth 0.
        let mut j = i + 2;
        let mut angle = 0i32;
        let params_open = loop {
            match toks.get(j).map(|t| &t.kind) {
                Some(TokKind::Punct('<')) => angle += 1,
                Some(TokKind::Punct('>')) => angle -= 1,
                Some(TokKind::Open('(')) if angle <= 0 => break Some(j),
                Some(_) => {}
                None => break None,
            }
            j += 1;
        };
        let Some(params_open) = params_open else {
            continue;
        };
        let Some(params_close) = matching_close(toks, params_open) else {
            continue;
        };
        // Body: first `{` before a top-level `;` (bodyless trait method).
        let mut k = params_close + 1;
        let mut body = None;
        let mut depth = 0i32;
        while let Some(t) = toks.get(k) {
            match t.kind {
                TokKind::Open('{') if depth == 0 => {
                    body = matching_close(toks, k).map(|c| (k, c));
                    break;
                }
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        out.push(FnSite {
            fn_kw: i,
            name: name_tok.text.clone(),
            params: (params_open, params_close),
            body,
        });
    }
    out
}

/// The `{` opening a match body: first top-level `{` after the scrutinee
/// (parens/brackets in the scrutinee are depth-tracked).
pub fn match_body(toks: &[Tok], match_kw: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(match_kw + 1) {
        match t.kind {
            TokKind::Open('{') if depth == 0 => return Some(j),
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => depth -= 1,
            _ => {}
        }
    }
    None
}

/// Split a match body into arms: returns `(pattern_start, arrow_index)` for
/// each `pattern => value` at the body's top level.
pub fn arms(toks: &[Tok], body_open: usize, body_close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut j = body_open + 1;
    while j < body_close {
        let pat_start = j;
        // Scan the pattern to its `=>` at arm level.
        let mut depth = 0i32;
        let mut arrow = None;
        while j < body_close {
            let t = &toks[j];
            match t.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Punct('=')
                    if depth == 0 && toks.get(j + 1).is_some_and(|n| n.is_punct('>')) =>
                {
                    arrow = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        out.push((pat_start, arrow));
        // Skip the arm value: a brace group, or tokens to a `,` at arm level.
        j = arrow + 2;
        if j < body_close && matches!(toks[j].kind, TokKind::Open('{')) {
            j = matching_close(toks, j).map_or(body_close, |c| c + 1);
        } else {
            let mut depth = 0i32;
            while j < body_close {
                match toks[j].kind {
                    TokKind::Open(_) => depth += 1,
                    TokKind::Close(_) => depth -= 1,
                    TokKind::Punct(',') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
        }
        // Skip the trailing comma.
        if j < body_close && toks[j].is_punct(',') {
            j += 1;
        }
    }
    out
}

/// An enum definition with its variants.
#[derive(Debug)]
pub struct EnumDef {
    /// The enum's name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// The variant names with their 1-based lines, in declaration order.
    pub variants: Vec<(String, u32)>,
}

/// One declared parameter of a fn.
#[derive(Debug)]
pub struct Param {
    /// The bound name (`_` for tuple/struct-pattern parameters).
    pub name: String,
    /// Whether the declared type mentions `SimTime` — the clock-dataflow
    /// rule only taints parameters that actually carry the sim clock.
    pub clock_typed: bool,
}

/// A function definition's signature, as the graph sees it.
#[derive(Debug)]
pub struct FnSig {
    /// `impl`-qualified name (`MigrationEngine::step`) or bare name for
    /// free functions.
    pub qual_name: String,
    /// The bare name (last segment of `qual_name`).
    pub bare_name: String,
    /// Parameters in order, `self` receivers excluded.
    pub params: Vec<Param>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the definition lives in `#[cfg(test)]`/`#[test]` code.
    pub in_test: bool,
    /// Whether the fn is declared `pub` or `pub(…)`.
    pub is_pub: bool,
    /// Token span of the body braces, if any.
    pub body: Option<(usize, usize)>,
}

/// The shape of one call argument, as far as the clock-dataflow rule cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgShape {
    /// A compile-time clock constant: the argument is built purely from
    /// `SimTime::ZERO` / `SimTime::from_*(<literals>)` with no variable
    /// involved — the "invented clock" of the PR 3 bug class.
    ClockConst,
    /// A single bare identifier (a local or parameter being passed on).
    Ident(String),
    /// Anything else — field accesses, method results, arithmetic.
    Other,
}

/// A call site: `callee(args)`, `recv.callee(args)` or `Qual::callee(args)`.
#[derive(Debug)]
pub struct CallSite {
    /// The called function's bare name.
    pub callee: String,
    /// The path segment before `::callee(`, when the call is path-qualified
    /// (e.g. `LoadInfo` in `LoadInfo::new(…)`).
    pub callee_qual: Option<String>,
    /// The shape of each argument, in order.
    pub args: Vec<ArgShape>,
    /// 1-based line of the callee token.
    pub line: u32,
    /// Whether the call site is in test code.
    pub in_test: bool,
    /// `impl`-qualified name of the enclosing fn, if any.
    pub caller: Option<String>,
}

/// One `Head::Seg` path use (both segments capitalized — enum variants,
/// associated consts), classified by syntactic position.
#[derive(Debug)]
pub struct PathUse {
    /// First segment (`Effect` in `Effect::Complete`).
    pub head: String,
    /// Second segment (`Complete`).
    pub seg: String,
    /// Token index of the head segment.
    pub idx: usize,
    /// 1-based line of the head segment.
    pub line: u32,
    /// Whether the use sits in pattern position (a match arm pattern or a
    /// `let`/`if let`/`while let` pattern) rather than an expression.
    pub in_pattern: bool,
    /// Whether the use sits inside an `assert!`-family or `matches!` macro
    /// invocation.
    pub in_assert: bool,
    /// Whether the use is in test code.
    pub in_test: bool,
    /// `impl`-qualified name of the enclosing fn, if any.
    pub in_fn: Option<String>,
    /// The identifier immediately wrapping this path in a call, when the
    /// head is directly preceded by `ident(` — e.g. `PhaseEntered` for
    /// `PhaseEntered(PhaseId::Restore)`.
    pub wrapping_call: Option<String>,
}

/// Everything the symbol graph keeps about one file.
pub struct FileSyms {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Enum definitions.
    pub enums: Vec<EnumDef>,
    /// Function definitions.
    pub fns: Vec<FnSig>,
    /// Call sites.
    pub calls: Vec<CallSite>,
    /// Capitalized two-segment path uses.
    pub paths: Vec<PathUse>,
    /// Spans of `Ident { … }` brace groups, for struct-literal containment
    /// queries (e.g. "inside a `MigrationAborted { … }` literal").
    pub braces_after_ident: Vec<(String, usize, usize)>,
    /// Every identifier named in non-test code outside `use` declarations,
    /// except the name token of a `fn` definition and field names (labels
    /// `x:` and accesses `.x` that are not calls): calls, method calls and
    /// paths alike. A mention whose type the tokens tell is kept with it
    /// (`Foo::bar` for `.map(Foo::bar)`, `Self::bar()` or `self.bar()`
    /// inside `impl Foo`); every other is its bare name.
    pub mentions: BTreeSet<String>,
}

const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "assert_matches",
    "matches",
];

/// Keywords that can immediately precede a `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "as", "move", "fn", "let", "else", "loop",
];

impl FileSyms {
    /// Run the parser pass over an already-lexed file.
    pub fn from_ctx(ctx: &FileCtx<'_>) -> FileSyms {
        let toks = &ctx.toks;
        let pattern_spans = pattern_spans(toks);
        let assert_spans = macro_spans(toks, ASSERT_MACROS);
        let in_span =
            |spans: &[(usize, usize)], i: usize| spans.iter().any(|&(a, b)| a <= i && i <= b);

        let mut enums = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("enum") || ctx.in_test[i] {
                continue;
            }
            let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
                continue;
            };
            // Body: first `{` (generics between name and body are skipped by
            // angle tracking, like fn_sites).
            let mut j = i + 2;
            let mut angle = 0i32;
            let open = loop {
                match toks.get(j).map(|t| &t.kind) {
                    Some(TokKind::Punct('<')) => angle += 1,
                    Some(TokKind::Punct('>')) => angle -= 1,
                    Some(TokKind::Open('{')) if angle <= 0 => break Some(j),
                    Some(TokKind::Punct(';')) => break None,
                    Some(_) => {}
                    None => break None,
                }
                j += 1;
            };
            let Some(open) = open else { continue };
            let Some(close) = matching_close(toks, open) else {
                continue;
            };
            enums.push(EnumDef {
                name: name_tok.text.clone(),
                line: t.line,
                variants: enum_variants(toks, open, close),
            });
        }

        let mut fns = Vec::new();
        for site in fn_sites(toks) {
            let qual_name = ctx.qualified_fn(site.fn_kw, &site.name);
            fns.push(FnSig {
                bare_name: site.name,
                params: param_names(toks, site.params),
                line: toks[site.fn_kw].line,
                in_test: ctx.in_test[site.fn_kw],
                is_pub: is_pub(toks, site.fn_kw),
                body: site.body,
                qual_name,
            });
        }

        let mut calls = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident
                || NON_CALL_KEYWORDS.contains(&t.text.as_str())
                || !matches!(toks.get(i + 1).map(|n| &n.kind), Some(TokKind::Open('(')))
            {
                continue;
            }
            // Definitions are not calls.
            if i > 0 && toks[i - 1].is_ident("fn") {
                continue;
            }
            let Some(close) = matching_close(toks, i + 1) else {
                continue;
            };
            let callee_qual = (i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].kind == TokKind::Ident)
                .then(|| toks[i - 3].text.clone());
            calls.push(CallSite {
                callee: t.text.clone(),
                callee_qual,
                args: split_args(toks, i + 1, close)
                    .into_iter()
                    .map(|span| arg_shape(toks, span))
                    .collect(),
                line: t.line,
                in_test: ctx.in_test[i],
                caller: ctx.fn_of[i].clone(),
            });
        }

        let mut paths = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident
                || !t.text.starts_with(|c: char| c.is_ascii_uppercase())
                || !toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                || !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            {
                continue;
            }
            let Some(seg) = toks.get(i + 3).filter(|n| {
                n.kind == TokKind::Ident && n.text.starts_with(|c: char| c.is_ascii_uppercase())
            }) else {
                continue;
            };
            let wrapping_call = (i >= 2
                && matches!(toks[i - 1].kind, TokKind::Open('('))
                && toks[i - 2].kind == TokKind::Ident)
                .then(|| toks[i - 2].text.clone());
            paths.push(PathUse {
                head: t.text.clone(),
                seg: seg.text.clone(),
                idx: i,
                line: t.line,
                in_pattern: in_span(&pattern_spans, i),
                in_assert: in_span(&assert_spans, i),
                in_test: ctx.in_test[i],
                in_fn: ctx.fn_of[i].clone(),
                wrapping_call,
            });
        }

        let mut braces_after_ident = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && t.text.starts_with(|c: char| c.is_ascii_uppercase())
                && matches!(toks.get(i + 1).map(|n| &n.kind), Some(TokKind::Open('{')))
            {
                if let Some(close) = matching_close(toks, i + 1) {
                    braces_after_ident.push((t.text.clone(), i + 1, close));
                }
            }
        }

        // `use` declarations name a fn without using it (a re-export keeps
        // nothing alive by itself), so they are skipped to their `;`. Field
        // names are skipped too: they share a getter's name without calling
        // it.
        let mut mentions = BTreeSet::new();
        let mut in_use = false;
        for (i, t) in toks.iter().enumerate() {
            if in_use {
                in_use = !t.is_punct(';');
            } else if t.is_ident("use") {
                in_use = true;
            } else if t.kind == TokKind::Ident && !ctx.in_test[i] && mentions_fn(toks, i) {
                mentions.insert(match mention_type(ctx, i) {
                    Some(ty) => format!("{ty}::{}", t.text),
                    None => t.text.clone(),
                });
            }
        }

        FileSyms {
            path: ctx.path.to_string(),
            enums,
            fns,
            calls,
            paths,
            braces_after_ident,
            mentions,
        }
    }

    /// The enum named `name` defined in this file, if any.
    pub fn enum_def(&self, name: &str) -> Option<&EnumDef> {
        self.enums.iter().find(|e| e.name == name)
    }

    /// The fn with `impl`-qualified name `qual`, if defined in this file.
    pub fn fn_def(&self, qual: &str) -> Option<&FnSig> {
        self.fns.iter().find(|f| f.qual_name == qual)
    }

    /// Whether token index `i` falls inside an `Ident { … }` group whose
    /// identifier is `name`.
    pub fn inside_brace_literal(&self, name: &str, i: usize) -> bool {
        self.braces_after_ident
            .iter()
            .any(|(n, a, b)| n == name && *a <= i && i <= *b)
    }
}

/// Whether the `fn` keyword at `fn_kw` is declared `pub` or `pub(…)`,
/// looking back past `const`/`async`/`unsafe`/`extern "abi"` qualifiers.
fn is_pub(toks: &[Tok], fn_kw: usize) -> bool {
    let qualifier = |t: &Tok| {
        t.kind == TokKind::Lit
            || ["const", "async", "unsafe", "extern"]
                .iter()
                .any(|q| t.is_ident(q))
    };
    let Some(k) = toks[..fn_kw].iter().rposition(|t| !qualifier(t)) else {
        return false;
    };
    if toks[k].kind == TokKind::Close(')') {
        // `pub(crate)`, `pub(super)`, `pub(in path)`.
        return toks[..k]
            .iter()
            .rposition(|t| t.kind == TokKind::Open('('))
            .is_some_and(|open| open > 0 && toks[open - 1].is_ident("pub"));
    }
    toks[k].is_ident("pub")
}

/// Whether the identifier at `i` may name a fn without defining it: it is
/// not the name of a `fn` definition, nor a field label (`x:`, one colon),
/// nor a field access (`.x` followed by neither `(` nor `::`).
fn mentions_fn(toks: &[Tok], i: usize) -> bool {
    let colon_at = |k: usize| toks.get(k).is_some_and(|t| t.is_punct(':'));
    let path = colon_at(i + 1) && colon_at(i + 2);
    let label = colon_at(i + 1) && !path;
    let call = toks
        .get(i + 1)
        .is_some_and(|t| t.kind == TokKind::Open('('));
    let defined = i > 0 && toks[i - 1].is_ident("fn");
    let access = i > 0 && toks[i - 1].is_punct('.') && !call && !path;
    !(defined || label || access)
}

/// The type whose fn the mention at `i` names, where the tokens tell: the
/// capitalized segment of a `Type::name` path (`Self` read as the enclosing
/// `impl`'s type), or the enclosing `impl`'s type for `self.name`. `None`
/// for every other mention: a bare name, a method call on anything but
/// `self`, a lowercase (module) segment, or `Self`/`self` outside an `impl`.
fn mention_type(ctx: &FileCtx<'_>, i: usize) -> Option<String> {
    let toks = &ctx.toks;
    if i >= 2 && toks[i - 1].is_punct('.') && toks[i - 2].is_ident("self") {
        return ctx.impl_of[i].clone();
    }
    if i < 3 || !toks[i - 1].is_punct(':') || !toks[i - 2].is_punct(':') {
        return None;
    }
    let seg = &toks[i - 3];
    if seg.kind != TokKind::Ident || !seg.text.starts_with(|c: char| c.is_ascii_uppercase()) {
        return None;
    }
    if seg.text == "Self" {
        return ctx.impl_of[i].clone();
    }
    Some(seg.text.clone())
}

/// Variant names of an enum body span (top-level identifiers, attributes
/// and doc comments skipped, payloads and discriminants consumed).
fn enum_variants(toks: &[Tok], open: usize, close: usize) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut j = open + 1;
    while j < close {
        match &toks[j].kind {
            TokKind::DocOuter | TokKind::DocInner => j += 1,
            TokKind::Punct('#')
                if matches!(toks.get(j + 1).map(|t| &t.kind), Some(TokKind::Open('['))) =>
            {
                j = matching_close(toks, j + 1).map_or(close, |c| c + 1);
            }
            TokKind::Ident => {
                out.push((toks[j].text.clone(), toks[j].line));
                // Consume payload/discriminant to the `,` at variant level.
                j += 1;
                let mut depth = 0i32;
                while j < close {
                    match toks[j].kind {
                        TokKind::Open(_) => depth += 1,
                        TokKind::Close(_) => depth -= 1,
                        TokKind::Punct(',') if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    out
}

/// Classify one argument span for the clock-dataflow rule.
fn arg_shape(toks: &[Tok], (start, end): (usize, usize)) -> ArgShape {
    let span = &toks[start..=end];
    if span.len() == 1 && span[0].kind == TokKind::Ident {
        return ArgShape::Ident(span[0].text.clone());
    }
    // A clock constant: mentions `SimTime::ZERO` or `SimTime::from_*`, and
    // involves no variable (every identifier is SimTime / ZERO / from_* or a
    // path segment such as `dvelm_sim::`).
    let mentions_clock = span.windows(4).any(|w| {
        w[0].is_ident("SimTime")
            && w[1].is_punct(':')
            && w[2].is_punct(':')
            && w[3].kind == TokKind::Ident
            && (w[3].text == "ZERO" || w[3].text.starts_with("from_"))
    });
    let no_variables = span.iter().enumerate().all(|(k, t)| {
        t.kind != TokKind::Ident
            || t.text == "SimTime"
            || t.text == "ZERO"
            || t.text.starts_with("from_")
            || span.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && span.get(k + 2).is_some_and(|n| n.is_punct(':'))
    });
    if mentions_clock && no_variables {
        ArgShape::ClockConst
    } else {
        ArgShape::Other
    }
}

/// Parameters of a fn's parenthesized parameter group, `self` receivers
/// excluded, pattern parameters reported as `_`.
fn param_names(toks: &[Tok], (open, close): (usize, usize)) -> Vec<Param> {
    let mut out = Vec::new();
    let mut j = open + 1;
    while j < close {
        // One parameter: up to the `,` at parameter level.
        let start = j;
        let mut depth = 0i32;
        let mut angle = 0i32;
        while j < close {
            match toks[j].kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => depth -= 1,
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle -= 1,
                TokKind::Punct(',') if depth == 0 && angle <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        let param = &toks[start..j];
        j += 1; // past the comma
                // Skip attributes at the front of the parameter.
        let mut k = 0usize;
        while k < param.len()
            && param[k].is_punct('#')
            && matches!(param.get(k + 1).map(|t| &t.kind), Some(TokKind::Open('[')))
        {
            match matching_close(param, k + 1) {
                Some(c) => k = c + 1,
                None => break,
            }
        }
        let rest = &param[k..];
        if rest.is_empty() {
            continue;
        }
        // A receiver: any leading run of `&`, lifetimes and `mut` ending in
        // `self` is skipped entirely.
        let mut r = 0usize;
        while r < rest.len()
            && (rest[r].is_punct('&')
                || rest[r].kind == TokKind::Lifetime
                || rest[r].is_ident("mut"))
        {
            r += 1;
        }
        if rest.get(r).is_some_and(|t| t.is_ident("self")) {
            continue;
        }
        // `mut name: Type` / `name: Type`; anything else (tuple or struct
        // patterns) binds no single name.
        let mut n = 0usize;
        if rest.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        let name = match rest.get(n) {
            Some(t)
                if t.kind == TokKind::Ident && rest.get(n + 1).is_some_and(|c| c.is_punct(':')) =>
            {
                t.text.clone()
            }
            _ => "_".to_string(),
        };
        let clock_typed = rest.iter().skip(n + 1).any(|t| t.is_ident("SimTime"));
        out.push(Param { name, clock_typed });
    }
    out
}

/// Argument token spans of a call's parenthesized group, split at
/// top-level commas. Empty argument lists yield no spans.
fn split_args(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = open + 1;
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(close).skip(open + 1) {
        match t.kind {
            TokKind::Open(_) => depth += 1,
            TokKind::Close(_) => depth -= 1,
            TokKind::Punct(',') if depth == 0 => {
                if start < j {
                    out.push((start, j - 1));
                }
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < close {
        out.push((start, close - 1));
    }
    out
}

/// Spans of pattern positions: match arm patterns (pattern start to the
/// `=>`) and `let`/`if let`/`while let` patterns (`let` to the `=`).
fn pattern_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("match") {
            if let Some(open) = match_body(toks, i) {
                if let Some(close) = matching_close(toks, open) {
                    for (pat, arrow) in arms(toks, open, close) {
                        spans.push((pat, arrow.saturating_sub(1)));
                    }
                }
            }
        } else if t.is_ident("let") {
            // `let PATTERN = …;` — the pattern runs to the `=` at depth 0
            // (stop at `;` or an `else` for safety on `let … else`).
            let mut depth = 0i32;
            for (j, tk) in toks.iter().enumerate().skip(i + 1) {
                match tk.kind {
                    TokKind::Open(_) => depth += 1,
                    TokKind::Close(_) if depth == 0 => break,
                    TokKind::Close(_) => depth -= 1,
                    TokKind::Punct('=') if depth == 0 => {
                        if j > i + 1 {
                            spans.push((i + 1, j - 1));
                        }
                        break;
                    }
                    TokKind::Punct(';') if depth == 0 => break,
                    _ => {}
                }
            }
        }
    }
    spans
}

/// Spans of `name!(…)` / `name![…]` / `name!{…}` macro invocations for the
/// given macro names.
fn macro_spans(toks: &[Tok], names: &[&str]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && names.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && matches!(toks.get(i + 2).map(|n| &n.kind), Some(TokKind::Open(_)))
        {
            if let Some(close) = matching_close(toks, i + 2) {
                spans.push((i, close));
            }
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(path: &str, src: &str) -> FileSyms {
        FileSyms::from_ctx(&FileCtx::new(path, src))
    }

    #[test]
    fn enum_variants_with_payloads_and_attrs() {
        let s = syms(
            "crates/core/src/x.rs",
            "enum E {\n A,\n #[doc(hidden)] B(u8, Vec<u8>),\n /// doc\n C { x: u8 },\n D = 4,\n}",
        );
        let e = s.enum_def("E").unwrap();
        let names: Vec<&str> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["A", "B", "C", "D"]);
        assert_eq!(e.variants[1].1, 3);
    }

    #[test]
    fn fn_params_skip_self_and_mut() {
        let s = syms(
            "crates/core/src/x.rs",
            "impl T { fn f(&mut self, mut now: SimTime, n: u8, (a, b): (u8, u8)) {} }",
        );
        let f = s.fn_def("T::f").unwrap();
        let names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["now", "n", "_"]);
        assert!(f.params[0].clock_typed);
        assert!(!f.params[1].clock_typed);
        assert_eq!(f.bare_name, "f");
    }

    #[test]
    fn call_sites_resolve_qualifier_and_args() {
        let s = syms(
            "crates/core/src/x.rs",
            "fn g() { LoadInfo::new(NodeId(3), x, SimTime::ZERO); self.step(a, b); }",
        );
        let new_call = s.calls.iter().find(|c| c.callee == "new").unwrap();
        assert_eq!(new_call.callee_qual.as_deref(), Some("LoadInfo"));
        assert_eq!(
            new_call.args,
            [
                ArgShape::Other,
                ArgShape::Ident("x".into()),
                ArgShape::ClockConst
            ]
        );
        assert_eq!(new_call.caller.as_deref(), Some("g"));
        let step = s.calls.iter().find(|c| c.callee == "step").unwrap();
        assert!(step.callee_qual.is_none());
        assert_eq!(step.args.len(), 2);
    }

    #[test]
    fn clock_const_shapes() {
        let s = syms(
            "crates/core/src/x.rs",
            "fn g() { f(SimTime::from_secs(3)); f(now.max(SimTime::ZERO)); f(0); \
             f(dvelm_sim::SimTime::ZERO); }",
        );
        let shapes: Vec<&ArgShape> = s
            .calls
            .iter()
            .filter(|c| c.callee == "f")
            .map(|c| &c.args[0])
            .collect();
        // A pure from_secs literal is a clock constant, and so is a
        // crate-qualified ZERO; mixing in a variable (`now.max(…)`) is not; a
        // bare numeric literal is not SimTime-typed.
        assert_eq!(
            shapes,
            [
                &ArgShape::ClockConst,
                &ArgShape::Other,
                &ArgShape::Other,
                &ArgShape::ClockConst
            ]
        );
    }

    #[test]
    fn path_uses_classified_by_position() {
        let src = "fn f(e: E) { match e { E::A => {}\n E::B => g(E::C), } \
                   assert_eq!(x, E::D); let E::A = e else { return }; }";
        let s = syms("crates/core/src/x.rs", src);
        let find = |seg: &str| s.paths.iter().find(|p| p.seg == seg).unwrap();
        assert!(find("A").in_pattern);
        assert!(find("B").in_pattern);
        assert!(!find("C").in_pattern);
        assert!(!find("C").in_assert);
        assert!(find("D").in_assert);
        assert!(!find("D").in_pattern);
        let let_a = s
            .paths
            .iter()
            .filter(|p| p.seg == "A")
            .nth(1)
            .expect("the let-else pattern use");
        assert!(let_a.in_pattern);
    }

    #[test]
    fn wrapping_call_names_the_direct_wrapper() {
        let s = syms(
            "crates/core/src/x.rs",
            "fn f() { sink.emit(now, Effect::PhaseEntered(PhaseId::Restore)); }",
        );
        let phase = s
            .paths
            .iter()
            .find(|p| p.head == "PhaseId" && p.seg == "Restore")
            .unwrap();
        assert_eq!(phase.wrapping_call.as_deref(), Some("PhaseEntered"));
        let effect = s
            .paths
            .iter()
            .find(|p| p.head == "Effect" && p.seg == "PhaseEntered")
            .unwrap();
        assert!(effect.wrapping_call.is_none());
    }

    #[test]
    fn brace_literal_containment() {
        let s = syms(
            "crates/core/src/x.rs",
            "fn f() { emit(MigrationAborted { phase: PhaseId::Restore, reason });\n\
             let x = PhaseId::Start; }",
        );
        let inside = s.paths.iter().find(|p| p.seg == "Restore").unwrap();
        assert!(s.inside_brace_literal("MigrationAborted", inside.idx));
        let outside = s.paths.iter().find(|p| p.seg == "Start").unwrap();
        assert!(!s.inside_brace_literal("MigrationAborted", outside.idx));
    }
}
