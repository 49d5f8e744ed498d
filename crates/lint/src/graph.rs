//! The workspace-wide symbol graph the semantic rules (R7–R9) run over.
//!
//! Built from one [`FileSyms`] per walked file (sources *and* integration
//! tests — the censuses need both). The graph offers exactly the queries the
//! rules consume:
//!
//! * **enum lookup** pinned to a defining file, so a fixture mini-root and
//!   the real tree resolve the same way;
//! * **construction census**: which variants of an enum are built in
//!   expression position anywhere (pattern positions never count);
//! * **mention census** inside one fn's body, for dispatch-arm coverage;
//! * **assertion census** over named test files, for abort-row coverage;
//! * **`pub` fn census**: the `pub` fns no non-test code names. A
//!   `Type::name` path (or `self.name` inside `impl Type`) keeps only that
//!   type's fn alive; any other mention (a bare call, a method call on
//!   anything but `self`, a path through a name the graph does not define)
//!   keeps every fn of that name alive; a field label or field access keeps
//!   nothing alive, so a getter named after its field cannot keep itself
//!   alive;
//! * **clock taint**: the fixpoint of "this parameter carries the sim
//!   clock", seeded by SimTime-typed parameters named `now`/`at` and
//!   propagated backwards through call sites that pass a caller's own
//!   parameter along. Resolution is conservative: a call binds to its
//!   candidate definitions by qualified path when available, else by bare
//!   name, and a position is tainted only when *every* arity-compatible
//!   candidate agrees.

use crate::parse::{ArgShape, CallSite, EnumDef, FileSyms, FnSig};
use std::collections::{BTreeMap, BTreeSet};

/// Identifies one fn definition: (file index, fn index within the file).
pub type FnId = (usize, usize);

/// One construction site of an enum variant.
#[derive(Debug, Clone)]
pub struct Site {
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Whether the site is in test code (a `#[cfg(test)]` region or an
    /// integration-test file).
    pub in_test: bool,
}

/// The workspace symbol graph. See the module docs for the query surface.
pub struct SymbolGraph {
    files: Vec<FileSyms>,
    /// bare fn name → definitions.
    by_bare: BTreeMap<String, Vec<FnId>>,
    /// `impl`-qualified fn name (`Type::name`) → definitions.
    by_qual: BTreeMap<String, Vec<FnId>>,
    /// Tainted clock positions: (fn, parameter index) pairs through which
    /// the sim clock flows.
    tainted: BTreeSet<(FnId, usize)>,
}

impl SymbolGraph {
    /// Build the graph and run the clock-taint fixpoint.
    pub fn build(files: Vec<FileSyms>) -> SymbolGraph {
        let mut by_bare: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (ni, d) in f.fns.iter().enumerate() {
                by_bare
                    .entry(d.bare_name.clone())
                    .or_default()
                    .push((fi, ni));
                by_qual
                    .entry(d.qual_name.clone())
                    .or_default()
                    .push((fi, ni));
            }
        }
        let mut g = SymbolGraph {
            files,
            by_bare,
            by_qual,
            tainted: BTreeSet::new(),
        };
        g.taint_fixpoint();
        g
    }

    /// All files, in walk order.
    pub fn files(&self) -> &[FileSyms] {
        &self.files
    }

    /// The file at `path`, if walked.
    pub fn file(&self, path: &str) -> Option<&FileSyms> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Whether `path` is an integration-test file (every token in it counts
    /// as test code even without `#[cfg(test)]`).
    pub fn is_test_file(path: &str) -> bool {
        path.starts_with("tests/") || path.contains("/tests/")
    }

    /// The enum `name` as defined in `path`, if both exist.
    pub fn enum_at(&self, path: &str, name: &str) -> Option<&EnumDef> {
        self.file(path)?.enum_def(name)
    }

    /// The fn definition behind a [`FnId`].
    pub fn fn_sig(&self, id: FnId) -> &FnSig {
        &self.files[id.0].fns[id.1]
    }

    /// Construction census: for each variant of `enum_name` built in
    /// expression position anywhere in the workspace (test code included),
    /// the first site (by walk order). Pattern positions (match arms, `let`
    /// patterns) never count as construction.
    pub fn constructions(&self, enum_name: &str) -> BTreeMap<String, Site> {
        self.constructions_impl(enum_name, true)
    }

    /// Like [`SymbolGraph::constructions`], restricted to non-test code —
    /// the sites a live simulation can actually reach.
    pub fn constructions_src(&self, enum_name: &str) -> BTreeMap<String, Site> {
        self.constructions_impl(enum_name, false)
    }

    fn constructions_impl(&self, enum_name: &str, include_tests: bool) -> BTreeMap<String, Site> {
        let mut out: BTreeMap<String, Site> = BTreeMap::new();
        for f in &self.files {
            let file_is_test = Self::is_test_file(&f.path);
            for p in &f.paths {
                let in_test = p.in_test || file_is_test;
                if p.head == enum_name && !p.in_pattern && (include_tests || !in_test) {
                    out.entry(p.seg.clone()).or_insert_with(|| Site {
                        path: f.path.clone(),
                        line: p.line,
                        in_test,
                    });
                }
            }
        }
        out
    }

    /// Variants of `enum_name` mentioned (pattern or expression) inside the
    /// body of the fn `qual_name` defined in `path`. `None` when the file
    /// exists but defines no such fn.
    pub fn mentions_in_fn(
        &self,
        path: &str,
        qual_name: &str,
        enum_name: &str,
    ) -> Option<BTreeSet<String>> {
        let f = self.file(path)?;
        let d = f.fn_def(qual_name)?;
        let (open, close) = d.body?;
        Some(
            f.paths
                .iter()
                .filter(|p| p.head == enum_name && open <= p.idx && p.idx <= close)
                .map(|p| p.seg.clone())
                .collect(),
        )
    }

    /// Variants of `enum_name` named inside an `assert!`-family or
    /// `matches!` invocation in any of `paths` (missing files skipped).
    pub fn asserted_variants(&self, paths: &[&str], enum_name: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for path in paths {
            if let Some(f) = self.file(path) {
                for p in &f.paths {
                    if p.head == enum_name && p.in_assert {
                        out.insert(p.seg.clone());
                    }
                }
            }
        }
        out
    }

    /// `pub` fn census: every `pub`/`pub(…)` fn defined in non-test code of
    /// a file `defines` accepts that no non-test code in the graph names, as
    /// `(path, line, qualified name)` in walk order. A `Type::name` mention
    /// (a path, or `self.name` inside `impl Type`) names `Type::name` when
    /// the graph defines it, and otherwise (a trait, an alias, a foreign
    /// type) every fn called `name`, as a bare call or other method call
    /// does; a same-named field (`x:`, `.x`) names nothing.
    pub fn unreferenced_pub_fns(&self, defines: impl Fn(&str) -> bool) -> Vec<(&str, u32, &str)> {
        let live: BTreeSet<&str> = self
            .files
            .iter()
            .filter(|f| !Self::is_test_file(&f.path))
            .flat_map(|f| f.mentions.iter().map(String::as_str))
            .map(|m| match m.split_once("::") {
                Some((_, bare)) if !self.by_qual.contains_key(m) => bare,
                _ => m,
            })
            .collect();
        self.files
            .iter()
            .filter(|f| !Self::is_test_file(&f.path) && defines(&f.path))
            .flat_map(|f| f.fns.iter().map(move |d| (f.path.as_str(), d)))
            .filter(|(_, d)| {
                d.is_pub
                    && !d.in_test
                    && !live.contains(d.bare_name.as_str())
                    && !live.contains(d.qual_name.as_str())
            })
            .map(|(path, d)| (path, d.line, d.qual_name.as_str()))
            .collect()
    }

    /// Whether the sim clock flows through parameter `idx` of `id`.
    pub fn is_tainted(&self, id: FnId, idx: usize) -> bool {
        self.tainted.contains(&(id, idx))
    }

    /// The candidate definitions a call site may bind to, filtered to those
    /// accepting at least `arity` parameters. Qualified calls
    /// (`Type::name(…)`) resolve by impl-qualified path first; method and
    /// bare calls fall back to every definition with that bare name.
    pub fn resolve(&self, call: &CallSite, arity: usize) -> Vec<FnId> {
        let candidates: &[FnId] = match &call.callee_qual {
            Some(q) if q.starts_with(|c: char| c.is_ascii_uppercase()) => {
                let qual = format!("{q}::{}", call.callee);
                match self.by_qual.get(&qual) {
                    Some(v) => v,
                    // Unknown type qualifier (std or foreign type): the call
                    // cannot bind to workspace definitions.
                    None => return Vec::new(),
                }
            }
            _ => match self.by_bare.get(&call.callee) {
                Some(v) => v,
                None => return Vec::new(),
            },
        };
        candidates
            .iter()
            .copied()
            .filter(|id| self.fn_sig(*id).params.len() >= arity)
            .collect()
    }

    /// Whether every candidate definition of `call` (at `arity` = the
    /// argument position + 1) carries the clock through position `pos` —
    /// and there is at least one candidate.
    pub fn call_position_tainted(&self, call: &CallSite, pos: usize) -> bool {
        let cands = self.resolve(call, pos + 1);
        !cands.is_empty() && cands.iter().all(|id| self.is_tainted(*id, pos))
    }

    /// Seed and propagate clock taint to fixpoint.
    ///
    /// Seed: any SimTime-typed parameter named exactly `now` or `at`.
    /// Propagate: if fn `F` passes its own SimTime-typed parameter `p` into
    /// a tainted position of a callee, `p` is tainted too — that is how R9
    /// sees one (or N) hops past the function that ultimately touches TTL
    /// state.
    fn taint_fixpoint(&mut self) {
        for (fi, f) in self.files.iter().enumerate() {
            for (ni, d) in f.fns.iter().enumerate() {
                for (pi, p) in d.params.iter().enumerate() {
                    if p.clock_typed && (p.name == "now" || p.name == "at") {
                        self.tainted.insert(((fi, ni), pi));
                    }
                }
            }
        }
        loop {
            let mut grew = false;
            for (fi, f) in self.files.iter().enumerate() {
                for call in &f.calls {
                    let Some(caller_qual) = &call.caller else {
                        continue;
                    };
                    // Resolve the enclosing fn within the same file.
                    let Some(ci) = f.fns.iter().position(|d| &d.qual_name == caller_qual) else {
                        continue;
                    };
                    for (pos, arg) in call.args.iter().enumerate() {
                        let ArgShape::Ident(name) = arg else { continue };
                        let Some(pi) = f.fns[ci]
                            .params
                            .iter()
                            .position(|p| &p.name == name && p.clock_typed)
                        else {
                            continue;
                        };
                        if self.tainted.contains(&((fi, ci), pi)) {
                            continue;
                        }
                        let cands = self.resolve(call, pos + 1);
                        if !cands.is_empty()
                            && cands.iter().all(|id| self.tainted.contains(&(*id, pos)))
                        {
                            self.tainted.insert(((fi, ci), pi));
                            grew = true;
                        }
                    }
                }
            }
            if !grew {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileCtx;

    fn graph(files: &[(&str, &str)]) -> SymbolGraph {
        SymbolGraph::build(
            files
                .iter()
                .map(|(p, s)| FileSyms::from_ctx(&FileCtx::new(p, s)))
                .collect(),
        )
    }

    #[test]
    fn construction_census_skips_patterns() {
        let g = graph(&[(
            "crates/core/src/x.rs",
            "enum E { A, B }\n\
             fn build() -> E { E::A }\n\
             fn route(e: E) { match e { E::A => {}\n E::B => {} } }",
        )]);
        let census = g.constructions("E");
        assert!(census.contains_key("A"), "expression use counts");
        assert!(
            !census.contains_key("B"),
            "pattern-only use is not construction"
        );
    }

    #[test]
    fn mentions_cover_both_positions() {
        let g = graph(&[(
            "crates/core/src/x.rs",
            "impl W { fn apply(&mut self, e: E) { match e { E::A => {}\n E::B => f(E::C), } } }",
        )]);
        let m = g
            .mentions_in_fn("crates/core/src/x.rs", "W::apply", "E")
            .unwrap();
        let got: Vec<&str> = m.iter().map(String::as_str).collect();
        assert_eq!(got, ["A", "B", "C"]);
    }

    #[test]
    fn taint_seeds_and_propagates_one_hop() {
        let g = graph(&[(
            "crates/stack/src/x.rs",
            "impl T {\n\
             fn refresh_at(&mut self, now: SimTime) { self.last = now; }\n\
             fn sweep(&mut self, t: SimTime) { self.refresh_at(t); }\n\
             fn index(&mut self, at: usize) { self.v[at] = 0; }\n\
             }",
        )]);
        let f = g.file("crates/stack/src/x.rs").unwrap();
        let id_of =
            |name: &str| -> FnId { (0, f.fns.iter().position(|d| d.bare_name == name).unwrap()) };
        assert!(g.is_tainted(id_of("refresh_at"), 0), "seed: now: SimTime");
        assert!(
            g.is_tainted(id_of("sweep"), 0),
            "propagated through the call"
        );
        assert!(
            !g.is_tainted(id_of("index"), 0),
            "`at: usize` is not clock-typed"
        );
    }

    #[test]
    fn ambiguous_bare_names_need_every_candidate_tainted() {
        let g = graph(&[
            (
                "crates/stack/src/a.rs",
                "impl A { fn set(&mut self, now: SimTime) {} }",
            ),
            (
                "crates/stack/src/b.rs",
                "impl B { fn set(&mut self, level: u8) {} }\n\
                 fn f(s: &mut S, t: SimTime) { s.set(t); }",
            ),
        ]);
        let f = g.file("crates/stack/src/b.rs").unwrap();
        let fid = (1, f.fns.iter().position(|d| d.bare_name == "f").unwrap());
        assert!(
            !g.is_tainted(fid, 1),
            "a method call that may bind to a non-clock fn must not taint"
        );
    }
}
