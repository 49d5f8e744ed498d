//! The semantic rules (R7–R9): workspace-wide invariants over the
//! [`SymbolGraph`]. Each rule is a pure function appending [`Diagnostic`]s,
//! mirroring the lexical rules in [`crate::rules`]; the dispatch specs
//! (which enum must be routed by which fn) live here next to the rules they
//! configure.
//!
//! Every spec is pinned to the enum's defining file: when that file is
//! absent from the walked set (a fixture mini-root, a partial checkout) the
//! rule skips silently, but when the enum exists and a declared handler fn
//! is missing the rule errors — renaming a dispatcher away does not silence
//! the check.

use crate::graph::SymbolGraph;
use crate::Diagnostic;

/// One fn that must name every variant of a dispatched enum.
struct Handler {
    /// Repo-relative path of the file defining the handler.
    file: &'static str,
    /// `impl`-qualified fn name.
    fn_qual: &'static str,
}

/// One enum whose variants must be fully routed.
struct DispatchSpec {
    /// The enum's name.
    enum_name: &'static str,
    /// The file defining it (pins resolution).
    enum_file: &'static str,
    /// Every fn that must have an arm per variant.
    handlers: &'static [Handler],
}

/// The effect-pipeline dispatch map: each cross-layer enum and the switch
/// points that must stay exhaustive *in the semantic sense* — R3 already
/// bans wildcard arms lexically; R7 proves each variant is actually named
/// in each dispatcher and actually constructed somewhere.
const DISPATCH_SPECS: &[DispatchSpec] = &[
    DispatchSpec {
        enum_name: "Effect",
        enum_file: "crates/core/src/effect.rs",
        handlers: &[
            Handler {
                file: "crates/cluster/src/world.rs",
                fn_qual: "World::apply_effect",
            },
            Handler {
                file: "crates/metrics/src/trace.rs",
                fn_qual: "TraceRecorder::observe",
            },
        ],
    },
    DispatchSpec {
        enum_name: "LbEffect",
        enum_file: "crates/lb/src/conductor.rs",
        handlers: &[Handler {
            file: "crates/cluster/src/world.rs",
            fn_qual: "World::apply_lb_effects",
        }],
    },
    DispatchSpec {
        enum_name: "Fault",
        enum_file: "crates/faults/src/lib.rs",
        handlers: &[Handler {
            file: "crates/cluster/src/world.rs",
            fn_qual: "World::inject_fault",
        }],
    },
];

/// The abort-row spec: where the engine lives, where the phase/reason enums
/// live, and which matrix tests must assert each emittable reason.
const R8_ENGINE_FILE: &str = "crates/core/src/engine.rs";
const R8_ENUM_FILE: &str = "crates/core/src/effect.rs";
const R8_TEST_FILES: &[&str] = &[
    "tests/fault_matrix.rs",
    "tests/overload_matrix.rs",
    "tests/partition_matrix.rs",
];

/// Crates R9 watches: the simulation family plus the experiment driver
/// (`dve`), where a constant clock at an experiment origin is exactly as
/// wrong as one in the TTL hot path.
const R9_SCOPE: &[&str] = &[
    "crates/sim/",
    "crates/core/",
    "crates/stack/",
    "crates/cluster/",
    "crates/lb/",
    "crates/dve/",
];

/// Run every semantic rule over the workspace graph.
pub fn run(graph: &SymbolGraph, out: &mut Vec<Diagnostic>) {
    r7_effect_coverage(graph, out);
    r8_abort_rows(graph, out);
    r9_clock_dataflow(graph, out);
}

/// R7 `effect-coverage`: every variant of a dispatched enum (`Effect`,
/// `LbEffect`, `Fault`) must be named in each of its dispatch fns
/// (`World::apply_effect` + `TraceRecorder::observe`, `World::apply_lb_effects`,
/// `World::inject_fault`), and must be constructed somewhere in the
/// workspace (src or tests) — a variant nobody builds is dead weight that
/// still costs every dispatcher an arm.
///
/// Lineage: PR 3's capture-pressure misattribution hid behind a wildcard
/// dispatch arm. R3 bans the wildcard lexically; R7 closes the cross-file
/// half — an `Effect` variant added in `core` cannot ship until `cluster`'s
/// `World::apply_effect` and `metrics`' `TraceRecorder::observe` both route
/// it by name.
///
/// Bad (missing arm — `Effect::QueuePressure` constructed in core, but the
/// dispatcher never names it):
/// ```text
/// // core:    sink.emit(now, Effect::QueuePressure { dropped });
/// // cluster: match effect { Effect::Shipped { .. } => …, /* no QueuePressure arm */ }
/// ```
/// Good: every dispatcher names the variant, even if only to record it:
/// ```text
/// // cluster: Effect::QueuePressure { .. } => {} // trace-only
/// ```
/// Dead-variant bad: `enum Effect { …, Aborted }` with no `Effect::Aborted`
/// construction anywhere — delete the variant or build it.
pub fn r7_effect_coverage(graph: &SymbolGraph, out: &mut Vec<Diagnostic>) {
    for spec in DISPATCH_SPECS {
        let Some(def) = graph.enum_at(spec.enum_file, spec.enum_name) else {
            continue;
        };
        let census = graph.constructions(spec.enum_name);
        for handler in spec.handlers {
            let Some(file) = graph.file(handler.file) else {
                continue;
            };
            let Some(mentioned) =
                graph.mentions_in_fn(handler.file, handler.fn_qual, spec.enum_name)
            else {
                out.push(Diagnostic {
                    rule: "R7",
                    name: "effect-coverage",
                    path: handler.file.to_string(),
                    line: 1,
                    key: format!("fn:{}", handler.fn_qual),
                    msg: format!(
                        "dispatch fn `{}` not found in {}; R7 cannot verify `{}` coverage without it",
                        handler.fn_qual, handler.file, spec.enum_name
                    ),
                });
                continue;
            };
            let handler_line = file.fn_def(handler.fn_qual).map(|d| d.line).unwrap_or(1);
            for (variant, vline) in &def.variants {
                if !mentioned.contains(variant) {
                    let origin = match census.get(variant) {
                        Some(site) => format!("constructed at {}:{}", site.path, site.line),
                        None => format!("defined at {}:{vline}", spec.enum_file),
                    };
                    out.push(Diagnostic {
                        rule: "R7",
                        name: "effect-coverage",
                        path: handler.file.to_string(),
                        line: handler_line,
                        key: format!("variant:{}::{variant}", spec.enum_name),
                        msg: format!(
                            "`{}::{variant}` ({origin}) has no arm in `{}`; route the variant explicitly",
                            spec.enum_name, handler.fn_qual
                        ),
                    });
                }
            }
        }
        for (variant, vline) in &def.variants {
            if !census.contains_key(variant) {
                out.push(Diagnostic {
                    rule: "R7",
                    name: "effect-coverage",
                    path: spec.enum_file.to_string(),
                    line: *vline,
                    key: format!("variant:{}::{variant}", spec.enum_name),
                    msg: format!(
                        "`{}::{variant}` is dispatched but never constructed anywhere (src or tests); delete the dead variant or build it",
                        spec.enum_name
                    ),
                });
            }
        }
    }
}

/// R8 `abort-row`: the migration engine's phase machine must stay
/// abort-complete, and its abort vocabulary must stay test-asserted.
///
/// * Every `PhaseId` the engine enters (an `Effect::PhaseEntered(PhaseId::…)`
///   emission in `crates/core/src/engine.rs`) must have an abort row: the
///   same `PhaseId` named inside an `abort_*` fn or inside a
///   `MigrationAborted { … }` literal — otherwise a fault landing in that
///   phase has no compensation path.
/// * Every `AbortReason` variant live code can emit (constructed outside
///   test code) must be named in at least one assertion in the matrix tests
///   (`tests/fault_matrix.rs`, `tests/overload_matrix.rs`,
///   `tests/partition_matrix.rs`) — the abort row is only *stated* once a
///   test pins it.
///
/// Lineage: the fault/overload matrices exist because aborts are where
/// migration state can leak (PR 4's torn-restore bug); a new strategy
/// (ROADMAP items 3/4) adding a phase or reason without its abort rows
/// stated as tests must fail lint, not soak.
///
/// Bad: the engine gains `PhaseId::Verify` (emits
/// `Effect::PhaseEntered(PhaseId::Verify)`) but no `abort_*` fn and no
/// `MigrationAborted { phase: PhaseId::Verify, … }` names it.
/// Good: `fn abort_verify(…)` handles it, and the matrix tests assert the
/// reason it can abort with:
/// ```text
/// assert_eq!(outcome.reason, AbortReason::VerifyFailed);
/// ```
pub fn r8_abort_rows(graph: &SymbolGraph, out: &mut Vec<Diagnostic>) {
    let Some(engine) = graph.file(R8_ENGINE_FILE) else {
        return;
    };
    if let Some(phases) = graph.enum_at(R8_ENUM_FILE, "PhaseId") {
        // Phases entered: Effect::PhaseEntered(PhaseId::V) emissions.
        let mut entered: Vec<(&str, u32)> = Vec::new();
        for p in &engine.paths {
            if p.head == "PhaseId"
                && !p.in_test
                && p.wrapping_call.as_deref() == Some("PhaseEntered")
                && !entered.iter().any(|(v, _)| *v == p.seg)
            {
                entered.push((&p.seg, p.line));
            }
        }
        // Abort rows: the phase named in an abort_* fn or a MigrationAborted
        // literal.
        let has_abort_row = |variant: &str| {
            engine.paths.iter().any(|p| {
                p.head == "PhaseId"
                    && p.seg == variant
                    && !p.in_test
                    && (p.in_fn.as_deref().is_some_and(|f| {
                        f.rsplit("::")
                            .next()
                            .is_some_and(|b| b.starts_with("abort"))
                    }) || engine.inside_brace_literal("MigrationAborted", p.idx))
            })
        };
        for (variant, line) in entered {
            // Defensive: only variants the enum actually declares.
            if !phases.variants.iter().any(|(v, _)| v == variant) {
                continue;
            }
            if !has_abort_row(variant) {
                out.push(Diagnostic {
                    rule: "R8",
                    name: "abort-row",
                    path: R8_ENGINE_FILE.to_string(),
                    line,
                    key: format!("phase:PhaseId::{variant}"),
                    msg: format!(
                        "`PhaseId::{variant}` is entered here but has no abort row: no `abort_*` fn and no `MigrationAborted` literal in the engine names it"
                    ),
                });
            }
        }
    }
    if let Some(reasons) = graph.enum_at(R8_ENUM_FILE, "AbortReason") {
        let emittable = graph.constructions_src("AbortReason");
        let asserted = graph.asserted_variants(R8_TEST_FILES, "AbortReason");
        for (variant, _) in &reasons.variants {
            let Some(site) = emittable.get(variant) else {
                continue;
            };
            if !asserted.contains(variant) {
                out.push(Diagnostic {
                    rule: "R8",
                    name: "abort-row",
                    path: site.path.clone(),
                    line: site.line,
                    key: format!("reason:AbortReason::{variant}"),
                    msg: format!(
                        "`AbortReason::{variant}` can be emitted here but no assertion in {} names it; state the abort row as a test",
                        R8_TEST_FILES.join("/")
                    ),
                });
            }
        }
    }
}

/// R9 `clock-dataflow`: no compile-time clock constant (`SimTime::ZERO`,
/// `SimTime::from_*(<literal>)`) may be passed — directly or any number of
/// call hops away — into a parameter that carries the sim clock.
///
/// A parameter carries the clock when it is SimTime-typed and named
/// `now`/`at`, or when the callee passes it on into such a parameter
/// (computed as a call-graph fixpoint in [`SymbolGraph`]). A call site is
/// flagged only when *every* definition the call can bind to agrees the
/// position is clock-carrying, so ambiguous method names never false-
/// positive.
///
/// Lineage: PR 3's stale-clock bug fed `SimTime::ZERO` into the xlate TTL
/// path through a clock-less `install` wrapper. R9 catches that invented
/// clock where it is passed, whether the clock-threaded call is the next
/// frame or N hops away, in any simulation-facing crate (R2 catches the TTL
/// write that has no clock at all):
///
/// Bad (the constant is two frames from the `last_hit` write):
/// ```text
/// fn refresh_at(&mut self, now: SimTime) { self.last_hit = now; }
/// fn sweep(&mut self, t: SimTime) { self.refresh_at(t); }
/// fn tick(&mut self) { self.sweep(SimTime::ZERO); }   // flagged here
/// ```
/// Good: thread the real clock down from the event loop:
/// ```text
/// fn tick(&mut self, now: SimTime) { self.sweep(now); }
/// ```
pub fn r9_clock_dataflow(graph: &SymbolGraph, out: &mut Vec<Diagnostic>) {
    for f in graph.files() {
        if !R9_SCOPE.iter().any(|p| f.path.starts_with(p)) || SymbolGraph::is_test_file(&f.path) {
            continue;
        }
        for call in &f.calls {
            if call.in_test {
                continue;
            }
            for (pos, arg) in call.args.iter().enumerate() {
                if *arg != crate::parse::ArgShape::ClockConst
                    || !graph.call_position_tainted(call, pos)
                {
                    continue;
                }
                // Deterministic description of the callee: the first
                // candidate definition (walk order).
                let cands = graph.resolve(call, pos + 1);
                let target = cands
                    .first()
                    .map(|id| {
                        let d = graph.fn_sig(*id);
                        let file = &graph.files()[id.0];
                        format!(
                            "`{}` (param `{}`, {}:{})",
                            d.qual_name, d.params[pos].name, file.path, d.line
                        )
                    })
                    .unwrap_or_else(|| format!("`{}`", call.callee));
                out.push(Diagnostic {
                    rule: "R9",
                    name: "clock-dataflow",
                    path: f.path.clone(),
                    line: call.line,
                    key: match &call.caller {
                        Some(c) => format!("fn:{c}"),
                        None => "top".to_string(),
                    },
                    msg: format!(
                        "clock constant passed into clock-carrying position {pos} of {target}; thread the sim clock through (stale-clock bug class from PR 3, caught across calls)"
                    ),
                });
            }
        }
    }
}
