//! `benchmark compare A.jsonl B.jsonl`: two sets of `run` reports, one
//! verdict per workload × end-to-end metric.
//!
//! A is the parent, B the change. The verdict follows the benchmark's
//! rules: *better* when B wins at least nine tenths of all A×B pairs and
//! the medians differ by more than A's quartile spread; *worse* when B's
//! median is worse than A's by more than the bound; *unresolved* instead of
//! worse or same when the run-to-run spread exceeds the bound, unless every
//! run of B reads worse (or better) than every run of A; *same* otherwise.

use crate::metrics::{Catalog, MetricDef};
use crate::stats::quartiles;
use dvelm_bench::json::Json;

/// Comparison outcome of one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for parent runs `a` and change runs `b` of one metric.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let [a1, am, a3] = quartiles(a);
    let [b1, bm, b3] = quartiles(b);
    // Signed so that positive always means "B is better".
    let gain = |x: f64, y: f64| if def.higher_is_better { y - x } else { x - y };
    let pairs = (a.len() * b.len()) as f64;
    let wins = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| gain(x, y)))
        .filter(|g| *g > 0.0)
        .count() as f64;
    if pairs > 0.0 && wins >= 0.9 * pairs && gain(am, bm) > a3 - a1 {
        return Verdict::Better;
    }
    let scale = am.abs().max(f64::MIN_POSITIVE);
    let spread = ((a3 - a1) / scale).max((b3 - b1) / bm.abs().max(f64::MIN_POSITIVE));
    let bound = def.bound.unwrap_or(0.0);
    let all = |pred: &dyn Fn(f64) -> bool| a.iter().all(|&x| b.iter().all(|&y| pred(gain(x, y))));
    if -gain(am, bm) > bound * scale {
        if spread <= bound || all(&|g| g < 0.0) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if spread > bound && !all(&|g| g > 0.0) {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Report lines of a JSONL file: objects that name a workload.
fn read_reports(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|j| j.get("workload").and_then(Json::as_str).is_some())
        .collect())
}

fn values(reports: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    reports
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Entry point; returns the process exit code (1 when anything is worse).
pub fn main(args: &[String]) -> i32 {
    let [a_path, b_path] = args else {
        eprintln!("usage: benchmark compare <parent.jsonl> <change.jsonl>");
        return 2;
    };
    let (a, b, catalog) = match (read_reports(a_path), read_reports(b_path), Catalog::load()) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(&b) {
        if let Some(w) = r.get("workload").and_then(Json::as_str) {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    println!(
        "{:<20} {:<26} {:>4} {:>32} {:>4} {:>32} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "A median [q1, q3]",
        "nB",
        "B median [q1, q3]",
        "delta",
        "bound"
    );
    let mut any_worse = false;
    for w in workloads {
        for def in &catalog.end_to_end {
            let (va, vb) = (values(&a, w, &def.name), values(&b, w, &def.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<20} {:<26} missing on one side", def.name);
                continue;
            }
            let [a1, am, a3] = quartiles(&va);
            let [b1, bm, b3] = quartiles(&vb);
            let v = verdict(def, &va, &vb);
            any_worse |= v == Verdict::Worse;
            println!(
                "{w:<20} {:<26} {:>4} {:>32} {:>4} {:>32} {:>7.2}% {:>5.1}%  {}",
                def.name,
                va.len(),
                format!("{am:.6} [{a1:.6}, {a3:.6}]"),
                vb.len(),
                format!("{bm:.6} [{b1:.6}, {b3:.6}]"),
                100.0 * (bm - am) / am.abs().max(f64::MIN_POSITIVE),
                100.0 * def.bound.unwrap_or(0.0),
                v.name()
            );
        }
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Identical deterministic values: same.
        assert_eq!(
            verdict(&def(false, 0.05), &[7.0; 5], &[7.0; 5]),
            Verdict::Same
        );
        // Lower is better and B is clearly lower: better.
        let b = [9.0, 9.1, 8.9, 9.0, 9.05];
        assert_eq!(verdict(&def(false, 0.05), &a, &b), Verdict::Better);
        // B 20% slower with a tight spread: worse.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&def(false, 0.05), &a, &slow), Verdict::Worse);
        // Within the bound: same.
        let near: Vec<f64> = a.iter().map(|x| x * 1.01).collect();
        assert_eq!(verdict(&def(false, 0.05), &a, &near), Verdict::Same);
        // Noisy runs wider than the bound: unresolved.
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(
            verdict(&def(false, 0.05), &noisy, &noisy),
            Verdict::Unresolved
        );
        // Higher is better: a drop beyond the bound is worse.
        let drop: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&def(true, 0.05), &a, &drop), Verdict::Worse);
    }
}
