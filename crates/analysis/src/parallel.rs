//! The multithreaded CPU baseline — the paper's "multithreading C"
//! re-implementation of Amandroid's worklist core (§III-B1).
//!
//! Parallelism follows the same SBDA structure the GPU uses: within one
//! call-graph layer, SCCs are mutually independent and solved on a rayon
//! work-stealing pool; layers synchronize bottom-up. This is the fair CPU
//! counterpart of the GPU's one-method-per-thread-block mapping.

use crate::fact::MethodSpace;
use crate::solver::{solve_method, AppAnalysis, StoreKind, WorklistTelemetry};
use crate::store::{FactStore, Geometry, MatrixStore, SetStore};
use crate::summary::{derive_summary, SummaryMap};
use gdroid_icfg::{CallGraph, CallLayers, Cfg};
use gdroid_ir::{MethodId, Program};
use rayon::prelude::*;
use std::collections::HashMap;

/// Per-method output of one parallel solve.
struct MethodOutcome {
    mid: MethodId,
    telemetry: WorklistTelemetry,
    store: MatrixStore,
    bytes: usize,
    summary: crate::summary::MethodSummary,
}

/// Analyzes an app with layer-parallel method solving.
///
/// Functionally identical to [`crate::solver::analyze_app`] (tested); the
/// fixed thread count is reported alongside so cost models can scale.
pub fn analyze_app_parallel(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    store_kind: StoreKind,
) -> AppAnalysis {
    let layers = CallLayers::compute(cg, roots);
    let mut spaces: HashMap<MethodId, MethodSpace> = HashMap::new();
    let mut cfgs: HashMap<MethodId, Cfg> = HashMap::new();
    for mid in layers.scc_of.keys() {
        spaces.insert(*mid, MethodSpace::build(program, *mid));
        cfgs.insert(*mid, Cfg::build(&program.methods[*mid]));
    }

    let mut summaries: SummaryMap = HashMap::new();
    let mut facts: HashMap<MethodId, MatrixStore> = HashMap::new();
    let mut telemetry = WorklistTelemetry::default();
    let mut per_method: HashMap<MethodId, WorklistTelemetry> = HashMap::new();
    let mut bytes_per_method: HashMap<MethodId, usize> = HashMap::new();

    for layer_idx in 0..layers.layer_count() {
        let sccs: Vec<&[MethodId]> = layers.sccs_in(layer_idx).collect();

        // Solve all SCCs of this layer in parallel; each SCC iterates its
        // own summary fixed point internally.
        let outcomes: Vec<Vec<MethodOutcome>> = sccs
            .par_iter()
            .map(|scc| {
                let mut local_summaries: SummaryMap = summaries.clone();
                let mut results: HashMap<MethodId, MethodOutcome> = HashMap::new();
                loop {
                    let mut changed = false;
                    for &mid in scc.iter() {
                        let space = &spaces[&mid];
                        let cfg = &cfgs[&mid];
                        let geometry = Geometry::of(space);
                        let (tele, store, bytes) = match store_kind {
                            StoreKind::Matrix => {
                                let mut s = MatrixStore::new(geometry, cfg.len());
                                let t = solve_method(
                                    program,
                                    mid,
                                    space,
                                    cfg,
                                    &mut s,
                                    &local_summaries,
                                    cg,
                                );
                                let b = s.memory_bytes();
                                (t, s, b)
                            }
                            StoreKind::Set => {
                                let mut s = SetStore::new(geometry, cfg.len());
                                let t = solve_method(
                                    program,
                                    mid,
                                    space,
                                    cfg,
                                    &mut s,
                                    &local_summaries,
                                    cg,
                                );
                                let b = s.memory_bytes();
                                let mut mat = MatrixStore::new(geometry, cfg.len());
                                for node in 0..cfg.len() {
                                    let snap = s.snapshot(node);
                                    mat.union_into(node, &snap);
                                }
                                (t, mat, b)
                            }
                        };
                        let exit = cfg.exit() as usize;
                        let store_ref = &store;
                        let node_facts = |n: usize| store_ref.snapshot(n);
                        let summary =
                            derive_summary(&program.methods[mid], space, &node_facts, exit);
                        if local_summaries.get(&mid) != Some(&summary) {
                            changed = true;
                        }
                        local_summaries.insert(mid, summary.clone());
                        results.insert(
                            mid,
                            MethodOutcome { mid, telemetry: tele, store, bytes, summary },
                        );
                    }
                    let single_plain = scc.len() == 1 && !layers.is_recursive(scc[0], cg);
                    if !changed || single_plain {
                        break;
                    }
                }
                let mut v: Vec<MethodOutcome> = results.into_values().collect();
                v.sort_by_key(|o| o.mid);
                v
            })
            .collect();

        // Layer barrier: publish summaries and facts.
        for outcome in outcomes.into_iter().flatten() {
            telemetry.absorb(&outcome.telemetry);
            per_method.entry(outcome.mid).or_default().absorb(&outcome.telemetry);
            bytes_per_method.insert(outcome.mid, outcome.bytes);
            summaries.insert(outcome.mid, outcome.summary);
            facts.insert(outcome.mid, outcome.store);
        }
    }

    AppAnalysis {
        spaces,
        cfgs,
        facts,
        summaries,
        telemetry,
        per_method,
        store_bytes: bytes_per_method.values().sum(),
        store_kind,
        schedule: layers.layers.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::analyze_app;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_icfg::prepare_app;

    #[test]
    fn parallel_matches_sequential() {
        let mut app = generate_app(0, 7777, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let seq = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
        let par = analyze_app_parallel(&app.program, &cg, &roots, StoreKind::Matrix);

        assert_eq!(seq.facts.len(), par.facts.len());
        assert_eq!(seq.summaries, par.summaries);
        for (mid, s1) in &seq.facts {
            let s2 = &par.facts[mid];
            for node in 0..s1.node_count() {
                assert_eq!(
                    s1.snapshot(node).words(),
                    s2.snapshot(node).words(),
                    "facts differ at {mid:?} node {node}"
                );
            }
        }
    }

    #[test]
    fn parallel_is_deterministic() {
        let mut app = generate_app(1, 7778, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let a = analyze_app_parallel(&app.program, &cg, &roots, StoreKind::Matrix);
        let b = analyze_app_parallel(&app.program, &cg, &roots, StoreKind::Matrix);
        assert_eq!(a.total_facts(), b.total_facts());
        assert_eq!(a.summaries, b.summaries);
    }

    #[test]
    fn parallel_set_store_matches_matrix() {
        let mut app = generate_app(2, 7779, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let m = analyze_app_parallel(&app.program, &cg, &roots, StoreKind::Matrix);
        let s = analyze_app_parallel(&app.program, &cg, &roots, StoreKind::Set);
        assert_eq!(m.total_facts(), s.total_facts());
        assert_eq!(m.summaries, s.summaries);
        assert!(s.store_bytes > m.store_bytes);
    }
}
