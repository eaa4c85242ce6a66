//! Incremental re-analysis across app updates.
//!
//! The paper's introduction motivates GPU acceleration with update
//! pressure: *"most popular Apps update weekly or even daily."* Successive
//! versions share most of their code, and SBDA gives a natural incremental
//! unit: a method's facts depend only on its own body and its callees'
//! summaries. This module re-analyzes an updated program by solving, in
//! bottom-up order, only
//!
//! * methods whose bodies changed, and
//! * methods whose (transitive) callees' *summaries* changed —
//!
//! reusing the previous run's facts for everything else. The result is
//! bit-identical to a from-scratch analysis (tested), typically at a small
//! fraction of the work.

use crate::fact::MethodSpace;
use crate::solver::{solve_method, AppAnalysis, StoreKind, WorklistTelemetry};
use crate::store::{FactStore, Geometry, MatrixStore};
use crate::summary::{derive_summary, SummaryMap};
use gdroid_icfg::{CallGraph, CallLayers, Cfg};
use gdroid_ir::{MethodId, Program};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Work accounting of an incremental run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncrementalStats {
    /// Methods actually re-solved.
    pub resolved: usize,
    /// Methods whose previous facts and summary were reused verbatim.
    pub reused: usize,
}

/// Re-analyzes `program` (the updated version) given the previous run.
///
/// `changed` lists the methods whose bodies differ from the previous
/// version. Methods not in `changed` must be body-identical between the
/// two versions (the caller guarantees this — e.g. by diffing `.jil`
/// text); their spaces, CFGs, facts, and summaries are reused unless a
/// callee's summary changed.
pub fn analyze_app_incremental(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    prev: &AppAnalysis,
    changed: &[MethodId],
) -> (AppAnalysis, IncrementalStats) {
    let layers = CallLayers::compute(cg, roots);
    let changed_set: HashSet<MethodId> = changed.iter().copied().collect();

    let mut spaces: HashMap<MethodId, MethodSpace> = HashMap::new();
    let mut cfgs: HashMap<MethodId, Cfg> = HashMap::new();
    for mid in layers.scc_of.keys() {
        // Structure (pools, CFG) is cheap; rebuild for changed methods and
        // methods absent from the previous run, reuse otherwise.
        if changed_set.contains(mid) || !prev.spaces.contains_key(mid) {
            spaces.insert(*mid, MethodSpace::build(program, *mid));
            cfgs.insert(*mid, Cfg::build(&program.methods[*mid]));
        } else {
            spaces.insert(*mid, prev.spaces[mid].clone());
            cfgs.insert(*mid, prev.cfgs[mid].clone());
        }
    }

    let mut summaries: SummaryMap = HashMap::new();
    let mut facts: HashMap<MethodId, MatrixStore> = HashMap::new();
    let mut telemetry = WorklistTelemetry::default();
    let mut per_method: HashMap<MethodId, WorklistTelemetry> = HashMap::new();
    let mut stats = IncrementalStats::default();
    // Methods whose summary differs from the previous run (dirtiness
    // propagates to callers).
    let mut dirty: HashSet<MethodId> = HashSet::new();

    for layer_idx in 0..layers.layer_count() {
        let sccs: Vec<&[MethodId]> = layers.sccs_in(layer_idx).collect();
        for scc in sccs {
            let needs_solve = scc.iter().any(|m| {
                changed_set.contains(m)
                    || !prev.facts.contains_key(m)
                    || cg.callees_of(*m).iter().any(|c| dirty.contains(c))
            });
            if !needs_solve {
                // Reuse the previous run wholesale.
                for &mid in scc {
                    summaries.insert(mid, prev.summaries[&mid].clone());
                    facts.insert(mid, prev.facts[&mid].clone());
                    stats.reused += 1;
                }
                continue;
            }
            // Solve the SCC to its summary fixed point, as in analyze_app.
            loop {
                let mut scc_changed = false;
                for &mid in scc {
                    let space = &spaces[&mid];
                    let cfg = &cfgs[&mid];
                    let mut store = MatrixStore::new(Geometry::of(space), cfg.len());
                    let tele = solve_method(program, mid, space, cfg, &mut store, &summaries, cg);
                    telemetry.absorb(&tele);
                    per_method.entry(mid).or_default().absorb(&tele);
                    let store_ref = &store;
                    let node_facts = |n: usize| store_ref.snapshot(n);
                    let summary = derive_summary(
                        &program.methods[mid],
                        space,
                        &node_facts,
                        cfg.exit() as usize,
                    );
                    if summaries.get(&mid) != Some(&summary) {
                        scc_changed = true;
                    }
                    summaries.insert(mid, summary);
                    facts.insert(mid, store);
                }
                if !scc_changed || scc.len() == 1 && !layers.is_recursive(scc[0], cg) {
                    break;
                }
            }
            for &mid in scc {
                stats.resolved += 1;
                // Dirty iff the new summary differs from the previous run's.
                if prev.summaries.get(&mid) != summaries.get(&mid) {
                    dirty.insert(mid);
                }
            }
        }
    }

    let store_bytes = facts.values().map(|s| s.memory_bytes()).sum();
    let analysis = AppAnalysis {
        spaces,
        cfgs,
        facts,
        summaries,
        telemetry,
        per_method,
        store_bytes,
        store_kind: StoreKind::Matrix,
        schedule: layers.layers.clone(),
    };
    (analysis, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::analyze_app;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_icfg::prepare_app;
    use gdroid_ir::{Expr, JType, Lhs, Stmt};

    /// Simulates an app update: appends `x = new T` into one method whose
    /// body ends with a return, re-deriving the call graph.
    fn update_one_method(app: &gdroid_apk::App, victim: MethodId) -> Program {
        let mut program = app.program.clone();
        let method = &mut program.methods[victim];
        // Replace the final return with: alloc into the first ref var,
        // then return — a genuine data-fact change.
        let ret = method.body[gdroid_ir::StmtIdx::new(method.len() - 1)].clone();
        let ref_var = method
            .vars
            .iter_enumerated()
            .find(|(_, d)| d.ty.is_reference())
            .map(|(v, _)| v)
            .expect("method has a ref var");
        let ty = method.vars.iter().find(|d| d.ty.is_reference()).map(|d| d.ty).unwrap();
        let body = &mut method.body;
        // Overwrite the return slot with the new statement and re-append
        // the return.
        let last = gdroid_ir::StmtIdx::new(body.len() - 1);
        body[last] = Stmt::Assign { lhs: Lhs::Var(ref_var), rhs: Expr::New { ty } };
        body.push(ret);
        let _ = JType::Int;
        program.rebuild_lookups();
        program
    }

    #[test]
    fn incremental_matches_full_reanalysis() {
        let mut app = generate_app(0, 4242, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let prev = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);

        // Update a leaf-ish method.
        let victim =
            *prev.schedule.first().and_then(|l| l.first()).expect("at least one scheduled method");
        let updated = update_one_method(&app, victim);
        let cg2 = gdroid_icfg::CallGraph::build(&updated);

        let full = analyze_app(&updated, &cg2, &roots, StoreKind::Matrix);
        let (incr, stats) = analyze_app_incremental(&updated, &cg2, &roots, &prev, &[victim]);

        assert_eq!(incr.summaries, full.summaries, "summaries diverge");
        for (mid, f) in &full.facts {
            let i = &incr.facts[mid];
            for node in 0..f.node_count() {
                assert_eq!(
                    f.snapshot(node).words(),
                    i.snapshot(node).words(),
                    "facts diverge at {mid:?} node {node}"
                );
            }
        }
        assert!(stats.reused > 0, "nothing was reused");
        assert!(stats.resolved >= 1);
        assert!(
            stats.resolved < stats.resolved + stats.reused,
            "incremental run did everything from scratch"
        );
    }

    #[test]
    fn unchanged_update_reuses_everything() {
        let mut app = generate_app(0, 4243, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let prev = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
        let (incr, stats) = analyze_app_incremental(&app.program, &cg, &roots, &prev, &[]);
        assert_eq!(stats.resolved, 0);
        assert_eq!(stats.reused, prev.facts.len());
        assert_eq!(incr.summaries, prev.summaries);
    }

    #[test]
    fn dirtiness_propagates_to_callers() {
        let mut app = generate_app(0, 4244, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let prev = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);

        // Pick a method that actually has callers.
        let victim = prev
            .schedule
            .iter()
            .flatten()
            .copied()
            .find(|m| !cg.callers_of(*m).is_empty())
            .expect("some method has callers");
        let updated = update_one_method(&app, victim);
        let cg2 = gdroid_icfg::CallGraph::build(&updated);
        let full = analyze_app(&updated, &cg2, &roots, StoreKind::Matrix);
        let (incr, stats) = analyze_app_incremental(&updated, &cg2, &roots, &prev, &[victim]);
        assert_eq!(incr.summaries, full.summaries);
        // The victim was re-solved; callers only if its summary changed.
        assert!(stats.resolved >= 1);
    }
}
