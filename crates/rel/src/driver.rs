//! The relational analysis driver: layered kernel launches whose blocks
//! run semi-naive evaluation instead of a worklist.
//!
//! The host side is deliberately identical to the worklist driver in
//! `gdroid-core` — same layer schedule, same SCC re-launch rule, same
//! dual-buffered transfer pipeline, same host-side summary derivation —
//! so the two engines differ *only* in the device-side evaluation
//! strategy and its modeled cost. That is what makes the engine ladder in
//! `BENCH_rel.json` an apples-to-apples comparison, and it is why this
//! driver returns the same [`GpuAnalysis`] type.

use crate::kernel::run_method_rel;
use crate::layout::{plan_rel_layout, RelLayout};
use gdroid_analysis::{
    derive_summary, merge_site_summaries, FactStore, Geometry, MatrixStore, MethodSpace,
    SummaryMap, WorklistTelemetry,
};
use gdroid_core::{GpuAnalysis, GpuRunStats, WorklistProfile};
use gdroid_gpusim::{dual_buffered, Device, DeviceConfig, DeviceFault};
use gdroid_icfg::{CallGraph, CallLayers, Cfg};
use gdroid_ir::{MethodId, Program};
use std::collections::HashMap;

/// Analyzes one app relationally on a fresh simulated GPU.
pub fn rel_analyze_app(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    device_config: DeviceConfig,
) -> GpuAnalysis {
    let mut device = Device::new(device_config);
    rel_analyze_app_on(&mut device, program, cg, roots).expect("a fresh device has no fault plan")
}

/// Analyzes one app relationally on an existing, long-lived device.
pub fn rel_analyze_app_on(
    device: &mut Device,
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
) -> Result<GpuAnalysis, DeviceFault> {
    rel_analyze_app_presolved_on(device, program, cg, roots, &HashMap::new())
}

/// [`rel_analyze_app_on`] with pre-solved summary-store hits, same closure
/// contract as the worklist driver: every internal callee of a pre-solved
/// method is itself pre-solved.
pub fn rel_analyze_app_presolved_on(
    device: &mut Device,
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    presolved: &HashMap<MethodId, (gdroid_analysis::MethodSummary, MatrixStore)>,
) -> Result<GpuAnalysis, DeviceFault> {
    rel_analyze_app_restricted_on(device, program, cg, roots, presolved, None)
}

/// Sliced (demand-driven) relational analysis, same slice contract as the
/// worklist driver: caller-closed over the reachable set.
pub fn rel_analyze_app_sliced_on(
    device: &mut Device,
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    slice: &std::collections::HashSet<MethodId>,
) -> Result<GpuAnalysis, DeviceFault> {
    rel_analyze_app_restricted_on(device, program, cg, roots, &HashMap::new(), Some(slice))
}

/// [`rel_analyze_app_sliced_on`] with pre-solved hits.
pub fn rel_analyze_app_sliced_presolved_on(
    device: &mut Device,
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    presolved: &HashMap<MethodId, (gdroid_analysis::MethodSummary, MatrixStore)>,
    slice: &std::collections::HashSet<MethodId>,
) -> Result<GpuAnalysis, DeviceFault> {
    rel_analyze_app_restricted_on(device, program, cg, roots, presolved, Some(slice))
}

/// Shared driver body, mirroring the worklist driver's restricted entry.
fn rel_analyze_app_restricted_on(
    device: &mut Device,
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    presolved: &HashMap<MethodId, (gdroid_analysis::MethodSummary, MatrixStore)>,
    restrict: Option<&std::collections::HashSet<MethodId>>,
) -> Result<GpuAnalysis, DeviceFault> {
    device.reset();
    let tracer = device.tracer().clone();
    let leaf_set: std::collections::HashSet<MethodId> = presolved.keys().copied().collect();
    let layers = match restrict {
        None => CallLayers::compute_with_leaves(cg, roots, &leaf_set),
        Some(allowed) => CallLayers::compute_within_with_leaves(cg, roots, allowed, &leaf_set),
    };
    let methods: Vec<MethodId> = {
        let mut m: Vec<MethodId> =
            layers.scc_of.keys().copied().filter(|m| !leaf_set.contains(m)).collect();
        m.sort_unstable();
        m
    };
    let mut spaces: HashMap<MethodId, MethodSpace> = HashMap::new();
    let mut cfgs: HashMap<MethodId, Cfg> = HashMap::new();
    for &mid in methods.iter().chain(presolved.keys()) {
        spaces.insert(mid, MethodSpace::build(program, mid));
        cfgs.insert(mid, Cfg::build(&program.methods[mid]));
    }

    let layout: RelLayout = plan_rel_layout(device, &spaces, &cfgs, &methods);
    if tracer.enabled() {
        tracer.instant(
            "rel-driver",
            "rel-config",
            device.clock_ns(),
            0,
            vec![
                ("methods", methods.len().into()),
                ("presolved", presolved.len().into()),
                ("layers", layers.layer_count().into()),
            ],
        );
    }

    let mut summaries: SummaryMap = HashMap::new();
    let mut facts: HashMap<MethodId, MatrixStore> = HashMap::new();
    for (&mid, (summary, store)) in presolved {
        summaries.insert(mid, summary.clone());
        facts.insert(mid, store.clone());
    }
    let mut telemetry = WorklistTelemetry::default();
    let mut stats = GpuRunStats::default();
    let mut chunks: Vec<(u64, f64, u64)> = Vec::new();

    for layer_idx in 0..layers.layer_count() {
        let mut pending: Vec<MethodId> = layers
            .sccs_in(layer_idx)
            .flatten()
            .copied()
            .filter(|m| !leaf_set.contains(m))
            .collect();
        pending.sort_unstable();

        let mut round = 0usize;
        while !pending.is_empty() {
            let round_start_ns = device.clock_ns();
            let round_bytes: (u64, u64);
            let block_results: Vec<(MethodId, MatrixStore, WorklistTelemetry)>;
            {
                let inputs: Vec<(MethodId, HashMap<gdroid_ir::StmtIdx, Option<_>>)> = pending
                    .iter()
                    .map(|&mid| (mid, merge_site_summaries(program, mid, &summaries, cg)))
                    .collect();
                let results = std::cell::RefCell::new(Vec::with_capacity(pending.len()));
                let blocks: Vec<gdroid_gpusim::BlockFn<'_>> = inputs
                    .iter()
                    .map(|(mid, site)| {
                        let mid = *mid;
                        let space = &spaces[&mid];
                        let cfg = &cfgs[&mid];
                        let ml = &layout.methods[&mid];
                        let results = &results;
                        Box::new(move |ctx: &mut gdroid_gpusim::BlockCtx<'_>| {
                            let mut store = MatrixStore::new(Geometry::of(space), cfg.len());
                            store.seed(
                                cfg.entry() as usize,
                                &space.entry_facts(&program.methods[mid]),
                            );
                            let tele = run_method_rel(
                                ctx,
                                &program.methods[mid],
                                space,
                                cfg,
                                ml,
                                site,
                                &mut store,
                            );
                            results.borrow_mut().push((mid, store, tele));
                        }) as gdroid_gpusim::BlockFn<'_>
                    })
                    .collect();

                let kernel_stats = device.try_launch(blocks)?;
                let h2d: u64 = pending.iter().map(|m| layout.methods[m].h2d_bytes).sum();
                let d2h: u64 = pending.iter().map(|m| layout.methods[m].d2h_bytes).sum();
                chunks.push((h2d, kernel_stats.time_ns(&device.config), d2h));
                round_bytes = (h2d, d2h);
                stats.absorb_kernel(&kernel_stats);
                block_results = results.into_inner();
            }

            let launched = pending.len();
            let mut changed_methods: std::collections::HashSet<MethodId> =
                std::collections::HashSet::new();
            for (mid, store, tele) in block_results {
                if tracer.enabled() {
                    tracer.instant(
                        "rel-driver",
                        format!("semi-naive {mid:?}"),
                        device.clock_ns(),
                        1,
                        vec![
                            ("rounds", tele.rounds.into()),
                            ("nodes_processed", tele.nodes_processed.into()),
                            ("max_delta", tele.max_worklist.into()),
                        ],
                    );
                }
                telemetry.absorb(&tele);
                stats.record_method(&tele);
                let space = &spaces[&mid];
                let cfg = &cfgs[&mid];
                let store_ref = &store;
                let node_facts = |n: usize| store_ref.snapshot(n);
                let summary =
                    derive_summary(&program.methods[mid], space, &node_facts, cfg.exit() as usize);
                let changed = summaries.get(&mid) != Some(&summary);
                summaries.insert(mid, summary);
                facts.insert(mid, store);
                if changed {
                    changed_methods.insert(mid);
                }
            }

            pending = layers
                .sccs_in(layer_idx)
                .filter(|scc| {
                    (scc.len() > 1 || layers.is_recursive(scc[0], cg))
                        && scc.iter().any(|m| changed_methods.contains(m))
                })
                .flatten()
                .copied()
                .filter(|m| !leaf_set.contains(m))
                .collect();
            pending.sort_unstable();
            pending.dedup();
            if tracer.enabled() {
                tracer.span(
                    "rel-driver",
                    format!("layer {layer_idx} round {round}"),
                    round_start_ns,
                    device.clock_ns() - round_start_ns,
                    0,
                    vec![
                        ("methods_launched", launched.into()),
                        ("summaries_changed", changed_methods.len().into()),
                        ("h2d_bytes", round_bytes.0.into()),
                        ("d2h_bytes", round_bytes.1.into()),
                    ],
                );
            }
            round += 1;
        }
    }

    let pipeline = dual_buffered(&device.config, &chunks);
    if tracer.enabled() {
        tracer.instant(
            "rel-driver",
            "transfer-pipeline",
            device.clock_ns(),
            0,
            vec![
                ("launches", chunks.len().into()),
                ("h2d_bytes", chunks.iter().map(|c| c.0).sum::<u64>().into()),
                ("d2h_bytes", chunks.iter().map(|c| c.2).sum::<u64>().into()),
                ("exposed_copy_ns", pipeline.exposed_copy_ns.into()),
                ("total_ns", pipeline.total_ns.into()),
            ],
        );
    }
    stats.finish(pipeline, &device.config, device.heap.allocations, device.heap.bytes);
    stats.profile = WorklistProfile::from_round_sizes(&telemetry.round_sizes, telemetry.rounds);

    let sanitizer = device.san_report();
    Ok(GpuAnalysis { facts, summaries, spaces, cfgs, stats, telemetry, sanitizer })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_analysis::{analyze_app, StoreKind};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_core::{gpu_analyze_app, OptConfig};
    use gdroid_icfg::prepare_app;

    fn prepared(seed: u64) -> (gdroid_apk::App, CallGraph, Vec<MethodId>) {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        (app, cg, roots)
    }

    #[test]
    fn rel_analysis_matches_cpu_reference_exactly() {
        let (app, cg, roots) = prepared(9201);
        let cpu = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
        let rel = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny());
        assert_eq!(rel.facts.len(), cpu.facts.len());
        for (mid, cpu_store) in &cpu.facts {
            let rel_store = &rel.facts[mid];
            for node in 0..cpu_store.node_count() {
                assert_eq!(
                    cpu_store.snapshot(node).words(),
                    rel_store.snapshot(node).words(),
                    "facts differ at {mid:?} node {node}"
                );
            }
        }
        assert_eq!(rel.summaries, cpu.summaries);
    }

    #[test]
    fn rel_analysis_matches_worklist_gpu_exactly() {
        let (app, cg, roots) = prepared(9202);
        let wl =
            gpu_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny(), OptConfig::gdroid());
        let rel = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny());
        assert_eq!(rel.summaries, wl.summaries);
        for (mid, wl_store) in &wl.facts {
            assert_eq!(
                wl_store.flat_words(),
                rel.facts[mid].flat_words(),
                "facts differ at {mid:?}"
            );
        }
    }

    #[test]
    fn rel_timing_is_deterministic_and_counts_joins() {
        let (app, cg, roots) = prepared(9203);
        let a = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny());
        let b = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny());
        assert_eq!(a.stats.total_ns, b.stats.total_ns);
        assert_eq!(a.stats.join_probes, b.stats.join_probes);
        assert!(a.stats.join_probes > 0, "relational runs must probe indexes");
        assert!(a.stats.scan_rows > 0, "relational runs must scan relations");
    }

    #[test]
    fn rel_passes_the_sanitizer() {
        let (app, cg, roots) = prepared(9204);
        let rel = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny().with_sanitizer());
        let report = rel.sanitizer.expect("sanitizer was enabled");
        assert!(report.is_clean(), "sanitizer findings: {report:?}");
    }

    #[test]
    fn rel_sliced_with_full_slice_matches_full_run() {
        // The full reachable set is trivially caller-closed, so the
        // restricted schedule must reproduce the unrestricted run exactly.
        let (app, cg, roots) = prepared(9205);
        let slice: std::collections::HashSet<MethodId> =
            cg.reachable_from(&roots).into_iter().collect();
        let full = rel_analyze_app(&app.program, &cg, &roots, DeviceConfig::tiny());
        let mut device = Device::new(DeviceConfig::tiny());
        let sliced = rel_analyze_app_sliced_on(&mut device, &app.program, &cg, &roots, &slice)
            .expect("no fault plan");
        assert_eq!(sliced.summaries, full.summaries);
        assert_eq!(sliced.facts.len(), full.facts.len());
        for (mid, f) in &full.facts {
            assert_eq!(f.flat_words(), sliced.facts[mid].flat_words(), "{mid:?}");
        }
    }
}
