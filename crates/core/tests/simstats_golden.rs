//! Golden digests of the simulated statistics.
//!
//! The simulator's host-side bookkeeping may be rewritten for speed, but
//! every simulated number must stay bit-identical: these digests pin every
//! `GpuRunStats` field (private accumulators included, via `Debug`) plus
//! every method's node facts, over the optimization ladder, both execution
//! modes, full, sliced and pre-solved schedules, one co-resident batch, and the
//! findings of a sanitizer-enabled run. A mismatch means a change moved a
//! simulated statistic, not just host time.

use gdroid_apk::{generate_app, App, GenConfig};
use gdroid_core::{
    gpu_analyze_app_exec_on, gpu_analyze_batch, BatchApp, ExecMode, GpuAnalysis, OptConfig,
};
use gdroid_gpusim::{Device, DeviceConfig, FindingKind};
use gdroid_icfg::{prepare_app, CallGraph, CallLayers};
use gdroid_ir::MethodId;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

const APPS: usize = 3;

/// FNV-1a over the rendered digest text.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

struct Prepared {
    app: App,
    cg: CallGraph,
    roots: Vec<MethodId>,
}

fn prepared(index: usize) -> Prepared {
    let mut app = generate_app(index, 0x601d ^ index as u64, &GenConfig::tiny());
    let (envs, cg) = prepare_app(&mut app);
    let roots = envs.iter().map(|e| e.method).collect();
    Prepared { app, cg, roots }
}

/// Stats (every field) and per-method facts, in method order.
fn render(out: &mut String, run: &GpuAnalysis) {
    writeln!(out, "{:?}", run.stats).unwrap();
    let mut methods: Vec<&MethodId> = run.facts.keys().collect();
    methods.sort_unstable();
    for m in methods {
        writeln!(out, "{m:?} {:?}", run.facts[m].flat_words()).unwrap();
    }
}

/// The leaf layer of the schedule. Leaf SCCs call only into themselves,
/// so the leaves form a callee-closed pre-solved set and the methods above
/// them a caller-closed slice.
fn leaf_layer(p: &Prepared) -> HashSet<MethodId> {
    CallLayers::compute(&p.cg, &p.roots).layers[0].iter().copied().collect()
}

fn ladder_digest() -> u64 {
    let mut out = String::new();
    for index in 0..APPS {
        let p = prepared(index);
        let leaves = leaf_layer(&p);
        let slice: HashSet<MethodId> =
            p.cg.reachable_from(&p.roots).into_iter().filter(|m| !leaves.contains(m)).collect();
        assert!(!leaves.is_empty() && !slice.is_empty());
        for opts in OptConfig::ladder() {
            for exec in [ExecMode::MultiLaunch, ExecMode::Persistent] {
                let mut device = Device::new(DeviceConfig::tiny());
                let mut run = |presolved: &HashMap<_, _>, slice: Option<&HashSet<MethodId>>| {
                    gpu_analyze_app_exec_on(
                        &mut device,
                        &p.app.program,
                        &p.cg,
                        &p.roots,
                        opts,
                        presolved,
                        slice,
                        exec,
                    )
                    .expect("no fault plan installed")
                };
                let full = run(&HashMap::new(), None);
                let sliced = run(&HashMap::new(), Some(&slice));
                let presolved: HashMap<_, _> = leaves
                    .iter()
                    .map(|m| (*m, (full.summaries[m].clone(), full.facts[m].clone())))
                    .collect();
                let presolved = run(&presolved, None);
                for (label, r) in [("full", &full), ("sliced", &sliced), ("presolved", &presolved)]
                {
                    writeln!(out, "app {index} {opts} {exec:?} {label}").unwrap();
                    render(&mut out, r);
                }
            }
        }
    }
    fnv(&out)
}

fn batch_digest() -> u64 {
    let preps: Vec<Prepared> = (0..APPS).map(prepared).collect();
    let apps: Vec<BatchApp<'_>> = preps
        .iter()
        .map(|p| BatchApp { program: &p.app.program, cg: &p.cg, roots: &p.roots })
        .collect();
    let batch = gpu_analyze_batch(&apps, DeviceConfig::tiny(), OptConfig::gdroid());
    let mut out = format!("{:?}\n", batch.batch);
    for run in &batch.apps {
        render(&mut out, run);
    }
    fnv(&out)
}

/// Findings only: how many accesses the sanitizer samples is host
/// bookkeeping, not a simulated statistic.
fn sanitizer_digest() -> u64 {
    let mut out = String::new();
    for index in 0..APPS {
        let p = prepared(index);
        for opts in OptConfig::ladder() {
            let mut device = Device::new(DeviceConfig::tiny().with_sanitizer());
            let run = gpu_analyze_app_exec_on(
                &mut device,
                &p.app.program,
                &p.cg,
                &p.roots,
                opts,
                &HashMap::new(),
                None,
                ExecMode::MultiLaunch,
            )
            .expect("no fault plan installed");
            let report = run.sanitizer.as_ref().expect("sanitizer was enabled");
            assert!(report.accesses_checked > 0, "app {index} under {opts}: nothing checked");
            let counts: Vec<u64> = FindingKind::ALL.iter().map(|&k| report.count(k)).collect();
            writeln!(out, "app {index} {opts} {counts:?} regions {}", report.regions).unwrap();
            for finding in &report.findings {
                writeln!(out, "  {finding}").unwrap();
            }
            render(&mut out, &run);
        }
    }
    fnv(&out)
}

#[test]
fn ladder_exec_modes_and_schedules_match_golden() {
    assert_eq!(ladder_digest(), 165512323553573101);
}

#[test]
fn coresident_batch_matches_golden() {
    assert_eq!(batch_digest(), 2238932056149294576);
}

#[test]
fn sanitizer_findings_match_golden() {
    assert_eq!(sanitizer_digest(), 1061680447664185396);
}
