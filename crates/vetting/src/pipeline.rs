//! The end-to-end vetting pipeline — the "Amandroid run" of Fig. 1.
//!
//! One app flows through: environment synthesis → call graph → **IDFG
//! construction** (the worklist analysis — the part GDroid accelerates) →
//! taint plugin → report. The pipeline records a modeled time for each
//! stage so Fig. 1's total-vs-IDFG breakdown can be regenerated; per the
//! paper, IDFG construction takes 58–96% of the total.

use crate::plan::{run, Plan};
use crate::registry::SourceSinkRegistry;
use crate::report::VettingReport;
use crate::taint::TaintAnalysis;
use gdroid_analysis::{analyze_app, AppAnalysis, CpuCostModel, FactStore, StoreKind};
use gdroid_apk::App;
use gdroid_core::{EngineAnalysis, EngineKind, OptConfig};
use gdroid_gpusim::{Device, DeviceConfig, DeviceFault};
use gdroid_icfg::{prepare_app, CallGraph, EnvironmentInfo};
use gdroid_ir::MethodId;
use serde::{Deserialize, Serialize};

/// Which engine constructs the IDFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Sequential Amandroid-style CPU run (Fig. 1).
    AmandroidCpu,
    /// The multithreaded-C CPU baseline (Fig. 4's CPU side).
    MultithreadedCpu,
    /// Simulated GPU with the given optimizations.
    Gpu(OptConfig),
}

/// Modeled per-stage times, nanoseconds.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct VettingTiming {
    /// Environment synthesis + manifest handling.
    pub envgen_ns: f64,
    /// Call-graph construction and IR loading.
    pub callgraph_ns: f64,
    /// IDFG construction — the worklist analysis.
    pub idfg_ns: f64,
    /// Taint plugin.
    pub taint_ns: f64,
}

impl VettingTiming {
    /// Total pipeline time.
    pub fn total_ns(&self) -> f64 {
        self.envgen_ns + self.callgraph_ns + self.idfg_ns + self.taint_ns
    }

    /// IDFG share of the total — the Fig. 1 ratio.
    pub fn idfg_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total == 0.0 {
            0.0
        } else {
            self.idfg_ns / total
        }
    }
}

/// Everything one vetting run produces.
#[derive(Clone, Debug)]
pub struct VettingOutcome {
    /// The security report.
    pub report: VettingReport,
    /// Modeled stage times.
    pub timing: VettingTiming,
    /// Aggregate worklist telemetry of the IDFG stage.
    pub telemetry: gdroid_analysis::WorklistTelemetry,
    /// Fact-store bytes (Fig. 10's metric) for CPU engines.
    pub store_bytes: usize,
    /// Demand-driven provenance — `Some` iff the run was targeted (sliced).
    pub targeted: Option<crate::targeted::TargetedProvenance>,
}

impl VettingOutcome {
    /// Machine-readable rendering: the report plus timing and telemetry.
    /// Byte-stable for identical outcomes, so CLI and service results can
    /// be compared verbatim. Full-mode outcomes render exactly as before
    /// targeted vetting existed; targeted ones append a `"targeted"`
    /// provenance object.
    pub fn to_json(&self) -> String {
        let targeted = match &self.targeted {
            Some(t) => format!(",\"targeted\":{}", t.to_json()),
            None => String::new(),
        };
        format!(
            "{{\"report\":{},\"timing\":{{\"envgen_ns\":{},\"callgraph_ns\":{},\"idfg_ns\":{},\
             \"taint_ns\":{},\"total_ns\":{}}},\"telemetry\":{{\"nodes_processed\":{},\
             \"rounds\":{}}},\"store_bytes\":{}{}}}",
            self.report.to_json(),
            self.timing.envgen_ns,
            self.timing.callgraph_ns,
            self.timing.idfg_ns,
            self.timing.taint_ns,
            self.timing.total_ns(),
            self.telemetry.nodes_processed,
            self.telemetry.rounds,
            self.store_bytes,
            targeted,
        )
    }
}

/// Vetting outcome plus the underlying per-method analysis state — what a
/// result cache must retain so an updated version of the same app can be
/// re-analyzed incrementally ([`gdroid_analysis::incremental`]).
pub struct VettingRun {
    /// The outcome (report, timing, telemetry).
    pub outcome: VettingOutcome,
    /// The full per-method analysis behind the outcome.
    pub analysis: AppAnalysis,
}

/// Per-operation costs of the non-IDFG stages, Scala-calibrated (the
/// frontend stages run in the original Amandroid regardless of the IDFG
/// engine).
const ENVGEN_NS_PER_COMPONENT: f64 = 2.5e6;
const FRONTEND_NS_PER_STMT: f64 = 60.0e3;
const FRONTEND_NS_PER_METHOD: f64 = 2.5e6;
const TAINT_NS_PER_ROW: f64 = 280.0;

/// An app after the host-side prep stage (environment synthesis + call
/// graph). Splitting prep from execution lets a serving scheduler overlap
/// one app's host-side prep with another app's device execution, and lets
/// several engines vet the same prepared app without re-cloning it.
pub struct PreparedApp {
    /// The app, with environment methods synthesized into its program.
    pub app: App,
    /// Synthesized component environments.
    pub envs: Vec<EnvironmentInfo>,
    /// The call graph over the prepared program.
    pub cg: CallGraph,
    /// Analysis roots (one per environment).
    pub roots: Vec<MethodId>,
    /// Modeled prep-stage times (`envgen_ns` + `callgraph_ns` populated).
    pub prep_timing: VettingTiming,
}

/// Runs the host-side prep stage: environment synthesis + call graph.
pub fn prepare_vetting(mut app: App) -> PreparedApp {
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
    let prep_timing = VettingTiming {
        envgen_ns: ENVGEN_NS_PER_COMPONENT * envs.len() as f64,
        callgraph_ns: FRONTEND_NS_PER_STMT * app.program.total_statements() as f64
            + FRONTEND_NS_PER_METHOD * app.program.methods.len() as f64,
        ..Default::default()
    };
    PreparedApp { app, envs, cg, roots, prep_timing }
}

/// Runs the taint plugin over a finished IDFG and assembles the outcome.
pub(crate) fn finish_vetting(
    prep: &PreparedApp,
    analysis: AppAnalysis,
    idfg_ns: f64,
) -> VettingRun {
    let mut timing = prep.prep_timing;
    timing.idfg_ns = idfg_ns;
    let registry = SourceSinkRegistry::for_program(&prep.app.program);
    let taint = TaintAnalysis::new(
        &prep.app.program,
        &prep.cg,
        &analysis.facts,
        &analysis.spaces,
        &analysis.cfgs,
        &registry,
    );
    let (report, taint_stats) = taint.run();
    timing.taint_ns = TAINT_NS_PER_ROW * taint_stats.rows_read as f64;
    let outcome = VettingOutcome {
        report,
        timing,
        telemetry: analysis.telemetry.clone(),
        store_bytes: analysis.store_bytes,
        targeted: None,
    };
    VettingRun { outcome, analysis }
}

/// Assembles the outcome from a finished engine run. The facts and
/// summaries are bit-identical across engines; only cost models differ.
/// The GPU engine reports device memory (the historical `store_bytes: 0`
/// contract of `vet_app`), the CPU engine its host fact stores.
pub(crate) fn finish_engine_run(
    prep: &PreparedApp,
    kind: EngineKind,
    ea: EngineAnalysis,
) -> VettingRun {
    let store_bytes = ea.facts.values().map(FactStore::memory_bytes).sum();
    let analysis = AppAnalysis {
        spaces: ea.spaces,
        cfgs: ea.cfgs,
        facts: ea.facts,
        summaries: ea.summaries,
        telemetry: ea.telemetry,
        per_method: std::collections::HashMap::new(),
        store_bytes,
        store_kind: StoreKind::Matrix,
        schedule: Vec::new(),
    };
    let mut run = finish_vetting(prep, analysis, ea.idfg_ns);
    if kind != EngineKind::Cpu {
        run.outcome.store_bytes = 0;
    }
    run
}

/// Executes the IDFG + taint stages on a prepared app, borrowing it (no
/// per-engine deep copy), and returns the analysis alongside the outcome.
pub fn execute_vetting_full(prep: &PreparedApp, engine: Engine) -> VettingRun {
    let program = &prep.app.program;
    match engine {
        Engine::AmandroidCpu => {
            let analysis = analyze_app(program, &prep.cg, &prep.roots, StoreKind::Set);
            let idfg_ns = CpuCostModel::amandroid().sequential_ns(&analysis);
            finish_vetting(prep, analysis, idfg_ns)
        }
        Engine::MultithreadedCpu => {
            let analysis = gdroid_analysis::analyze_app_parallel(
                program,
                &prep.cg,
                &prep.roots,
                StoreKind::Set,
            );
            let idfg_ns = CpuCostModel::multithreaded_c().parallel_ns(&analysis);
            finish_vetting(prep, analysis, idfg_ns)
        }
        Engine::Gpu(opts) => {
            let mut device = Device::new(DeviceConfig::tesla_p40());
            run(prep, &Plan { opts, ..Plan::default() }, &mut device, None)
                .expect("a fresh device has no fault plan")
                .0
        }
    }
}

/// Like [`execute_vetting_full`] without retaining the analysis.
pub fn execute_vetting(prep: &PreparedApp, engine: Engine) -> VettingOutcome {
    execute_vetting_full(prep, engine).outcome
}

/// Co-resident batch execution of several prepared apps on one device
/// (the serving layer's batch-forming mode): their per-layer launches are
/// interleaved into shared kernels by [`gdroid_core::gpu_analyze_batch_on`]
/// so small apps stop wasting block slots. Each returned [`VettingRun`] —
/// report, timing, telemetry, the whole outcome JSON — is bit-identical
/// to a [`run`] of the default [`Plan`] at the same rung; the returned
/// [`gdroid_core::BatchStats`] carries the shared-pipeline makespan and
/// coresidency. An injected fault aborts the whole batch, and the caller
/// retries the member jobs individually.
pub fn execute_vetting_batch_on_device(
    preps: &[&PreparedApp],
    device: &mut Device,
    opts: OptConfig,
) -> Result<(Vec<VettingRun>, gdroid_core::BatchStats), DeviceFault> {
    let apps: Vec<gdroid_core::BatchApp<'_>> = preps
        .iter()
        .map(|p| gdroid_core::BatchApp { program: &p.app.program, cg: &p.cg, roots: &p.roots })
        .collect();
    let analysis = gdroid_core::gpu_analyze_batch_on(device, &apps, opts)?;
    let runs = analysis
        .apps
        .into_iter()
        .zip(preps)
        .map(|(gpu, prep)| finish_engine_run(prep, EngineKind::Worklist, gpu.into()))
        .collect();
    Ok((runs, analysis.batch))
}

/// Incremental re-vetting of an updated app: methods not in `changed`
/// must be body-identical to the run that produced `prev` (see
/// [`gdroid_analysis::analyze_app_incremental`]). Facts — and therefore
/// the report — are bit-identical to a from-scratch run; only the cost
/// model reflects the reuse.
pub fn execute_vetting_incremental(
    prep: &PreparedApp,
    prev: &AppAnalysis,
    changed: &[MethodId],
) -> (VettingRun, gdroid_analysis::IncrementalStats) {
    let (analysis, stats) = gdroid_analysis::analyze_app_incremental(
        &prep.app.program,
        &prep.cg,
        &prep.roots,
        prev,
        changed,
    );
    let full_ns = CpuCostModel::amandroid().sequential_ns(&analysis);
    let touched = stats.resolved.max(1) as f64;
    let idfg_ns = full_ns * touched / (stats.resolved + stats.reused).max(1) as f64;
    (finish_vetting(prep, analysis, idfg_ns), stats)
}

/// Vets one app end to end. The `app` must be freshly generated (not yet
/// prepared); the pipeline synthesizes environments itself.
pub fn vet_app(app: App, engine: Engine) -> VettingOutcome {
    execute_vetting(&prepare_vetting(app), engine)
}

/// Emits the pipeline's four stage spans — envgen, callgraph, idfg,
/// taint — back to back in modeled time starting at `base_ns`, and
/// returns the modeled end of the last stage. Works for any engine: the
/// stages are the modeled [`VettingTiming`], not wall clock.
pub fn trace_stage_spans(
    tracer: &gdroid_trace::Tracer,
    timing: &VettingTiming,
    base_ns: u64,
    track: u32,
) -> u64 {
    let mut t = base_ns;
    for (name, ns) in [
        ("envgen", timing.envgen_ns),
        ("callgraph", timing.callgraph_ns),
        ("idfg", timing.idfg_ns),
        ("taint", timing.taint_ns),
    ] {
        let dur = ns.round() as u64;
        tracer.span("vetting", name, t, dur, track, vec![]);
        t += dur;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};

    #[test]
    fn pipeline_produces_report_and_timing() {
        let app = generate_app(0, 6100, &GenConfig::tiny());
        let outcome = vet_app(app, Engine::AmandroidCpu);
        assert!(outcome.timing.total_ns() > 0.0);
        assert!(outcome.timing.idfg_ns > 0.0);
        assert!(outcome.telemetry.nodes_processed > 0);
        assert!(outcome.store_bytes > 0);
        let f = outcome.timing.idfg_fraction();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn engines_agree_on_verdict() {
        for seed in [6200u64, 6201, 6202] {
            // One prepared app serves every engine — no per-engine clone.
            let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
            let verdicts: Vec<_> = [
                Engine::AmandroidCpu,
                Engine::MultithreadedCpu,
                Engine::Gpu(OptConfig::gdroid()),
                Engine::Gpu(OptConfig::plain()),
            ]
            .into_iter()
            .map(|e| {
                let o = execute_vetting(&prep, e);
                (o.report.verdict, o.report.leaks.len())
            })
            .collect();
            for pair in verdicts.windows(2) {
                assert_eq!(pair[0], pair[1], "engines disagree on seed {seed}");
            }
        }
    }

    #[test]
    fn staged_pipeline_matches_vet_app() {
        let prep = prepare_vetting(generate_app(0, 6400, &GenConfig::tiny()));
        let staged = execute_vetting(&prep, Engine::AmandroidCpu);
        let whole = vet_app(generate_app(0, 6400, &GenConfig::tiny()), Engine::AmandroidCpu);
        assert_eq!(staged.report.verdict, whole.report.verdict);
        assert_eq!(staged.report.leaks, whole.report.leaks);
        assert_eq!(
            staged.to_json(),
            whole.to_json(),
            "staged and whole runs must render identically"
        );
    }

    #[test]
    fn device_execution_matches_fresh_device_path() {
        use gdroid_gpusim::{Device, DeviceConfig};
        let prep = prepare_vetting(generate_app(0, 6401, &GenConfig::tiny()));
        let mut device = Device::new(DeviceConfig::tesla_p40());
        let (on_device, _) =
            run(&prep, &Plan::default(), &mut device, None).expect("no fault plan");
        let fresh = execute_vetting(&prep, Engine::Gpu(OptConfig::gdroid()));
        assert_eq!(on_device.outcome.report.to_json(), fresh.report.to_json());
        assert_eq!(on_device.outcome.timing.idfg_ns, fresh.timing.idfg_ns);
    }

    #[test]
    fn batch_execution_matches_solo_byte_for_byte() {
        use gdroid_gpusim::{Device, DeviceConfig};
        let preps: Vec<PreparedApp> = [6403u64, 6404, 6405]
            .iter()
            .map(|&s| prepare_vetting(generate_app(0, s, &GenConfig::tiny())))
            .collect();
        let refs: Vec<&PreparedApp> = preps.iter().collect();
        let mut device = Device::new(DeviceConfig::tesla_p40());
        let (runs, batch) =
            execute_vetting_batch_on_device(&refs, &mut device, OptConfig::gdroid())
                .expect("no fault plan");
        assert_eq!(runs.len(), preps.len());
        let mut solo_sum = 0.0f64;
        for (prep, batched) in preps.iter().zip(&runs) {
            let mut solo_dev = Device::new(DeviceConfig::tesla_p40());
            let (solo, _) =
                run(prep, &Plan::default(), &mut solo_dev, None).expect("no fault plan");
            assert_eq!(batched.outcome.to_json(), solo.outcome.to_json());
            solo_sum += solo.outcome.timing.idfg_ns;
        }
        assert!(batch.makespan_ns <= solo_sum, "{} > {}", batch.makespan_ns, solo_sum);
        assert!(batch.launches > 0);
    }

    #[test]
    fn outcome_json_is_stable_and_wellformed() {
        let prep = prepare_vetting(generate_app(0, 6402, &GenConfig::tiny()));
        let a = execute_vetting(&prep, Engine::AmandroidCpu).to_json();
        let b = execute_vetting(&prep, Engine::AmandroidCpu).to_json();
        assert_eq!(a, b, "identical runs must serialize identically");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"report\":"));
        assert!(a.contains("\"idfg_ns\":"));
    }

    #[test]
    fn traced_run_matches_untraced_and_trace_is_deterministic() {
        let prep = prepare_vetting(generate_app(0, 6500, &GenConfig::tiny()));
        let untraced = execute_vetting(&prep, Engine::Gpu(OptConfig::gdroid()));
        let traced = |tracer: &gdroid_trace::Tracer| {
            let mut device = Device::new(DeviceConfig::tesla_p40());
            device.set_tracer(tracer.clone());
            run(&prep, &Plan::default(), &mut device, None).expect("no fault plan").0
        };
        let run_traced = || {
            let tracer = gdroid_trace::Tracer::enabled_new();
            let run = traced(&tracer);
            (run.outcome.to_json(), tracer.to_chrome_json())
        };
        let (json_a, trace_a) = run_traced();
        let (json_b, trace_b) = run_traced();
        assert_eq!(json_a, untraced.to_json(), "tracing must not perturb the outcome");
        assert_eq!(json_a, json_b);
        assert_eq!(trace_a, trace_b, "same seed must give a byte-identical trace");
        for cat in ["gpusim", "driver", "vetting"] {
            assert!(trace_a.contains(&format!("\"cat\":\"{cat}\"")), "missing layer {cat}");
        }
        // Disabled tracer records nothing and still matches.
        let off = gdroid_trace::Tracer::disabled();
        let run = traced(&off);
        assert_eq!(run.outcome.to_json(), json_a);
        assert!(off.events().is_empty());
    }

    #[test]
    fn multithreaded_cpu_is_faster_than_amandroid() {
        let app = generate_app(0, 6300, &GenConfig::small());
        let scala = vet_app(app, Engine::AmandroidCpu).timing.idfg_ns;
        let app = generate_app(0, 6300, &GenConfig::small());
        let mt = vet_app(app, Engine::MultithreadedCpu).timing.idfg_ns;
        assert!(mt < scala, "mt {mt} >= scala {scala}");
    }
}
