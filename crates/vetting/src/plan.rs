//! One execution plan and one entry point for vetting a prepared app.
//!
//! A [`Plan`] names every choice that shapes the IDFG stage: the
//! [`EngineKind`] that constructs it, the optimization rung of the
//! worklist kernels, the kernel [`ExecMode`], and whether the run is
//! sliced to the methods that can influence a sink verdict. [`run`]
//! executes any valid plan on a device, with or without a cross-app
//! [`SumStore`]. The store is an argument rather than a plan field
//! because it is shared state the caller owns and persists.
//!
//! The taint plugin, report, and JSON rendering are plan-invariant: for
//! the same app, every valid plan yields the byte-identical
//! [`crate::VettingReport`] (the tier-1 gates), so a plan only trades
//! modeled cost profiles.

use crate::pipeline::{finish_engine_run, trace_stage_spans, PreparedApp, VettingRun};
use crate::store_exec::{absorb_into_store, collect_presolved, StoreUse};
use crate::targeted::{compute_vetting_slice, TargetedProvenance};
use gdroid_core::{AnalysisEngine, CpuEngine, EngineKind, ExecMode, OptConfig, WorklistEngine};
use gdroid_gpusim::{Device, DeviceFault};
use gdroid_sumstore::SumStore;
use std::collections::HashMap;

/// How one app is vetted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Plan {
    /// Which engine constructs the IDFG.
    pub engine: EngineKind,
    /// Optimization-ladder rung of the worklist kernels; the other
    /// engines ignore it.
    pub opts: OptConfig,
    /// How fixpoint rounds map onto kernel launches.
    pub exec: ExecMode,
    /// Analyze only the backward sink slice (demand-driven vetting). The
    /// outcome gains a `"targeted"` provenance block.
    pub targeted: bool,
}

impl Default for Plan {
    /// The full-GDroid worklist rung, one launch per round, whole app.
    fn default() -> Plan {
        Plan {
            engine: EngineKind::Worklist,
            opts: OptConfig::gdroid(),
            exec: ExecMode::MultiLaunch,
            targeted: false,
        }
    }
}

/// A plan the chosen engine cannot run (see [`EngineKind::caps`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The engine cannot slice.
    Targeted(EngineKind),
    /// The engine cannot pre-solve from a summary store.
    SumStore(EngineKind),
    /// The engine has no persistent-kernel mode.
    Persistent(EngineKind),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Targeted(kind) => {
                write!(f, "engine {kind} does not support targeted vetting")
            }
            PlanError::SumStore(kind) => {
                write!(f, "engine {kind} does not support the summary store")
            }
            PlanError::Persistent(kind) => {
                write!(f, "engine {kind} does not support persistent-kernel execution")
            }
        }
    }
}

impl Plan {
    /// Checks the plan against [`EngineKind::caps`]; `store` says whether
    /// a summary store will be attached.
    pub fn validate(&self, store: bool) -> Result<(), PlanError> {
        let caps = self.engine.caps();
        if self.targeted && !caps.targeted {
            Err(PlanError::Targeted(self.engine))
        } else if store && !caps.sumstore {
            Err(PlanError::SumStore(self.engine))
        } else if self.exec == ExecMode::Persistent && !caps.persistent {
            Err(PlanError::Persistent(self.engine))
        } else {
            Ok(())
        }
    }

    /// Whether this is the full, multi-launch worklist plan — the only
    /// plan whose outcomes a serving result cache may hold and serve, and
    /// whose runs can share a co-resident batch. Every other plan embeds
    /// a different cost profile or targeted provenance in its outcome.
    pub fn cacheable(&self) -> bool {
        self.engine == EngineKind::Worklist && self.exec == ExecMode::MultiLaunch && !self.targeted
    }

    /// Metric label: `engine/exec`, plus `/targeted` for sliced plans
    /// (e.g. `worklist/multi`, `worklist/persistent/targeted`). The rung
    /// is left out: a service runs every job at one rung.
    pub fn label(&self) -> String {
        let targeted = if self.targeted { "/targeted" } else { "" };
        format!("{}/{}{targeted}", self.engine, self.exec)
    }
}

/// Instantiates the plan's engine — the single construction point every
/// vetting path shares.
fn engine_for(plan: &Plan) -> Box<dyn AnalysisEngine> {
    match plan.engine {
        EngineKind::Worklist => Box::new(WorklistEngine { opts: plan.opts, exec: plan.exec }),
        EngineKind::Cpu => Box::new(CpuEngine),
    }
}

/// Vets a prepared app under `plan` on `device`.
///
/// In order: slices when the plan is targeted; with a `store`, looks up
/// every reachable method and pre-solves the closed hit set (restricted
/// to slice members); constructs the IDFG with the plan's engine; runs
/// the taint plugin; and feeds freshly solved methods back into the
/// store (a targeted run only its slice's exact members, so partial-root
/// results never enter it). The [`StoreUse`] is `Some` iff a store was
/// given.
///
/// When `device.tracer()` is enabled, the device clock is advanced past
/// the prep stages so device events nest inside the `idfg` stage span,
/// the slice and store lookups are recorded as `targeted-slice` and
/// `sumstore` instants at the start of that span, and the four stage
/// spans are emitted at the end. Tracing never changes the outcome.
///
/// An injected [`DeviceFault`] surfaces as `Err` so the caller can retry
/// on the same or another device; a retry re-resolves against the store.
///
/// # Panics
///
/// If `plan.validate(store.is_some())` fails: callers validate plans
/// where they are built.
pub fn run(
    prep: &PreparedApp,
    plan: &Plan,
    device: &mut Device,
    store: Option<&SumStore>,
) -> Result<(VettingRun, Option<StoreUse>), DeviceFault> {
    if let Err(e) = plan.validate(store.is_some()) {
        panic!("invalid vetting plan {plan:?}: {e}");
    }
    let program = &prep.app.program;
    let tracer = device.tracer().clone();
    if tracer.enabled() {
        let prep_ns = prep.prep_timing.envgen_ns + prep.prep_timing.callgraph_ns;
        device.advance_clock(prep_ns.round() as u64);
    }
    let slice = plan.targeted.then(|| compute_vetting_slice(prep));
    if let Some(slice) = slice.as_ref().filter(|_| tracer.enabled()) {
        tracer.instant(
            "vetting",
            "targeted-slice",
            device.clock_ns(),
            0,
            vec![
                ("slice_methods", slice.len().into()),
                ("total_reachable", slice.total_reachable.into()),
                ("sink_methods", slice.sink_methods.len().into()),
                ("partial_roots", slice.roots.len().into()),
            ],
        );
    }
    let (presolved, hashes) = match store {
        Some(store) => {
            let (mut presolved, hashes) = collect_presolved(prep, store);
            if let Some(slice) = &slice {
                // Still closed under slice-internal callee edges: the
                // full hit set is closed under every callee edge.
                presolved.retain(|m, _| slice.members.contains(m));
            }
            if tracer.enabled() {
                tracer.instant(
                    "vetting",
                    "sumstore",
                    device.clock_ns(),
                    0,
                    vec![
                        ("hits", (presolved.len() as u64).into()),
                        ("candidates", (hashes.len() as u64).into()),
                        ("package", prep.app.name.as_str().into()),
                    ],
                );
            }
            (presolved, hashes)
        }
        None => (HashMap::new(), HashMap::new()),
    };
    let ea = engine_for(plan).analyze_on(
        device,
        program,
        &prep.cg,
        &prep.roots,
        &presolved,
        slice.as_ref().map(|s| &s.members),
    )?;
    let mut run = finish_engine_run(prep, plan.engine, ea);
    run.outcome.targeted = slice.as_ref().map(TargetedProvenance::of);
    if tracer.enabled() {
        trace_stage_spans(&tracer, &run.outcome.timing, 0, 0);
    }
    let store_use = store.map(|store| {
        let insertable = slice.as_ref().map(|s| &s.exact);
        absorb_into_store(program, store, &hashes, &presolved, &run.analysis, insertable)
    });
    Ok((run, store_use))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{execute_vetting, prepare_vetting, Engine};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_gpusim::DeviceConfig;

    fn fresh() -> Device {
        Device::new(DeviceConfig::tesla_p40())
    }

    fn run_on(prep: &PreparedApp, plan: Plan, device: &mut Device) -> VettingRun {
        run(prep, &plan, device, None).expect("no fault plan").0
    }

    fn engine(kind: EngineKind) -> Plan {
        Plan { engine: kind, ..Plan::default() }
    }

    #[test]
    fn all_engine_kinds_agree_with_the_legacy_paths() {
        for seed in [8700u64, 8701] {
            let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
            let legacy = execute_vetting(&prep, Engine::Gpu(OptConfig::gdroid()));
            for kind in EngineKind::ALL {
                let run = run_on(&prep, engine(kind), &mut fresh());
                assert_eq!(
                    run.outcome.report.to_json(),
                    legacy.report.to_json(),
                    "{kind} diverged on seed {seed}"
                );
            }
        }
    }

    #[test]
    fn worklist_kind_matches_legacy_gpu_byte_for_byte() {
        // The worklist EngineKind is the legacy Engine::Gpu(gdroid) path
        // behind the trait — entire outcome JSON included.
        let prep = prepare_vetting(generate_app(0, 8702, &GenConfig::tiny()));
        let legacy = execute_vetting(&prep, Engine::Gpu(OptConfig::gdroid()));
        let run = run_on(&prep, Plan::default(), &mut fresh());
        assert_eq!(run.outcome.to_json(), legacy.to_json());
    }

    #[test]
    fn cpu_kind_reports_host_store_bytes() {
        let prep = prepare_vetting(generate_app(0, 8707, &GenConfig::tiny()));
        let cpu = run_on(&prep, engine(EngineKind::Cpu), &mut fresh());
        let worklist = run_on(&prep, engine(EngineKind::Worklist), &mut fresh());
        assert!(cpu.outcome.store_bytes > 0);
        assert_eq!(worklist.outcome.store_bytes, 0);
    }

    #[test]
    fn persistent_exec_reports_match_multi_launch() {
        for seed in [8710u64, 8711] {
            let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
            let mut md = fresh();
            let multi = run_on(&prep, Plan::default(), &mut md);
            let mut pd = fresh();
            let per =
                run_on(&prep, Plan { exec: ExecMode::Persistent, ..Plan::default() }, &mut pd);
            assert_eq!(
                per.outcome.report.to_json(),
                multi.outcome.report.to_json(),
                "persistent verdicts diverged on seed {seed}"
            );
            // Same fixpoint, one launch instead of one per round.
            assert_eq!(pd.launches(), 1, "seed {seed}");
            if md.launches() > 1 {
                assert!(
                    per.outcome.timing.idfg_ns < multi.outcome.timing.idfg_ns,
                    "seed {seed}: persistent not faster"
                );
            }
        }
    }

    #[test]
    fn validate_follows_the_caps_matrix() {
        for kind in EngineKind::ALL {
            let caps = kind.caps();
            let plan = engine(kind);
            assert_eq!(plan.validate(false), Ok(()));
            assert_eq!(plan.validate(true).is_ok(), caps.sumstore, "{kind}");
            assert_eq!(Plan { targeted: true, ..plan }.validate(false).is_ok(), caps.targeted);
            let persistent = Plan { exec: ExecMode::Persistent, ..plan };
            assert_eq!(persistent.validate(false).is_ok(), caps.persistent, "{kind}");
        }
        let err = Plan { exec: ExecMode::Persistent, ..engine(EngineKind::Cpu) }.validate(false);
        assert_eq!(err, Err(PlanError::Persistent(EngineKind::Cpu)));
    }

    #[test]
    #[should_panic(expected = "persistent")]
    fn run_rejects_an_invalid_plan() {
        let prep = prepare_vetting(generate_app(0, 8709, &GenConfig::tiny()));
        let plan = Plan { exec: ExecMode::Persistent, ..engine(EngineKind::Cpu) };
        let _ = run(&prep, &plan, &mut fresh(), None);
    }

    #[test]
    fn labels_name_engine_exec_and_slicing() {
        assert_eq!(Plan::default().label(), "worklist/multi");
        let sliced = Plan { targeted: true, exec: ExecMode::Persistent, ..Plan::default() };
        assert_eq!(sliced.label(), "worklist/persistent/targeted");
    }

    #[test]
    fn traced_engine_run_is_invariant() {
        let prep = prepare_vetting(generate_app(0, 8708, &GenConfig::tiny()));
        for kind in EngineKind::ALL {
            let untraced = run_on(&prep, engine(kind), &mut fresh());
            let tracer = gdroid_trace::Tracer::enabled_new();
            let mut device = fresh();
            device.set_tracer(tracer.clone());
            let traced = run_on(&prep, engine(kind), &mut device);
            assert_eq!(
                traced.outcome.to_json(),
                untraced.outcome.to_json(),
                "tracing perturbed {kind}"
            );
            assert!(!tracer.events().is_empty());
        }
    }
}
