//! Tier-1 gate for the tracing layer: traces are byte-deterministic in
//! modeled time, and tracing — enabled or disabled — never perturbs the
//! analysis results the rest of the stack depends on.

use gdroid::apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid::core::{ExecMode, OptConfig};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::sumstore::SumStore;
use gdroid::trace::{Phase, Tracer};
use gdroid::vetting::{
    execute_vetting, prepare_vetting, run, Engine, Plan, PreparedApp, VettingRun,
};

fn corpus_app(index: usize) -> PreparedApp {
    prepare_vetting(generate_app(index, PAPER_MASTER_SEED ^ index as u64, &GenConfig::tiny()))
}

/// Vets `prep` under `plan` on a fresh device that records into `tracer`.
fn traced(
    prep: &PreparedApp,
    plan: &Plan,
    tracer: &Tracer,
    store: Option<&SumStore>,
) -> VettingRun {
    let mut device = Device::new(DeviceConfig::tesla_p40());
    device.set_tracer(tracer.clone());
    run(prep, plan, &mut device, store).expect("a fresh device has no fault plan").0
}

/// The default worklist plan, traced.
fn traced_default(prep: &PreparedApp, tracer: &Tracer) -> VettingRun {
    traced(prep, &Plan::default(), tracer, None)
}

/// Two traced runs of the same seed write byte-identical Chrome JSON, and
/// the trace covers every instrumented layer of the stack.
#[test]
fn same_seed_traces_are_byte_identical_across_layers() {
    let prep = corpus_app(3);
    let ta = Tracer::enabled_new();
    let tb = Tracer::enabled_new();
    traced_default(&prep, &ta);
    traced_default(&prep, &tb);
    let ja = ta.to_chrome_json();
    assert_eq!(ja, tb.to_chrome_json(), "same-seed traces must be byte-identical");
    for cat in ["\"cat\":\"gpusim\"", "\"cat\":\"driver\"", "\"cat\":\"vetting\""] {
        assert!(ja.contains(cat), "trace must cover layer {cat}");
    }
    assert!(ja.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
}

/// Tracing off leaves results bit-identical to the plain path: the traced
/// entry point with a disabled tracer, the traced entry point with an
/// enabled tracer, and the plain engine all render the same outcome JSON
/// (which digests timing, telemetry, report, and verdict).
#[test]
fn tracing_never_perturbs_outcomes() {
    for index in [0usize, 5, 11] {
        let prep = corpus_app(index);
        let plain = execute_vetting(&prep, Engine::Gpu(OptConfig::gdroid()));
        let off = Tracer::disabled();
        let disabled = traced_default(&prep, &off);
        let on = Tracer::enabled_new();
        let enabled = traced_default(&prep, &on);
        assert_eq!(
            plain.to_json(),
            disabled.outcome.to_json(),
            "disabled tracer must not perturb app {index}"
        );
        assert_eq!(
            plain.to_json(),
            enabled.outcome.to_json(),
            "enabled tracer must not perturb app {index}"
        );
        assert_eq!(
            off.to_chrome_json(),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n",
            "disabled tracer must record nothing"
        );
        assert!(!on.events().is_empty(), "enabled tracer must record events for app {index}");
    }
}

/// Modeled timestamps nest the GPU work inside the pipeline's `idfg`
/// stage: every gpusim/driver event starts at or after the end of the
/// host-side prep (envgen + callgraph) and before the idfg stage ends.
#[test]
fn gpu_events_nest_inside_the_idfg_stage() {
    let prep = corpus_app(7);
    let tracer = Tracer::enabled_new();
    let run = traced_default(&prep, &tracer);
    let t = &run.outcome.timing;
    let prep_ns = (t.envgen_ns + t.callgraph_ns).round() as u64;
    let idfg_end_ns = prep_ns + t.idfg_ns.round() as u64;
    for ev in tracer.events() {
        if ev.cat == "gpusim" || ev.cat == "driver" {
            assert!(ev.ts_ns >= prep_ns, "{} {} starts before prep ends", ev.cat, ev.name);
            assert!(
                ev.ts_ns <= idfg_end_ns + 1,
                "{} {} starts after the idfg stage ends",
                ev.cat,
                ev.name
            );
        }
    }
}

/// Every plan of the worklist engine, the only one with device work —
/// targeted × store × exec — traces the same way: tracing never changes
/// the outcome, the device's launch and round spans are recorded, and the
/// `targeted-slice` and `sumstore` instants appear exactly when the plan
/// slices and a store is attached.
#[test]
fn every_plan_traces_device_work_and_its_own_instants() {
    // Apps whose sink slices are non-empty (all 26 methods, 2 of 28 and
    // 20 of 21), so targeted plans launch too.
    for index in [5usize, 32, 33] {
        let prep = corpus_app(index);
        for exec in ExecMode::ALL {
            for targeted in [false, true] {
                for with_store in [false, true] {
                    let plan = Plan { exec, targeted, ..Plan::default() };
                    let label = format!("app {index} plan {} store {with_store}", plan.label());
                    // A cold store per run, so both runs see the same store.
                    let cold = || with_store.then(SumStore::new);
                    let off = Tracer::disabled();
                    let untraced = traced(&prep, &plan, &off, cold().as_ref());
                    let on = Tracer::enabled_new();
                    let run = traced(&prep, &plan, &on, cold().as_ref());
                    assert_eq!(
                        run.outcome.to_json(),
                        untraced.outcome.to_json(),
                        "tracing perturbed {label}"
                    );
                    let events = on.events();
                    let span = |pred: &dyn Fn(&str) -> bool| {
                        events.iter().any(|e| e.ph == Phase::Span && pred(&e.name))
                    };
                    assert!(span(&|n| n.contains("launch")), "no launch span: {label}");
                    assert!(span(&|n| n.contains("round")), "no round span: {label}");
                    let instant = |name: &str| {
                        events.iter().any(|e| e.ph == Phase::Instant && e.name == name)
                    };
                    assert_eq!(instant("targeted-slice"), targeted, "{label}");
                    assert_eq!(instant("sumstore"), with_store, "{label}");
                }
            }
        }
    }
}
