//! Tier-1 gate for persistent-kernel execution: one resident launch per
//! app must change only the cost model, never the analysis.
//!
//! * Over a 20-app gate corpus, persistent and multi-launch runs of the
//!   worklist engine must produce byte-identical vetting reports and
//!   bit-identical per-method fact fixpoints.
//! * Every persistent app is exactly ONE device launch, and the corpus
//!   makespan under persistent execution is strictly below multi-launch
//!   (the launch overheads saved outweigh the modeled grid syncs).
//! * A traced persistent run nests its fixpoint rounds inside a single
//!   launch span and stays byte-identical to the untraced run.

use gdroid::apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid::core::ExecMode;
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::ir::MethodId;
use gdroid::trace::Tracer;
use gdroid::vetting::{prepare_vetting, run, Plan, PreparedApp, VettingRun};
use std::collections::BTreeMap;

const GATE_APPS: usize = 20;

fn gate_prep(index: usize) -> PreparedApp {
    prepare_vetting(generate_app(index, PAPER_MASTER_SEED ^ index as u64, &GenConfig::tiny()))
}

/// The worklist engine in `exec` mode.
fn worklist(exec: ExecMode) -> Plan {
    Plan { exec, ..Plan::default() }
}

/// Vets `prep` under `plan` on `device`.
fn vet_on(prep: &PreparedApp, plan: Plan, device: &mut Device) -> VettingRun {
    run(prep, &plan, device, None).expect("a fresh device has no fault plan").0
}

/// The mode-invariant fixpoint, in comparable form: per-method bitmap
/// words, keyed and ordered by method id.
fn fact_map(run: &VettingRun) -> BTreeMap<MethodId, Vec<u64>> {
    run.analysis.facts.iter().map(|(m, s)| (*m, s.flat_words())).collect()
}

#[test]
fn persistent_matches_multi_launch_over_the_gate_corpus() {
    let mut multi_total_ns = 0.0f64;
    let mut persist_total_ns = 0.0f64;
    let mut multi_launches_total = 0u64;
    for index in 0..GATE_APPS {
        let prep = gate_prep(index);
        let mut md = Device::new(DeviceConfig::tesla_p40());
        let multi = vet_on(&prep, worklist(ExecMode::MultiLaunch), &mut md);
        let mut pd = Device::new(DeviceConfig::tesla_p40());
        let persist = vet_on(&prep, worklist(ExecMode::Persistent), &mut pd);

        assert_eq!(
            persist.outcome.report.to_json(),
            multi.outcome.report.to_json(),
            "app {index}: persistent report diverged from multi-launch"
        );
        assert_eq!(
            fact_map(&persist),
            fact_map(&multi),
            "app {index}: persistent facts diverged from multi-launch"
        );
        if md.launches() > 0 {
            assert_eq!(
                pd.launches(),
                1,
                "app {index}: a persistent fixpoint must be exactly one resident launch \
                 (multi-launch took {})",
                md.launches()
            );
        }
        multi_total_ns += multi.outcome.timing.idfg_ns;
        persist_total_ns += persist.outcome.timing.idfg_ns;
        multi_launches_total += md.launches();
    }
    assert!(
        multi_launches_total > GATE_APPS as u64,
        "the gate corpus must exercise multi-round fixpoints to gate the trade"
    );
    assert!(
        persist_total_ns < multi_total_ns,
        "persistent corpus makespan ({persist_total_ns:.0} ns) must be strictly below \
         multi-launch ({multi_total_ns:.0} ns)"
    );
}

#[test]
fn traced_persistent_runs_nest_rounds_inside_one_launch_span() {
    for index in 0..4 {
        let prep = gate_prep(index);
        let untraced = vet_on(
            &prep,
            worklist(ExecMode::Persistent),
            &mut Device::new(DeviceConfig::tesla_p40()),
        );
        let tracer = Tracer::enabled_new();
        let mut device = Device::new(DeviceConfig::tesla_p40());
        device.set_tracer(tracer.clone());
        let traced = vet_on(&prep, worklist(ExecMode::Persistent), &mut device);
        assert_eq!(
            traced.outcome.to_json(),
            untraced.outcome.to_json(),
            "app {index}: tracing perturbed the persistent outcome"
        );
        let events = tracer.events();
        let launches: Vec<_> =
            events.iter().filter(|e| e.name.starts_with("persistent launch #")).collect();
        assert_eq!(launches.len(), 1, "app {index}: expected exactly one resident launch span");
        let launch = launches[0];
        let rounds: Vec<_> =
            events.iter().filter(|e| e.name.starts_with("persistent round #")).collect();
        assert!(!rounds.is_empty(), "app {index}: fixpoint rounds must appear in the trace");
        for round in &rounds {
            assert!(
                round.ts_ns >= launch.ts_ns
                    && round.ts_ns + round.dur_ns <= launch.ts_ns + launch.dur_ns,
                "app {index}: round span {} escapes the launch span",
                round.name
            );
        }
    }
}
