//! Differential test of the worklist-GPU engine against the CPU
//! reference solver, the oracle: for random generator seeds and over the
//! 20-app gate corpus, both engines must compute identical per-method
//! fact fixpoints and byte-identical vetting reports. Failures shrink to
//! a seed and are pinned in `engine_diff.proptest-regressions`; the
//! pinned seeds are also checked by name, so they run on every test
//! runner.

use gdroid::apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid::core::EngineKind;
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::ir::MethodId;
use gdroid::vetting::{prepare_vetting, run, Plan, PreparedApp, VettingRun};
use proptest::prelude::*;
use std::collections::BTreeMap;

const GATE_APPS: usize = 20;

/// The engine-invariant fixpoint, in comparable form: per-method bitmap
/// words, keyed and ordered by method id.
fn fact_map(run: &VettingRun) -> BTreeMap<MethodId, Vec<u64>> {
    run.analysis.facts.iter().map(|(m, s)| (*m, s.flat_words())).collect()
}

/// Vets `prep` with the engine `kind` on a fresh device.
fn vet_with(prep: &PreparedApp, kind: EngineKind) -> VettingRun {
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let plan = Plan { engine: kind, ..Plan::default() };
    run(prep, &plan, &mut device, None).expect("a fresh device has no fault plan").0
}

/// Asserts that the worklist engine matches the CPU oracle on `prep`:
/// the same report JSON and the same fact map.
fn assert_worklist_matches_cpu(prep: &PreparedApp, label: &str) {
    let worklist = vet_with(prep, EngineKind::Worklist);
    let cpu = vet_with(prep, EngineKind::Cpu);
    assert_eq!(
        worklist.outcome.report.to_json(),
        cpu.outcome.report.to_json(),
        "{label}: worklist report diverged from the cpu oracle"
    );
    assert_eq!(fact_map(&worklist), fact_map(&cpu), "{label}: worklist facts diverged");
}

fn random_app(seed: u64) -> PreparedApp {
    prepare_vetting(generate_app(0, seed, &GenConfig::tiny()))
}

proptest! {
    /// The engine trait contract, sampled: any generated app reaches the
    /// same fixpoint and verdict under both engines.
    #[test]
    fn engines_agree_on_random_apps(seed in 0u64..500) {
        assert_worklist_matches_cpu(&random_app(seed), &format!("seed {seed}"));
    }
}

/// The seeds pinned in `engine_diff.proptest-regressions`.
#[test]
fn pinned_regression_seeds_agree() {
    assert_worklist_matches_cpu(&random_app(0), "seed 0");
}

#[test]
fn engines_agree_over_the_gate_corpus() {
    for index in 0..GATE_APPS {
        let app = generate_app(index, PAPER_MASTER_SEED ^ index as u64, &GenConfig::tiny());
        assert_worklist_matches_cpu(&prepare_vetting(app), &format!("app {index}"));
    }
}
