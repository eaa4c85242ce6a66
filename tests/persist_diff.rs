//! Differential property test over the kernel execution modes: for
//! random generator seeds, multi-launch and persistent-kernel execution
//! of the worklist engine must compute identical fact fixpoints and
//! identical vetting reports — plain, store-backed, and targeted.
//! Failures shrink to a seed and are pinned in
//! `persist_diff.proptest-regressions`.

use gdroid::apk::{generate_app, GenConfig};
use gdroid::core::ExecMode;
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::ir::MethodId;
use gdroid::sumstore::SumStore;
use gdroid::vetting::{prepare_vetting, run, Plan, VettingRun};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn fact_map(run: &VettingRun) -> BTreeMap<MethodId, Vec<u64>> {
    run.analysis.facts.iter().map(|(m, s)| (*m, s.flat_words())).collect()
}

/// Runs one pipeline variant under the given exec mode. Each run gets a
/// fresh device and (for the store variant) a fresh store, so the two
/// modes see equivalent starting state.
fn run_variant(prep: &gdroid::vetting::PreparedApp, variant: usize, exec: ExecMode) -> VettingRun {
    let plan = Plan { exec, targeted: variant == 2, ..Plan::default() };
    let store = (variant == 1).then(SumStore::new);
    let mut device = Device::new(DeviceConfig::tesla_p40());
    run(prep, &plan, &mut device, store.as_ref()).expect("a fresh device has no fault plan").0
}

proptest! {
    /// The execution-mode contract, sampled: any generated app reaches
    /// the same fixpoint and verdict whether the fixpoint runs as one
    /// resident launch or as one launch per round — in every pipeline
    /// variant the mode plumbs through.
    #[test]
    fn exec_modes_agree_on_random_apps(seed in 0u64..500, variant in 0usize..3) {
        let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
        let multi = run_variant(&prep, variant, ExecMode::MultiLaunch);
        let persist = run_variant(&prep, variant, ExecMode::Persistent);

        prop_assert_eq!(
            persist.outcome.report.to_json(),
            multi.outcome.report.to_json(),
            "variant {} report diverged across exec modes", variant
        );
        prop_assert_eq!(
            fact_map(&persist),
            fact_map(&multi),
            "variant {} facts diverged across exec modes", variant
        );
    }
}
