//! Tier-1 gate for co-resident multi-app batching: batching apps into
//! shared kernel launches must never change a single result byte, must
//! never make the corpus slower than solo, and must stay invariant under
//! tracing.

use gdroid::apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid::core::OptConfig;
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::vetting::{execute_vetting_batch_on_device, prepare_vetting, run, Plan, PreparedApp};

const CORPUS: usize = 20;

fn corpus_app(index: usize) -> PreparedApp {
    prepare_vetting(generate_app(index, PAPER_MASTER_SEED ^ index as u64, &GenConfig::tiny()))
}

/// Batched vetting at co-residency 1, 2, and 4 renders the byte-identical
/// outcome JSON of a solo run for all 20 corpus apps, and every group's
/// makespan is no worse than the sum of its members' solo makespans.
#[test]
fn batched_outcomes_are_byte_identical_to_solo_across_coresidency() {
    let preps: Vec<PreparedApp> = (0..CORPUS).map(corpus_app).collect();
    let mut device = Device::new(DeviceConfig::tesla_p40());

    let mut solo_json = Vec::with_capacity(CORPUS);
    let mut solo_ns = Vec::with_capacity(CORPUS);
    for prep in &preps {
        let (solo, _) =
            run(prep, &Plan::default(), &mut device, None).expect("no fault plan installed");
        solo_ns.push(solo.outcome.timing.idfg_ns);
        solo_json.push(solo.outcome.to_json());
    }

    for coresident in [1usize, 2, 4] {
        let mut batched_total = 0.0f64;
        for (chunk_idx, chunk) in preps.chunks(coresident).enumerate() {
            let refs: Vec<&PreparedApp> = chunk.iter().collect();
            let (runs, batch) =
                execute_vetting_batch_on_device(&refs, &mut device, OptConfig::gdroid())
                    .expect("no fault plan installed");
            assert_eq!(runs.len(), chunk.len());
            let base = chunk_idx * coresident;
            let mut group_solo = 0.0f64;
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(
                    run.outcome.to_json(),
                    solo_json[base + i],
                    "app {} diverged at coresidency {coresident}",
                    base + i
                );
                group_solo += solo_ns[base + i];
            }
            assert!(
                batch.makespan_ns <= group_solo * 1.000001,
                "group {chunk_idx} at K {coresident}: makespan {} > summed solo {group_solo}",
                batch.makespan_ns
            );
            batched_total += batch.makespan_ns;
        }
        let solo_total: f64 = solo_ns.iter().sum();
        assert!(
            batched_total <= solo_total * 1.000001,
            "corpus makespan {batched_total} > summed solo {solo_total} at K {coresident}"
        );
    }
}

/// A traced batch run produces the same per-app outcomes and the same
/// batch makespan as an untraced one — tracing observes, never perturbs.
#[test]
fn tracing_does_not_perturb_batched_results() {
    let preps: Vec<PreparedApp> = (0..4).map(corpus_app).collect();
    let refs: Vec<&PreparedApp> = preps.iter().collect();

    let mut plain_dev = Device::new(DeviceConfig::tesla_p40());
    let (plain_runs, plain_batch) =
        execute_vetting_batch_on_device(&refs, &mut plain_dev, OptConfig::gdroid())
            .expect("no fault plan installed");

    let mut traced_dev = Device::new(DeviceConfig::tesla_p40());
    traced_dev.set_tracer(gdroid::trace::Tracer::enabled_new());
    let (traced_runs, traced_batch) =
        execute_vetting_batch_on_device(&refs, &mut traced_dev, OptConfig::gdroid())
            .expect("no fault plan installed");

    for (p, t) in plain_runs.iter().zip(&traced_runs) {
        assert_eq!(p.outcome.to_json(), t.outcome.to_json(), "tracing changed an outcome");
    }
    assert_eq!(plain_batch.makespan_ns, traced_batch.makespan_ns);
    assert_eq!(plain_batch.launches, traced_batch.launches);
    assert!(!traced_dev.tracer().events().is_empty(), "traced batch run must record events");
}
