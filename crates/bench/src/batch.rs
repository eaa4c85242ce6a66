//! The `figures batch` experiment: co-resident multi-app batching.
//!
//! A small corpus is vetted solo (one device run per app), then again in
//! co-resident groups of K ∈ {1, 2, 4, 8}: each group's apps share every
//! kernel launch ([`gdroid_core::gpu_analyze_batch_on`]), filling block
//! slots that a narrow per-app layer would leave idle. Per-app outcomes
//! are asserted byte-identical to solo at every K, and every group's
//! makespan is asserted no worse than the sum of its members' solo
//! makespans (launch and transfer overheads are shared, never added).
//!
//! Every number emitted into `BENCH_batch.json` is modeled (makespans,
//! utilization) or counted (launches), so the file is byte-deterministic
//! for a fixed corpus.

use crate::corpus::corpus_preps;
use gdroid_apk::GenConfig;
use gdroid_core::OptConfig;
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_vetting::{execute_vetting_batch_on_device, run, Plan, PreparedApp};

/// One co-residency-degree measurement.
pub struct BatchPoint {
    /// Apps co-scheduled per group (K).
    pub coresident: usize,
    /// Apps in the corpus.
    pub apps: usize,
    /// Groups the corpus was chunked into.
    pub groups: usize,
    /// Shared kernel launches summed over all groups.
    pub launches: usize,
    /// Summed solo makespans of the same corpus (ns).
    pub solo_ns: f64,
    /// Summed group makespans under co-residency K (ns).
    pub batched_ns: f64,
    /// Launch-weighted mean block-slot utilization of the shared launches.
    pub utilization: f64,
    /// Launch-weighted mean distinct apps per shared launch.
    pub mean_coresidency: f64,
}

impl BatchPoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"coresident\":{},\"apps\":{},\"groups\":{},\"launches\":{},\
             \"solo_ns\":{:.1},\"batched_ns\":{:.1},\"speedup\":{:.4},\
             \"utilization\":{:.4},\"mean_coresidency\":{:.3}}}",
            self.coresident,
            self.apps,
            self.groups,
            self.launches,
            self.solo_ns,
            self.batched_ns,
            if self.batched_ns > 0.0 { self.solo_ns / self.batched_ns } else { 1.0 },
            self.utilization,
            self.mean_coresidency,
        )
    }
}

/// Runs one co-residency point over an already-prepared corpus, checking
/// every app's outcome against its solo reference JSON.
pub fn run_batch_point(
    preps: &[PreparedApp],
    solo_refs: &[String],
    solo_ns: &[f64],
    coresident: usize,
) -> BatchPoint {
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let mut point = BatchPoint {
        coresident,
        apps: preps.len(),
        groups: 0,
        launches: 0,
        solo_ns: solo_ns.iter().sum(),
        batched_ns: 0.0,
        utilization: 0.0,
        mean_coresidency: 0.0,
    };
    for (chunk_idx, chunk) in preps.chunks(coresident.max(1)).enumerate() {
        let refs: Vec<&PreparedApp> = chunk.iter().collect();
        let (runs, batch) =
            execute_vetting_batch_on_device(&refs, &mut device, OptConfig::gdroid())
                .expect("no fault plan installed");
        let base = chunk_idx * coresident.max(1);
        let mut group_solo_ns = 0.0;
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(
                run.outcome.to_json(),
                solo_refs[base + i],
                "app {} diverged from solo at coresidency {coresident}",
                base + i
            );
            group_solo_ns += solo_ns[base + i];
        }
        assert!(
            batch.makespan_ns <= group_solo_ns * 1.000001,
            "group {chunk_idx} makespan {} exceeds summed solo {group_solo_ns} at K {coresident}",
            batch.makespan_ns
        );
        point.groups += 1;
        point.launches += batch.launches;
        point.batched_ns += batch.makespan_ns;
        point.utilization += batch.utilization * batch.launches as f64;
        point.mean_coresidency += batch.mean_coresidency * batch.launches as f64;
    }
    if point.launches > 0 {
        point.utilization /= point.launches as f64;
        point.mean_coresidency /= point.launches as f64;
    }
    point
}

/// Runs the co-residency sweep and returns `(json, human_summary)`.
pub fn batch_benchmark(apps: usize) -> (String, String) {
    let apps = apps.max(4);
    let preps: Vec<PreparedApp> = corpus_preps(apps, &GenConfig::tiny());

    // Solo baseline: one run per app on a long-lived device; the outcome
    // JSONs are the byte-identity references for every sweep point.
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let mut solo_refs = Vec::with_capacity(apps);
    let mut solo_ns = Vec::with_capacity(apps);
    for prep in &preps {
        let (solo, _) =
            run(prep, &Plan::default(), &mut device, None).expect("no fault plan installed");
        solo_ns.push(solo.outcome.timing.idfg_ns);
        solo_refs.push(solo.outcome.to_json());
    }

    let points: Vec<BatchPoint> =
        [1, 2, 4, 8].map(|k| run_batch_point(&preps, &solo_refs, &solo_ns, k)).into();

    let mut summary = format!("co-resident batching over a {apps}-app corpus (TESLA P40 model)\n");
    for p in &points {
        summary.push_str(&format!(
            "  K {:>2} ({:>2} groups, {:>4} launches): {:>9.3} ms vs solo {:>9.3} ms \
             ({:.2}x, {:>5.1}% slots, {:.2} apps/launch)\n",
            p.coresident,
            p.groups,
            p.launches,
            p.batched_ns / 1e6,
            p.solo_ns / 1e6,
            if p.batched_ns > 0.0 { p.solo_ns / p.batched_ns } else { 1.0 },
            100.0 * p.utilization,
            p.mean_coresidency,
        ));
    }
    summary
        .push_str("  (per-app outcomes byte-identical to solo at every K; asserted per group)\n");
    let rows = points.iter().map(BatchPoint::to_json).collect::<Vec<_>>().join(",");
    (format!("{{\"points\":[{rows}]}}"), summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coresidency_shares_launches_without_changing_outcomes() {
        let (json, summary) = batch_benchmark(6);
        assert!(json.contains("\"coresident\":1") && json.contains("\"coresident\":4"));
        assert!(summary.contains("co-resident batching"));
        // K = 1 through the batch driver must reproduce solo exactly
        // (speedup 1.0000 modulo the shared-pipeline rounding in print).
        assert!(json.contains("\"coresident\":1,\"apps\":6,\"groups\":6"));
    }

    #[test]
    fn batch_benchmark_is_deterministic() {
        let (a, _) = batch_benchmark(4);
        let (b, _) = batch_benchmark(4);
        assert_eq!(a, b);
    }
}
