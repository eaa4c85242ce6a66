//! The `figures targeted` experiment: demand-driven (sliced) vetting.
//!
//! Every corpus app is vetted twice on a long-lived device: once in full,
//! once through the targeted path ([`gdroid_vetting::targeted`]), which
//! restricts the GPU worklist to the backward slice of the sink call
//! sites. The verdict JSON is asserted byte-identical per app, and the
//! targeted modeled IDFG makespan is asserted no worse than the full one
//! (the sliced worklist is a subset of the full launches).
//!
//! Every number in `BENCH_targeted.json` is modeled (makespans) or
//! counted (slice shape), so the file is byte-deterministic for a fixed
//! corpus.

use crate::corpus::corpus_prep;
use gdroid_apk::GenConfig;
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_vetting::{run, Plan};

/// One app's full-vs-targeted measurement.
pub struct TargetedPoint {
    /// Corpus index.
    pub app: usize,
    /// Slice members analyzed by the targeted run.
    pub slice_methods: usize,
    /// Full reachable method set the slice was cut from.
    pub total_reachable: usize,
    /// `slice_methods / total_reachable`.
    pub sliced_fraction: f64,
    /// Leaks in the (agreeing) verdicts.
    pub leaks: usize,
    /// Full modeled IDFG makespan (ns).
    pub full_ns: f64,
    /// Targeted modeled IDFG makespan (ns).
    pub targeted_ns: f64,
}

impl TargetedPoint {
    fn speedup(&self) -> f64 {
        // An empty slice finishes in 0 modeled ns; clamp the denominator
        // so the emitted ratio stays finite (and deterministic).
        self.full_ns / self.targeted_ns.max(1.0)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"app\":{},\"slice_methods\":{},\"total_reachable\":{},\
             \"sliced_fraction\":{:.6},\"leaks\":{},\"full_ns\":{:.1},\"targeted_ns\":{:.1},\
             \"speedup\":{:.4}}}",
            self.app,
            self.slice_methods,
            self.total_reachable,
            self.sliced_fraction,
            self.leaks,
            self.full_ns,
            self.targeted_ns,
            self.speedup(),
        )
    }
}

/// Vets one prepared corpus app full and targeted, asserting verdict
/// agreement and makespan dominance.
pub fn run_targeted_point(app: usize) -> TargetedPoint {
    let prep = corpus_prep(app, &GenConfig::tiny());
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let (full, _) =
        run(&prep, &Plan::default(), &mut device, None).expect("no fault plan installed");
    let plan = Plan { targeted: true, ..Plan::default() };
    let (targeted, _) = run(&prep, &plan, &mut device, None).expect("no fault plan installed");
    assert_eq!(
        targeted.outcome.report.to_json(),
        full.outcome.report.to_json(),
        "app {app}: targeted verdict diverged from full"
    );
    let prov = targeted.outcome.targeted.expect("targeted run must carry provenance");
    let full_ns = full.outcome.timing.idfg_ns;
    let targeted_ns = targeted.outcome.timing.idfg_ns;
    assert!(
        targeted_ns <= full_ns * 1.000001,
        "app {app}: targeted makespan {targeted_ns} exceeds full {full_ns}"
    );
    TargetedPoint {
        app,
        slice_methods: prov.slice_methods,
        total_reachable: prov.total_reachable,
        sliced_fraction: prov.sliced_fraction,
        leaks: full.outcome.report.leaks.len(),
        full_ns,
        targeted_ns,
    }
}

/// Runs the full-vs-targeted sweep and returns `(json, human_summary)`.
pub fn targeted_benchmark(apps: usize) -> (String, String) {
    let apps = apps.max(4);
    let points: Vec<TargetedPoint> = (0..apps).map(run_targeted_point).collect();

    let full_ns: f64 = points.iter().map(|p| p.full_ns).sum();
    let targeted_ns: f64 = points.iter().map(|p| p.targeted_ns).sum();
    let mean_fraction: f64 =
        points.iter().map(|p| p.sliced_fraction).sum::<f64>() / points.len() as f64;
    let leaky = points.iter().filter(|p| p.leaks > 0).count();

    let mut summary =
        format!("demand-driven targeted vetting over a {apps}-app corpus (TESLA P40 model)\n");
    summary.push_str(&format!(
        "  corpus makespan: {:>9.3} ms full vs {:>9.3} ms targeted ({:.2}x)\n",
        full_ns / 1e6,
        targeted_ns / 1e6,
        full_ns / targeted_ns.max(1.0),
    ));
    summary.push_str(&format!(
        "  mean sliced fraction {:.3} ({leaky}/{apps} apps leaky; verdicts byte-identical,\n  \
         asserted per app)\n",
        mean_fraction,
    ));
    let rows = points.iter().map(TargetedPoint::to_json).collect::<Vec<_>>().join(",");
    let json = format!(
        "{{\"apps\":{apps},\"full_ns\":{full_ns:.1},\"targeted_ns\":{targeted_ns:.1},\
         \"speedup\":{:.4},\"mean_sliced_fraction\":{mean_fraction:.6},\"per_app\":[{rows}]}}",
        full_ns / targeted_ns.max(1.0),
    );
    (json, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targeted_sweep_agrees_and_reports_slice_shape() {
        let (json, summary) = targeted_benchmark(4);
        assert!(json.contains("\"apps\":4"));
        assert!(json.contains("\"mean_sliced_fraction\":"));
        assert!(json.contains("\"per_app\":[{\"app\":0,"));
        assert!(summary.contains("demand-driven targeted vetting"));
    }

    #[test]
    fn targeted_benchmark_is_deterministic() {
        let (a, _) = targeted_benchmark(4);
        let (b, _) = targeted_benchmark(4);
        assert_eq!(a, b);
    }
}
