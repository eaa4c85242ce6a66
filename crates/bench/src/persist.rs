//! The `figures persist` experiment: persistent-kernel execution (one
//! resident launch per app) against classic per-round multi-launch.
//!
//! Two sections, both byte-deterministic:
//!
//! * **detail** — a per-app comparison on the tiny-profile corpus: the
//!   worklist engine runs every app twice on fresh devices, once
//!   multi-launch and once persistent. Facts (FNV digest over the sorted
//!   per-method bitmap words) and verdict reports are asserted identical
//!   per app; launch counts are read off each device (one launch per
//!   fixpoint round vs exactly one per app).
//! * **corpus** — both modes streamed window by window over the
//!   `small`-profile corpus at N on long-lived devices, with per-app
//!   report and fact-digest identity asserted in-run.
//!
//! A **sync_profile** block prices the trade the mode makes: launch
//! overheads saved (one per app instead of one per round) against the
//! modeled grid-wide sync charged between the rounds of a resident
//! launch (`grid_sync_cycles`) and the device-side worklist queue cost
//! (`queue_op_cycles`, contention-scaled).

use crate::corpus::{corpus_prep, fact_digest};
use gdroid_apk::{Corpus, GenConfig, PAPER_MASTER_SEED};
use gdroid_core::ExecMode;
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_serve::fnv1a;
use gdroid_vetting::{prepare_vetting, run, Plan, PreparedApp, VettingRun};

/// Window size of the streamed corpus section.
pub const PERSIST_WINDOW: usize = 8;

/// How many tiny-profile apps the detail section compares.
pub const PERSIST_DETAIL_APPS: usize = 20;

/// One app's multi-launch-vs-persistent measurement.
pub struct PersistPoint {
    /// Corpus index.
    pub app: usize,
    /// Multi-launch modeled IDFG time (ns).
    pub multi_ns: f64,
    /// Persistent-kernel modeled IDFG time (ns).
    pub persist_ns: f64,
    /// Kernel launches the multi-launch run performed (one per round).
    pub multi_launches: u64,
    /// Kernel launches the persistent run performed (one per app).
    pub persist_launches: u64,
    /// Total per-method worklist rounds (identical across modes).
    pub rounds: usize,
    /// Leaks in the (byte-identical) verdicts.
    pub leaks: usize,
}

impl PersistPoint {
    fn to_json(&self) -> String {
        format!(
            "{{\"app\":{},\"multi_ns\":{:.1},\"persist_ns\":{:.1},\"multi_launches\":{},\
             \"persist_launches\":{},\"rounds\":{},\"leaks\":{}}}",
            self.app,
            self.multi_ns,
            self.persist_ns,
            self.multi_launches,
            self.persist_launches,
            self.rounds,
            self.leaks,
        )
    }
}

/// The persistent-kernel plan compared against the default plan.
fn persistent() -> Plan {
    Plan { exec: ExecMode::Persistent, ..Plan::default() }
}

/// Runs one app in both modes on fresh devices, asserting fact and
/// verdict identity, and returns both runs beside their launch counts.
fn run_both_modes(prep: &PreparedApp, label: usize) -> (VettingRun, VettingRun, u64, u64) {
    let mut md = Device::new(DeviceConfig::tesla_p40());
    let (multi, _) =
        run(prep, &Plan::default(), &mut md, None).expect("a fresh device has no fault plan");
    let mut pd = Device::new(DeviceConfig::tesla_p40());
    let (per, _) =
        run(prep, &persistent(), &mut pd, None).expect("a fresh device has no fault plan");
    assert_eq!(
        per.outcome.report.to_json(),
        multi.outcome.report.to_json(),
        "app {label}: persistent verdict diverged from multi-launch"
    );
    assert_eq!(
        fact_digest(&per),
        fact_digest(&multi),
        "app {label}: persistent facts diverged from multi-launch"
    );
    let (ml, pl) = (md.launches(), pd.launches());
    (multi, per, ml, pl)
}

/// Runs one detail point: both modes on fresh devices with identity
/// asserted, launch counts read off the devices.
pub fn run_persist_point(app: usize) -> PersistPoint {
    let prep = corpus_prep(app, &GenConfig::tiny());
    let (multi, per, multi_launches, persist_launches) = run_both_modes(&prep, app);
    assert!(
        persist_launches <= 1,
        "app {app}: a persistent fixpoint must be one resident launch, got {persist_launches}"
    );
    PersistPoint {
        app,
        multi_ns: multi.outcome.timing.idfg_ns,
        persist_ns: per.outcome.timing.idfg_ns,
        multi_launches,
        persist_launches,
        rounds: multi.outcome.telemetry.rounds,
        leaks: multi.outcome.report.leaks.len(),
    }
}

/// Runs the detail and corpus sections and returns `(json, summary)`.
/// `detail_apps` sizes the detail section (the canonical run uses
/// [`PERSIST_DETAIL_APPS`]), `corpus_apps` the streamed section.
pub fn persist_benchmark(detail_apps: usize, corpus_apps: usize, scale: f64) -> (String, String) {
    let detail_apps = detail_apps.max(2);
    let corpus_apps = corpus_apps.max(PERSIST_WINDOW);
    let points: Vec<PersistPoint> = (0..detail_apps).map(run_persist_point).collect();

    let multi_ns = points.iter().map(|p| p.multi_ns).sum::<f64>();
    let persist_ns = points.iter().map(|p| p.persist_ns).sum::<f64>();
    let multi_launches: u64 = points.iter().map(|p| p.multi_launches).sum();
    let persist_launches: u64 = points.iter().map(|p| p.persist_launches).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 1.0 };

    // Price the trade from the device model: every multi-launch round
    // beyond the per-app first becomes a saved launch overhead; every
    // round of a resident launch is charged one grid-wide sync instead.
    // (Persistent rounds mirror multi-launch rounds one to one.)
    let config = DeviceConfig::tesla_p40();
    let launch_overhead_ns = config.launch_overhead_us * 1e3;
    let grid_sync_ns = config.cycles_to_ns(config.grid_sync_cycles);
    let saved_launches = multi_launches.saturating_sub(persist_launches);
    let sync_profile = format!(
        "{{\"launch_overhead_us\":{:.1},\"grid_sync_cycles\":{},\"queue_op_cycles\":{},\
         \"saved_launches\":{saved_launches},\"launch_overhead_saved_ns\":{:.1},\
         \"grid_sync_added_ns\":{:.1}}}",
        config.launch_overhead_us,
        config.grid_sync_cycles,
        config.queue_op_cycles,
        saved_launches as f64 * launch_overhead_ns,
        multi_launches as f64 * grid_sync_ns,
    );

    // Streamed corpus section: both modes on long-lived devices.
    let mut gen = GenConfig::small();
    gen.scale *= scale;
    let corpus = Corpus { master_seed: PAPER_MASTER_SEED, size: corpus_apps, config: gen };
    let mut multi_device = Device::new(DeviceConfig::tesla_p40());
    let mut persist_device = Device::new(DeviceConfig::tesla_p40());
    let mut corpus_multi_ns = 0.0;
    let mut corpus_persist_ns = 0.0;
    let mut suspicious = 0usize;
    let mut verdict_lines = String::new();
    let mut stream = corpus.stream_all().peekable();
    while stream.peek().is_some() {
        let window: Vec<_> = stream.by_ref().take(PERSIST_WINDOW).collect();
        for (index, app) in window {
            let prep = prepare_vetting(app);
            let (m, _) = run(&prep, &Plan::default(), &mut multi_device, None)
                .expect("no fault plan installed");
            let (p, _) = run(&prep, &persistent(), &mut persist_device, None)
                .expect("no fault plan installed");
            assert_eq!(
                p.outcome.report.to_json(),
                m.outcome.report.to_json(),
                "app {index}: persistent verdict diverged from multi-launch"
            );
            assert_eq!(
                fact_digest(&p),
                fact_digest(&m),
                "app {index}: persistent facts diverged from multi-launch"
            );
            corpus_multi_ns += m.outcome.timing.idfg_ns;
            corpus_persist_ns += p.outcome.timing.idfg_ns;
            suspicious += usize::from(!m.outcome.report.leaks.is_empty());
            use std::fmt::Write;
            writeln!(
                verdict_lines,
                "{:06} {} {:?} {:016x}",
                index,
                prep.app.manifest.package,
                m.outcome.report.verdict,
                fnv1a(m.outcome.report.to_json().as_bytes())
            )
            .expect("writing to String cannot fail");
        }
    }
    let corpus_multi_launches = multi_device.launches();
    let corpus_persist_launches = persist_device.launches();

    let rows = points.iter().map(PersistPoint::to_json).collect::<Vec<_>>().join(",");
    let json = format!(
        "{{\"detail\":{{\"apps\":{detail_apps},\"profile\":\"tiny\",\
         \"multi_ns\":{multi_ns:.1},\"persist_ns\":{persist_ns:.1},\"speedup\":{:.4},\
         \"multi_launches\":{multi_launches},\"persist_launches\":{persist_launches},\
         \"per_app\":[{rows}]}},\"sync_profile\":{sync_profile},\
         \"corpus\":{{\"apps\":{corpus_apps},\"profile\":\"small\",\"scale\":{scale:.3},\
         \"multi_ns\":{corpus_multi_ns:.1},\"persist_ns\":{corpus_persist_ns:.1},\
         \"speedup\":{:.4},\"multi_launches\":{corpus_multi_launches},\
         \"persist_launches\":{corpus_persist_launches},\"suspicious\":{suspicious},\
         \"clean\":{},\"verdict_digest\":\"{:016x}\"}}}}",
        ratio(multi_ns, persist_ns),
        ratio(corpus_multi_ns, corpus_persist_ns),
        corpus_apps - suspicious,
        fnv1a(verdict_lines.as_bytes()),
    );

    let mut summary = format!(
        "persistent kernels vs multi-launch ({detail_apps} tiny apps; facts and verdicts \
         asserted mode-identical)\n  multi      {:>12.3} ms  ({multi_launches} launches)\n  \
         persistent {:>12.3} ms  ({persist_launches} launches, {:.2}x)\n",
        multi_ns / 1e6,
        persist_ns / 1e6,
        ratio(multi_ns, persist_ns),
    );
    summary.push_str(&format!(
        "  trade: {saved_launches} launch overheads saved ({:.1} us), \
         {multi_launches} grid syncs added ({:.1} us)\n",
        saved_launches as f64 * launch_overhead_ns / 1e3,
        multi_launches as f64 * grid_sync_ns / 1e3,
    ));
    summary.push_str(&format!(
        "  corpus ({corpus_apps} small apps): multi {:.1} ms / {corpus_multi_launches} launches, \
         persistent {:.1} ms / {corpus_persist_launches} launches ({:.2}x), \
         {suspicious} suspicious\n",
        corpus_multi_ns / 1e6,
        corpus_persist_ns / 1e6,
        ratio(corpus_multi_ns, corpus_persist_ns),
    ));
    (json, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_benchmark_is_deterministic_and_mode_identical() {
        let (a, summary) = persist_benchmark(2, 8, 0.02);
        let (b, _) = persist_benchmark(2, 8, 0.02);
        assert_eq!(a, b, "BENCH_persist.json must be byte-deterministic");
        assert!(a.contains("\"sync_profile\":{\"launch_overhead_us\":"));
        assert!(a.contains("\"verdict_digest\":\""));
        assert!(summary.contains("persistent kernels vs multi-launch"));
    }

    #[test]
    fn persist_point_collapses_launches_without_changing_rounds() {
        let p = run_persist_point(1);
        assert!(p.multi_ns > 0.0 && p.persist_ns > 0.0);
        assert_eq!(p.persist_launches, 1, "one resident launch per app");
        assert!(p.multi_launches >= 1, "multi-launch must have launched at least once");
        if p.multi_launches > 1 {
            assert!(
                p.persist_ns < p.multi_ns,
                "persistent must model faster once >1 launch is saved"
            );
        }
    }
}
