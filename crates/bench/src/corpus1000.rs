//! The `figures corpus1000` experiment: the paper's speedup ladder at
//! corpus scale, streamed.
//!
//! The evaluation's headline claim is made over 1000 Google Play apps;
//! this experiment reproduces the whole ladder at that N on the
//! synthetic corpus, streaming window by window so memory stays bounded
//! (nothing but the current 8-app window is ever resident):
//!
//! * **kernel rungs** — every app solo on PLAIN, MAT, MAT+GRP, and full
//!   GDroid (modeled IDFG time summed per rung);
//! * **targeted lane** — every app demand-driven (backward sink slice),
//!   verdict asserted byte-identical to the full GDroid run;
//! * **co-resident batching** — every window re-run in groups of
//!   K ∈ {2, 4, 8}, per-app outcomes asserted byte-identical to solo;
//! * **summary store** — a sequential cold pass over the same corpus
//!   re-generated with shared libraries, store-backed, on one device (the
//!   sequential order makes store hits deterministic).
//!
//! Every number in `BENCH_corpus1000.json` is modeled or counted, so the
//! file is byte-deterministic across reruns — CI compares two small-N
//! generations with `cmp`.

use gdroid_apk::{Corpus, GenConfig, PAPER_MASTER_SEED};
use gdroid_core::OptConfig;
use gdroid_gpusim::{Device, DeviceConfig};
use gdroid_serve::fnv1a;
use gdroid_vetting::{
    execute_vetting_batch_on_device, execute_vetting_on_device_with_store, prepare_vetting, run,
    Plan, PreparedApp,
};

/// Window size of the streamed sweep — also the largest batching degree.
pub const WINDOW: usize = 8;

/// One kernel rung of the ladder.
pub struct LadderRung {
    /// Rung label (`plain` / `mat` / `matgrp` / `gdroid`).
    pub label: &'static str,
    /// Summed modeled IDFG time over the corpus (ns).
    pub idfg_ns: f64,
}

/// The corpus-scale ladder results.
pub struct Corpus1000 {
    /// Apps vetted.
    pub apps: usize,
    /// Generator scale applied to the `small` profile.
    pub scale: f64,
    /// The four kernel rungs, slowest first.
    pub rungs: Vec<LadderRung>,
    /// Summed targeted (sliced) modeled IDFG time (ns).
    pub targeted_ns: f64,
    /// Mean sliced fraction over the corpus.
    pub mean_sliced_fraction: f64,
    /// Per-degree (K, summed batched makespan ns, launches) triples.
    pub batch: Vec<(usize, f64, usize)>,
    /// Summed solo GDroid device makespans the batch points compare to
    /// (ns).
    pub solo_makespan_ns: f64,
    /// Summed store-backed modeled IDFG time over the library corpus
    /// (ns).
    pub sumstore_ns: f64,
    /// Summed store-free modeled IDFG time over the library corpus (ns).
    pub sumstore_baseline_ns: f64,
    /// Store hits of the sequential cold pass.
    pub sumstore_hits: u64,
    /// Suspicious verdicts.
    pub suspicious: usize,
    /// FNV-1a over the sorted per-app verdict lines.
    pub verdict_digest: u64,
}

impl Corpus1000 {
    /// The byte-deterministic JSON document (`BENCH_corpus1000.json`).
    pub fn to_json(&self) -> String {
        let plain_ns = self.rungs.first().map_or(0.0, |r| r.idfg_ns);
        let gdroid_ns = self.rungs.last().map_or(0.0, |r| r.idfg_ns);
        let speedup = |ns: f64| if ns > 0.0 { plain_ns / ns } else { 1.0 };
        let rungs: Vec<String> = self
            .rungs
            .iter()
            .map(|r| {
                format!(
                    "{{\"engine\":\"{}\",\"idfg_ns\":{:.1},\"speedup\":{:.4}}}",
                    r.label,
                    r.idfg_ns,
                    speedup(r.idfg_ns)
                )
            })
            .collect();
        let batch: Vec<String> = self
            .batch
            .iter()
            .map(|(k, ns, launches)| {
                format!(
                    "{{\"coresident\":{},\"batched_ns\":{:.1},\"launches\":{},\"speedup\":{:.4}}}",
                    k,
                    ns,
                    launches,
                    if *ns > 0.0 { self.solo_makespan_ns / ns } else { 1.0 }
                )
            })
            .collect();
        format!(
            "{{\"apps\":{},\"profile\":\"small\",\"scale\":{:.3},\"rungs\":[{}],\
             \"targeted\":{{\"idfg_ns\":{:.1},\"speedup_vs_full\":{:.4},\
             \"mean_sliced_fraction\":{:.6}}},\"batch\":{{\"solo_makespan_ns\":{:.1},\
             \"points\":[{}]}},\"sumstore\":{{\"idfg_ns\":{:.1},\"baseline_ns\":{:.1},\
             \"speedup\":{:.4},\"hits\":{}}},\"verdicts\":{{\"suspicious\":{},\"clean\":{},\
             \"digest\":\"{:016x}\"}}}}",
            self.apps,
            self.scale,
            rungs.join(","),
            self.targeted_ns,
            if self.targeted_ns > 0.0 { gdroid_ns / self.targeted_ns } else { 1.0 },
            self.mean_sliced_fraction,
            self.solo_makespan_ns,
            batch.join(","),
            self.sumstore_ns,
            self.sumstore_baseline_ns,
            if self.sumstore_ns > 0.0 { self.sumstore_baseline_ns / self.sumstore_ns } else { 1.0 },
            self.sumstore_hits,
            self.suspicious,
            self.apps - self.suspicious,
            self.verdict_digest,
        )
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let plain_ns = self.rungs.first().map_or(0.0, |r| r.idfg_ns);
        let gdroid_ns = self.rungs.last().map_or(0.0, |r| r.idfg_ns);
        let mut out = format!(
            "corpus-scale ladder over {} apps (small profile x {:.2})\n",
            self.apps, self.scale
        );
        for r in &self.rungs {
            writeln!(
                out,
                "  {:<7} {:>12.1} ms  ({:.2}x vs plain)",
                r.label,
                r.idfg_ns / 1e6,
                if r.idfg_ns > 0.0 { plain_ns / r.idfg_ns } else { 1.0 }
            )
            .unwrap();
        }
        writeln!(
            out,
            "  targeted {:>10.1} ms  ({:.2}x vs full gdroid, {:.1}% sliced mean)",
            self.targeted_ns / 1e6,
            if self.targeted_ns > 0.0 { gdroid_ns / self.targeted_ns } else { 1.0 },
            100.0 * self.mean_sliced_fraction
        )
        .unwrap();
        for (k, ns, launches) in &self.batch {
            writeln!(
                out,
                "  batch K{k} {:>9.1} ms  ({:.2}x vs solo, {launches} launches)",
                ns / 1e6,
                if *ns > 0.0 { self.solo_makespan_ns / ns } else { 1.0 }
            )
            .unwrap();
        }
        writeln!(
            out,
            "  sumstore {:>10.1} ms  ({:.2}x vs store-free, {} hits)",
            self.sumstore_ns / 1e6,
            if self.sumstore_ns > 0.0 { self.sumstore_baseline_ns / self.sumstore_ns } else { 1.0 },
            self.sumstore_hits
        )
        .unwrap();
        writeln!(
            out,
            "  verdicts: {} suspicious / {} clean, digest {:016x}",
            self.suspicious,
            self.apps - self.suspicious,
            self.verdict_digest
        )
        .unwrap();
        out
    }
}

/// Runs the streamed corpus-scale ladder. `scale` multiplies the `small`
/// generator profile. Returns `(json, human_summary)`.
pub fn corpus1000_benchmark(apps: usize, scale: f64) -> (String, String) {
    let apps = apps.max(WINDOW);
    let mut gen = GenConfig::small();
    gen.scale *= scale;
    let corpus = Corpus { master_seed: PAPER_MASTER_SEED, size: apps, config: gen.clone() };

    type Rung = (&'static str, fn() -> OptConfig);
    const RUNGS: [Rung; 4] = [
        ("plain", OptConfig::plain),
        ("mat", OptConfig::mat),
        ("matgrp", OptConfig::mat_grp),
        ("gdroid", OptConfig::gdroid),
    ];
    let mut rung_ns = [0.0f64; 4];
    let mut devices: Vec<Device> =
        (0..RUNGS.len() + 1).map(|_| Device::new(DeviceConfig::tesla_p40())).collect();

    let mut targeted_ns = 0.0;
    let mut sliced_sum = 0.0;
    let mut batch: Vec<(usize, f64, usize)> = vec![(2, 0.0, 0), (4, 0.0, 0), (8, 0.0, 0)];
    let mut solo_makespan_ns = 0.0;
    let mut suspicious = 0usize;
    let mut verdict_lines = String::new();

    // Streamed window sweep: prepare 8 apps, run every lane, discard.
    let mut stream = corpus.stream_all().peekable();
    let mut batch_device = Device::new(DeviceConfig::tesla_p40());
    while stream.peek().is_some() {
        let window: Vec<(usize, PreparedApp)> =
            stream.by_ref().take(WINDOW).map(|(i, app)| (i, prepare_vetting(app))).collect();
        let mut gdroid_refs: Vec<String> = Vec::with_capacity(window.len());
        for (index, prep) in &window {
            for (r, (_, opt)) in RUNGS.iter().enumerate() {
                let plan = Plan { opts: opt(), ..Plan::default() };
                let (rung, _) =
                    run(prep, &plan, &mut devices[r], None).expect("no fault plan installed");
                rung_ns[r] += rung.outcome.timing.idfg_ns;
                if r == RUNGS.len() - 1 {
                    solo_makespan_ns += rung.outcome.timing.idfg_ns;
                    suspicious += usize::from(!rung.outcome.report.leaks.is_empty());
                    use std::fmt::Write;
                    writeln!(
                        verdict_lines,
                        "{:06} {} {:?} {:016x}",
                        index,
                        prep.app.manifest.package,
                        rung.outcome.report.verdict,
                        fnv1a(rung.outcome.report.to_json().as_bytes())
                    )
                    .expect("writing to String cannot fail");
                    gdroid_refs.push(rung.outcome.report.to_json());
                }
            }
            let targeted = Plan { targeted: true, ..Plan::default() };
            let (t, _) = run(prep, &targeted, &mut devices[RUNGS.len()], None)
                .expect("no fault plan installed");
            assert_eq!(
                t.outcome.report.to_json(),
                gdroid_refs.last().expect("gdroid rung ran first").as_str(),
                "app {index}: targeted verdict diverged from full gdroid"
            );
            targeted_ns += t.outcome.timing.idfg_ns;
            sliced_sum += t.outcome.targeted.as_ref().map_or(1.0, |p| p.sliced_fraction);
        }
        for (k, total_ns, launches) in batch.iter_mut() {
            for (chunk_base, chunk) in window.chunks(*k).enumerate() {
                let preps: Vec<&PreparedApp> = chunk.iter().map(|(_, p)| p).collect();
                let (runs, b) =
                    execute_vetting_batch_on_device(&preps, &mut batch_device, OptConfig::gdroid())
                        .expect("no fault plan installed");
                for (j, run) in runs.iter().enumerate() {
                    assert_eq!(
                        run.outcome.report.to_json(),
                        gdroid_refs[chunk_base * *k + j],
                        "batched app diverged from solo at K {k}"
                    );
                }
                *total_ns += b.makespan_ns;
                *launches += b.launches;
            }
        }
    }

    // Summary-store lane: the same corpus re-generated with shared
    // libraries, vetted sequentially (cold store) on one device — and
    // store-free as the baseline.
    let lib_gen = gen.with_libraries(2, 4);
    let lib_corpus = Corpus { master_seed: PAPER_MASTER_SEED, size: apps, config: lib_gen };
    let store = gdroid_sumstore::SumStore::new();
    let mut store_device = Device::new(DeviceConfig::tesla_p40());
    let mut sumstore_ns = 0.0;
    let mut sumstore_baseline_ns = 0.0;
    for (_, app) in lib_corpus.stream_all() {
        let prep = prepare_vetting(app);
        let (baseline, _) =
            run(&prep, &Plan::default(), &mut store_device, None).expect("no fault plan installed");
        sumstore_baseline_ns += baseline.outcome.timing.idfg_ns;
        let (run, _) = execute_vetting_on_device_with_store(
            &prep,
            &mut store_device,
            OptConfig::gdroid(),
            &store,
        )
        .expect("no fault plan installed");
        assert_eq!(
            run.outcome.report.to_json(),
            baseline.outcome.report.to_json(),
            "store-backed verdict diverged from store-free"
        );
        sumstore_ns += run.outcome.timing.idfg_ns;
    }

    let result = Corpus1000 {
        apps,
        scale,
        rungs: RUNGS
            .iter()
            .zip(rung_ns)
            .map(|((label, _), idfg_ns)| LadderRung { label, idfg_ns })
            .collect(),
        targeted_ns,
        mean_sliced_fraction: sliced_sum / apps as f64,
        batch,
        solo_makespan_ns,
        sumstore_ns,
        sumstore_baseline_ns,
        sumstore_hits: store.stats().hits,
        suspicious,
        verdict_digest: fnv1a(verdict_lines.as_bytes()),
    };
    (result.to_json(), result.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_ladder_is_deterministic_and_ordered() {
        // Tiny scale keeps this double run debug-build friendly; CI's
        // release smoke covers a larger N (see ci/check.sh).
        let (a, summary) = corpus1000_benchmark(8, 0.02);
        let (b, _) = corpus1000_benchmark(8, 0.02);
        assert_eq!(a, b, "BENCH_corpus1000.json must be byte-deterministic");
        assert!(a.contains("\"engine\":\"plain\"") && a.contains("\"engine\":\"gdroid\""));
        assert!(a.contains("\"coresident\":8"));
        assert!(summary.contains("corpus-scale ladder"));
        // The ladder must be monotone: each rung at least as fast as the
        // one before, and targeted no slower than full gdroid.
        let ns: Vec<f64> = ["plain", "mat", "matgrp", "gdroid"]
            .iter()
            .map(|label| {
                let key = format!("\"engine\":\"{label}\",\"idfg_ns\":");
                let tail = &a[a.find(&key).unwrap() + key.len()..];
                tail[..tail.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert!(ns[0] >= ns[1] && ns[1] >= ns[2] && ns[2] >= ns[3], "ladder not monotone: {ns:?}");
    }
}
