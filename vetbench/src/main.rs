//! The vetting-campaign benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path vetbench/Cargo.toml -- \
//!     --workload campaign_full --seed 0xd401d --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. A run vets a fixed set of campaign
//! batches derived from `--seed`. `--trace 0` runs each batch through
//! `run_campaign` untraced and prints the end-to-end metrics. `--trace 1`
//! runs every batch once untraced, then drives the same apps one at a time
//! through the per-layer public calls with host-clock spans around each
//! call, and prints the per-layer metrics. Either way every app's verdict
//! and leak count is checked against the sequential Amandroid-CPU
//! reference, and the last line of standard output is the JSON result.
//! See `vetbench/README.md`.

use gdroid::analysis::{MatrixStore, MethodSpace, WorklistTelemetry};
use gdroid::apk::{Corpus, GenConfig};
use gdroid::campaign::{
    config_digest, read_rotated_tail, read_shard_records, run_campaign, AppRecord, CampaignConfig,
    FleetReport, JournalHeader, RecordStatus, SegmentedJournal, JOURNAL_VERSION,
};
use gdroid::core::{gpu_analyze_app_on, gpu_analyze_app_sliced_on, GpuRunStats, OptConfig};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::icfg::Cfg;
use gdroid::ir::MethodId;
use gdroid::serve::{fnv1a, ServiceReport};
use gdroid::sumstore::{canonical_hashes, SumStore};
use gdroid::vetting::{
    compute_vetting_slice, execute_vetting_on_device_with_store, prepare_vetting, vet_app, Engine,
    SourceSinkRegistry, TaintAnalysis,
};
use gdroid_vetbench::{
    cached_oracle, chrome_trace, median, oracle_mismatches, peak_rss_mb, percentile, result_json,
    self_times, Metric, OracleEntry, Recorder,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

/// Scratch state (journals, oracle cache, span dumps), relative to the
/// repository root the benchmark runs from.
const WORK_DIR: &str = "vetbench/.work";
/// Apps per campaign batch. Host cost per app is heavy-tailed (a few apps
/// take seconds of IDFG simulation), so throughput is the median over many
/// small batches rather than one long campaign's mean.
const BATCH_APPS: usize = 10;
/// Journal rotation: every batch seals segments.
const ROTATE_RECORDS: usize = 4;
/// Modeled taint cost per fact-row read. Mirrors the pipeline's cost
/// model; the traced run's modeled-sum gate fails if the two drift apart.
const TAINT_NS_PER_ROW: f64 = 280.0;
/// Shared-library packages per app on `campaign_libstore`.
const LIB_PACKAGES_PER_APP: usize = 3;
/// Expected copies of each library package in a libstore batch.
const LIB_DUPLICATION: usize = 4;
/// Class-count scale of the libstore apps' own code: half the `small`
/// profile, so the three library packages are about half of each app.
const LIB_APP_SCALE: f64 = 0.125;
/// Largest allowed gap between the summed host self times of the traced
/// run and its wall time, as a share of the wall time.
const SELF_TIME_TOLERANCE: f64 = 0.01;
/// The journal keeps each of an app's four modeled stage times to 0.1 ns,
/// so a journaled total may differ from the exact sum by this much.
const JOURNAL_ROUNDING_NS: f64 = 0.2;
/// Threads computing the oracle (the benchmark is sized for two cores).
const ORACLE_THREADS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Plan {
    /// Full program, GDroid worklist, multi-launch, no store.
    Full,
    /// Backward-slice (demand-driven) plan.
    Targeted,
    /// Full plan over a shared-library corpus with a cold summary store.
    LibStore,
}

impl Plan {
    /// Whether an app's modeled time is independent of the order in which
    /// the service completes apps. Store hits depend on that order, and
    /// with one prep worker and one device the order still depends on
    /// timing: the device takes the heavier of the two buffered apps.
    fn order_free(self) -> bool {
        self != Plan::LibStore
    }
}

/// A benchmark workload: `batches` one-shard closed-loop campaigns of
/// [`BATCH_APPS`] apps each.
struct Workload {
    name: &'static str,
    plan: Plan,
    batches: usize,
}

/// `campaign_targeted`'s first 30 batches are `campaign_full`'s batches.
const WORKLOADS: [Workload; 3] = [
    Workload { name: "campaign_full", plan: Plan::Full, batches: 30 },
    Workload { name: "campaign_targeted", plan: Plan::Targeted, batches: 50 },
    Workload { name: "campaign_libstore", plan: Plan::LibStore, batches: 30 },
];

impl Workload {
    fn gen(&self) -> GenConfig {
        match self.plan {
            Plan::LibStore => GenConfig { scale: LIB_APP_SCALE, ..GenConfig::small() }
                .with_libraries(
                    LIB_PACKAGES_PER_APP,
                    BATCH_APPS * LIB_PACKAGES_PER_APP / LIB_DUPLICATION,
                ),
            Plan::Full | Plan::Targeted => GenConfig::small(),
        }
    }

    fn apps(&self) -> usize {
        self.batches * BATCH_APPS
    }

    /// The master seed of batch `k`, derived from the run seed the way a
    /// corpus derives per-app seeds.
    fn batch_seed(&self, seed: u64, k: usize) -> u64 {
        Corpus { master_seed: seed, size: self.batches, config: GenConfig::small() }.seed_for(k)
    }

    fn corpus(&self, batch_seed: u64) -> Corpus {
        Corpus { master_seed: batch_seed, size: BATCH_APPS, config: self.gen() }
    }

    /// Names a batch's corpus, not the plan: full and targeted batches
    /// with the same seed share it, and therefore share the oracle cache.
    fn corpus_key(&self, batch_seed: u64) -> String {
        let profile = if self.plan == Plan::LibStore { "lib" } else { "small" };
        format!("{profile}-{batch_seed:016x}-{BATCH_APPS}")
    }

    /// The campaign one batch runs: one shard, one prep worker, one
    /// device, rotated journals.
    fn campaign(&self, batch_seed: u64, journal_dir: PathBuf) -> CampaignConfig {
        CampaignConfig {
            master_seed: batch_seed,
            gen: self.gen(),
            prep_workers: 1,
            devices: 1,
            targeted: self.plan == Plan::Targeted,
            sumstore: self.plan == Plan::LibStore,
            rotate_records: Some(ROTATE_RECORDS),
            ..CampaignConfig::new(BATCH_APPS, 1, journal_dir)
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("vetbench: {msg}");
    eprintln!(
        "usage: vetbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> &str {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        argv.get(at + 1)
            .map(String::as_str)
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let name = value("--workload");
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let seed_text = value("--seed");
    let seed = match seed_text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => seed_text.parse().ok(),
    }
    .unwrap_or_else(|| usage("--seed must be an unsigned integer"));
    let seconds: f64 = value("--seconds")
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .unwrap_or_else(|| usage("--seconds must be a positive number"));
    let trace = match value("--trace") {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    Args { workload, seed, seconds, trace }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("vetbench: {msg}");
    exit(1)
}

/// Creates a batch's config and corpus and an empty journal directory —
/// everything `run_campaign` needs.
fn setup(w: &Workload, batch_seed: u64, dir: &Path) -> (CampaignConfig, Corpus) {
    if dir.exists() {
        std::fs::remove_dir_all(dir)
            .unwrap_or_else(|e| fail(format!("clear {}: {e}", dir.display())));
    }
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(format!("create {}: {e}", dir.display())));
    (w.campaign(batch_seed, dir.to_path_buf()), w.corpus(batch_seed))
}

/// Every journaled record of a one-shard campaign directory, by index.
fn journaled(dir: &Path) -> Vec<AppRecord> {
    let mut records = read_shard_records(dir, 0)
        .unwrap_or_else(|e| fail(format!("read journal {}: {e}", dir.display())))
        .1;
    records.sort_by_key(|r| r.index);
    records
}

fn verdict_lines(config: &CampaignConfig, records: &[AppRecord]) -> String {
    FleetReport::from_records(
        config.master_seed,
        config.apps,
        config_digest(config),
        vec![records.to_vec()],
    )
    .verdict_lines()
}

/// One untraced `run_campaign` call over one batch and what it journaled.
struct Rep {
    batch: usize,
    wall_s: f64,
    makespan_ns: f64,
    records: Vec<AppRecord>,
    verdict_lines: String,
    service: ServiceReport,
}

fn run_rep(batch: usize, config: &CampaignConfig) -> Rep {
    let t = Instant::now();
    let outcome = run_campaign(config).unwrap_or_else(|e| fail(format!("campaign: {e}")));
    let wall_s = t.elapsed().as_secs_f64();
    let records = journaled(&config.journal_dir);
    std::fs::remove_dir_all(&config.journal_dir).ok();
    Rep {
        batch,
        wall_s,
        makespan_ns: outcome.fleet.modeled_makespan_ns,
        verdict_lines: verdict_lines(config, &records),
        records,
        service: outcome.service,
    }
}

/// The sequential reference verdicts of one batch, computed on
/// [`ORACLE_THREADS`] threads or read from the per-corpus cache.
fn batch_oracle(w: &Workload, batch_seed: u64) -> Vec<OracleEntry> {
    let key = w.corpus_key(batch_seed);
    let path = Path::new(WORK_DIR).join("oracle").join(format!("{key}.txt"));
    let corpus = w.corpus(batch_seed);
    cached_oracle(&path, &key, BATCH_APPS, || {
        let mut entries: Vec<Option<OracleEntry>> = vec![None; BATCH_APPS];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ORACLE_THREADS)
                .map(|t| {
                    let corpus = &corpus;
                    scope.spawn(move || {
                        (t..corpus.size)
                            .step_by(ORACLE_THREADS)
                            .map(|i| {
                                let out = vet_app(corpus.generate(i), Engine::AmandroidCpu);
                                let entry = OracleEntry {
                                    verdict: format!("{:?}", out.report.verdict),
                                    leaks: out.report.leaks.len(),
                                    amandroid_ns: out.timing.total_ns(),
                                };
                                (i, entry)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, e) in h.join().expect("oracle thread panicked") {
                    entries[i] = Some(e);
                }
            }
        });
        entries.into_iter().map(|e| e.expect("every index is vetted")).collect()
    })
    .unwrap_or_else(|e| fail(format!("oracle cache {}: {e}", path.display())))
}

/// The oracle of every batch of the run, by batch.
fn oracle(w: &Workload, seed: u64) -> Vec<Vec<OracleEntry>> {
    (0..w.batches).map(|k| batch_oracle(w, w.batch_seed(seed, k))).collect()
}

/// Counts oracle mismatches over `(batch, records)` runs, naming the
/// first few.
fn count_mismatches<'a>(
    runs: impl IntoIterator<Item = (usize, &'a [AppRecord])>,
    oracle: &[Vec<OracleEntry>],
    label: &str,
) -> usize {
    let mut failed = 0;
    for (batch, records) in runs {
        let bad = oracle_mismatches(records, &oracle[batch]);
        for &i in bad.iter().take(5) {
            eprintln!(
                "vetbench: {label} batch {batch} app {i} disagrees with the Amandroid-CPU oracle"
            );
        }
        failed += bad.len();
    }
    failed
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload:<18} {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// `--trace 0`: every batch once, then further batches round-robin while
/// the next is expected to end within `--seconds`.
fn end_to_end(args: &Args, process_start: Instant, run_dir: &Path) {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let measure = Instant::now();
    loop {
        let batch = reps.len() % w.batches;
        let dir = run_dir.join(format!("run-{}", reps.len()));
        // The run's first setup counts from process start.
        let start = if reps.is_empty() { process_start } else { Instant::now() };
        let (config, corpus) = setup(w, w.batch_seed(args.seed, batch), &dir);
        setup_s.push(start.elapsed().as_secs_f64());
        std::hint::black_box(corpus);
        let rep = run_rep(batch, &config);
        let next_end = measure.elapsed().as_secs_f64() + rep.wall_s;
        reps.push(rep);
        if reps.len() >= w.batches && next_end > args.seconds {
            break;
        }
    }
    let peak_rss =
        peak_rss_mb().unwrap_or_else(|| fail("cannot read VmHWM from /proc/self/status"));

    let oracle = oracle(w, args.seed);
    let failed =
        count_mismatches(reps.iter().map(|r| (r.batch, r.records.as_slice())), &oracle, "untraced");
    // Repeated batches must journal the verdicts of their first run, and
    // the same modeled times wherever completion order cannot change them.
    let mut nondeterministic = 0;
    for rep in &reps[w.batches..] {
        let first = &reps[rep.batch];
        let same_model = rep.records.len() == first.records.len()
            && rep.records.iter().zip(&first.records).all(|(a, b)| a.total_ns() == b.total_ns());
        if rep.verdict_lines != first.verdict_lines || (w.plan.order_free() && !same_model) {
            eprintln!(
                "vetbench: batch {} journaled different verdicts or modeled times when repeated",
                rep.batch
            );
            nondeterministic += 1;
        } else if !same_model {
            eprintln!(
                "vetbench: batch {} journaled different modeled times when repeated \
                 (service completion order changed its store hits)",
                rep.batch
            );
        }
    }
    let first_pass = &reps[..w.batches];
    let attempted = reps.len() * BATCH_APPS;
    let latency_ms: Vec<f64> = first_pass
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| r.status == RecordStatus::Completed)
        .map(|r| r.total_ns() / 1e6)
        .collect();
    let p50 = percentile(&latency_ms, 0.5).unwrap_or_else(|| fail("no completed app"));
    let p90 = percentile(&latency_ms, 0.9).unwrap_or_else(|| fail("no completed app"));
    if !p90.resolved() {
        eprintln!("vetbench: p90 has only {} samples beyond it (< 10)", p90.beyond);
    }
    let makespan_ns: f64 = first_pass.iter().map(|r| r.makespan_ns).sum();
    let amandroid_ns: f64 = oracle.iter().flatten().map(|o| o.amandroid_ns).sum();
    let rates: Vec<f64> = reps.iter().map(|r| BATCH_APPS as f64 / r.wall_s).collect();
    let metrics = vec![
        Metric {
            name: "host_apps_per_s",
            value: median(&rates).expect("every batch ran"),
            unit: "1/s",
        },
        Metric { name: "setup_s", value: median(&setup_s).expect("setups ran"), unit: "s" },
        Metric { name: "peak_rss_mb", value: peak_rss, unit: "MB" },
        Metric { name: "modeled_makespan_s", value: makespan_ns / 1e9, unit: "s" },
        Metric { name: "modeled_app_p50_ms", value: p50.value, unit: "ms" },
        Metric { name: "modeled_app_p90_ms", value: p90.value, unit: "ms" },
        Metric {
            name: "modeled_speedup_vs_amandroid",
            value: amandroid_ns / makespan_ns,
            unit: "x",
        },
        Metric {
            name: "verdict_ok_frac",
            value: 1.0 - failed as f64 / attempted as f64,
            unit: "frac",
        },
    ];
    print_metrics(w.name, &metrics);
    let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = rates.iter().copied().fold(0.0, f64::max);
    println!(
        "{:<18} {} batch runs of {BATCH_APPS} apps, apps/s per batch {lo:.2}..{hi:.2} | \
         p90 over {} apps, {} beyond | failed_frac {}",
        w.name,
        reps.len(),
        p90.samples,
        p90.beyond,
        failed as f64 / attempted as f64,
    );
    let correct = failed == 0 && nondeterministic == 0 && p90.resolved();
    println!("{}", result_json(correct, attempted, failed, &metrics));
}

/// The IDFG layer's output in the shape the taint layer consumes.
struct Idfg {
    facts: HashMap<MethodId, MatrixStore>,
    spaces: HashMap<MethodId, MethodSpace>,
    cfgs: HashMap<MethodId, Cfg>,
    idfg_ns: f64,
    telemetry: WorklistTelemetry,
    /// Device statistics; the store path does not expose them.
    stats: Option<GpuRunStats>,
    /// The store path's own report JSON, checked against the taint layer's.
    store_report: Option<String>,
}

impl Idfg {
    fn from_gpu(gpu: gdroid::core::GpuAnalysis) -> Idfg {
        Idfg {
            facts: gpu.facts,
            spaces: gpu.spaces,
            cfgs: gpu.cfgs,
            idfg_ns: gpu.stats.total_ns,
            telemetry: gpu.telemetry,
            stats: Some(gpu.stats),
            store_report: None,
        }
    }
}

/// Work counts of the traced run.
#[derive(Default)]
struct Counts {
    stmts: usize,
    methods: usize,
    launches: u64,
    rounds: usize,
    nodes: usize,
    blocks: usize,
    divergence_x_blocks: f64,
    coalescing_x_blocks: f64,
    utilization_x_launches: f64,
    kernel_ns: f64,
    exposed_copy_ns: f64,
    idfg_ns: f64,
    envgen_ns: f64,
    frontend_ns: f64,
    taint_ns: f64,
    rows_read: usize,
    slice_members: usize,
    reachable: usize,
    store_hits: u64,
    store_misses: u64,
    reloc_failures: u64,
    segments: usize,
    store_report_mismatches: usize,
}

/// One batch of the traced pass.
struct TracedBatch {
    /// Per app, the sum of the modeled layer times.
    modeled_ns: Vec<f64>,
    records: Vec<AppRecord>,
    verdict_lines: String,
}

/// Drives one batch's apps one at a time through the per-layer public
/// calls, with a span around each call, mirroring what the batch's
/// campaign does: a fresh device, journal and (libstore) cold store.
fn traced_batch(
    w: &Workload,
    batch_seed: u64,
    dir: &Path,
    rec: &mut Recorder,
    c: &mut Counts,
) -> TracedBatch {
    let (config, corpus) = setup(w, batch_seed, dir);
    let header = JournalHeader {
        version: JOURNAL_VERSION,
        master_seed: batch_seed,
        apps: BATCH_APPS,
        shards: 1,
        shard: 0,
        config_digest: config_digest(&config),
        update_ppm: 0,
        update_salt: 0,
    };
    let opts = OptConfig::gdroid();
    let store = SumStore::new();
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let mut modeled_ns = Vec::with_capacity(BATCH_APPS);
    let mut journal = rec.span("campaign", usize::MAX, |_| {
        SegmentedJournal::open_or_create(dir, 0, &header, ROTATE_RECORDS)
            .unwrap_or_else(|e| fail(format!("traced journal: {e}")))
            .0
    });
    for index in 0..BATCH_APPS {
        rec.span("campaign", index, |rec| {
            let app = rec.span("apk.generate", index, |_| corpus.generate(index));
            c.stmts += app.program.total_statements();
            let package = app.manifest.package.clone();
            let prep = rec.span("vetting.prepare", index, |_| prepare_vetting(app));
            c.methods += prep.app.program.methods.len();
            let launches = device.launches();
            let program = &prep.app.program;
            let mut sliced_micros = None;
            let idfg = match w.plan {
                Plan::Full => rec.span("core.idfg", index, |_| {
                    gpu_analyze_app_on(&mut device, program, &prep.cg, &prep.roots, opts)
                        .map(Idfg::from_gpu)
                }),
                Plan::Targeted => {
                    let slice = rec.span("analysis.slice", index, |_| compute_vetting_slice(&prep));
                    c.slice_members += slice.len();
                    c.reachable += slice.total_reachable;
                    sliced_micros = Some((slice.sliced_fraction() * 1e6).round() as u64);
                    rec.span("core.idfg", index, |_| {
                        gpu_analyze_app_sliced_on(
                            &mut device,
                            program,
                            &prep.cg,
                            &prep.roots,
                            opts,
                            &slice.members,
                        )
                        .map(Idfg::from_gpu)
                    })
                }
                Plan::LibStore => {
                    std::hint::black_box(rec.span("sumstore.hash", index, |_| {
                        canonical_hashes(program, &prep.cg, &prep.roots)
                    }));
                    rec.span("core.idfg", index, |_| {
                        execute_vetting_on_device_with_store(&prep, &mut device, opts, &store).map(
                            |(run, used)| {
                                c.store_hits += used.hits;
                                c.store_misses += used.misses;
                                Idfg {
                                    idfg_ns: run.outcome.timing.idfg_ns,
                                    store_report: Some(run.outcome.report.to_json()),
                                    facts: run.analysis.facts,
                                    spaces: run.analysis.spaces,
                                    cfgs: run.analysis.cfgs,
                                    telemetry: run.analysis.telemetry,
                                    stats: None,
                                }
                            },
                        )
                    })
                }
            }
            .unwrap_or_else(|e| fail(format!("app {index}: device fault {e:?}")));
            c.launches += device.launches() - launches;
            c.rounds += idfg.telemetry.rounds;
            c.nodes += idfg.telemetry.nodes_processed;
            if let Some(s) = &idfg.stats {
                c.blocks += s.blocks;
                c.divergence_x_blocks += s.divergence_factor * s.blocks as f64;
                c.coalescing_x_blocks += s.coalescing * s.blocks as f64;
                c.utilization_x_launches += s.utilization * s.launches as f64;
                c.kernel_ns += s.kernel_ns;
                c.exposed_copy_ns += s.exposed_copy_ns;
            }
            let (report, taint) = rec.span("vetting.taint", index, |_| {
                let registry = SourceSinkRegistry::for_program(program);
                TaintAnalysis::new(
                    program,
                    &prep.cg,
                    &idfg.facts,
                    &idfg.spaces,
                    &idfg.cfgs,
                    &registry,
                )
                .run()
            });
            let report_json = report.to_json();
            if idfg.store_report.as_ref().is_some_and(|s| *s != report_json) {
                c.store_report_mismatches += 1;
            }
            let timing = prep.prep_timing;
            let taint_ns = TAINT_NS_PER_ROW * taint.rows_read as f64;
            c.rows_read += taint.rows_read;
            c.envgen_ns += timing.envgen_ns;
            c.frontend_ns += timing.callgraph_ns;
            c.idfg_ns += idfg.idfg_ns;
            c.taint_ns += taint_ns;
            modeled_ns.push(timing.envgen_ns + timing.callgraph_ns + idfg.idfg_ns + taint_ns);
            let record = AppRecord {
                index,
                seed: corpus.seed_for(index),
                package,
                status: RecordStatus::Completed,
                verdict: format!("{:?}", report.verdict),
                leaks: report.leaks.len(),
                report_fnv: fnv1a(report_json.as_bytes()),
                envgen_ns: timing.envgen_ns,
                callgraph_ns: timing.callgraph_ns,
                idfg_ns: idfg.idfg_ns,
                taint_ns,
                nodes: idfg.telemetry.nodes_processed as u64,
                rounds: idfg.telemetry.rounds as u64,
                sliced_micros,
                attempts: 1,
            };
            rec.span("campaign.journal.append", index, |_| {
                journal.append(&record).unwrap_or_else(|e| fail(format!("traced append: {e}")))
            });
        });
    }
    c.segments += journal.segments();
    drop(journal);
    rec.span("campaign.fold", usize::MAX, |_| {
        let tail = read_rotated_tail(dir, 0).unwrap_or_else(|e| fail(format!("traced fold: {e}")));
        std::hint::black_box(FleetReport::from_folds(
            batch_seed,
            BATCH_APPS,
            header.config_digest,
            vec![tail],
        ))
    });
    c.reloc_failures += store.stats().reloc_failures;
    let records = journaled(dir);
    std::fs::remove_dir_all(dir).ok();
    TracedBatch { verdict_lines: verdict_lines(&config, &records), modeled_ns, records }
}

/// `--trace 1`: every batch once untraced, then the traced per-layer pass
/// over the same apps, the gates between them, and the per-layer metrics.
fn per_layer(args: &Args, run_dir: &Path) {
    let w = args.workload;
    let seeds: Vec<u64> = (0..w.batches).map(|k| w.batch_seed(args.seed, k)).collect();
    let untraced: Vec<Rep> = seeds
        .iter()
        .enumerate()
        .map(|(k, &s)| run_rep(k, &setup(w, s, &run_dir.join(format!("untraced-{k}"))).0))
        .collect();
    let untraced_wall_s: f64 = untraced.iter().map(|r| r.wall_s).sum();

    let mut rec = Recorder::new();
    let mut c = Counts::default();
    let traced: Vec<TracedBatch> = seeds
        .iter()
        .enumerate()
        .map(|(k, &s)| traced_batch(w, s, &run_dir.join(format!("traced-{k}")), &mut rec, &mut c))
        .collect();
    let traced_wall_ns = rec.elapsed_ns();
    let oracle = oracle(w, args.seed);

    let mut gate_failures = Vec::new();
    let failed = count_mismatches(
        untraced.iter().map(|r| (r.batch, r.records.as_slice())),
        &oracle,
        "untraced",
    ) + count_mismatches(
        traced.iter().enumerate().map(|(k, t)| (k, t.records.as_slice())),
        &oracle,
        "traced",
    );
    if failed > 0 {
        gate_failures.push(format!("{failed} app outcome(s) disagree with the oracle"));
    }
    if c.store_report_mismatches > 0 {
        gate_failures.push(format!(
            "{} store-path report(s) differ from the taint layer's",
            c.store_report_mismatches
        ));
    }
    // Modeled layer times must sum to every journaled total: the traced
    // journal's (a write/read round trip) and — where completion order
    // cannot change modeled time — the untraced campaign's.
    let order_free = w.plan.order_free();
    for (k, (t, u)) in traced.iter().zip(&untraced).enumerate() {
        if t.verdict_lines != u.verdict_lines {
            gate_failures.push(format!("batch {k}: traced verdict lines differ from untraced"));
        }
        for (i, &sum) in t.modeled_ns.iter().enumerate() {
            let own = t.records.get(i).map(AppRecord::total_ns);
            let campaign = u.records.get(i).map(AppRecord::total_ns);
            let matches =
                |t: Option<f64>| t.is_some_and(|t| (t - sum).abs() <= JOURNAL_ROUNDING_NS);
            if !matches(own) || (order_free && !matches(campaign)) {
                gate_failures.push(format!(
                    "batch {k} app {i}: modeled layers sum to {sum} ns, journals hold {own:?} \
                     (traced) and {campaign:?} (campaign)"
                ));
                break;
            }
        }
    }
    let self_ns = self_times(rec.spans());
    let self_sum: u64 = self_ns.values().sum();
    let gap = (traced_wall_ns as f64 - self_sum as f64).abs() / traced_wall_ns as f64;
    if gap > SELF_TIME_TOLERANCE {
        gate_failures.push(format!(
            "host self times sum to {self_sum} ns, traced wall is {traced_wall_ns} ns ({:.2}% apart)",
            gap * 100.0
        ));
    }
    for g in &gate_failures {
        eprintln!("vetbench: gate failed: {g}");
    }

    let spans_path = run_dir.with_file_name(format!("spans-{}-{:x}.json", w.name, args.seed));
    std::fs::write(&spans_path, chrome_trace(rec.spans()))
        .unwrap_or_else(|e| fail(format!("write {}: {e}", spans_path.display())));

    let ms = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
    let appends: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.layer == "campaign.journal.append")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let apps = w.apps() as f64;
    let untraced_rate = apps / untraced_wall_s;
    let traced_rate = apps / (traced_wall_ns as f64 / 1e9);
    let service = untraced
        .iter()
        .skip(1)
        .fold(untraced[0].service.clone(), |merged, r| merged.merge(&r.service));
    let attempts: u64 =
        untraced.iter().flat_map(|r| &r.records).map(|r| u64::from(r.attempts)).sum();
    let sliced_fraction = if w.plan == Plan::Targeted {
        ratio(c.slice_members as f64, c.reachable as f64)
    } else {
        1.0
    };
    let metrics = vec![
        Metric { name: "core.idfg.host_ms", value: ms("core.idfg"), unit: "ms" },
        Metric { name: "gpusim.blocks", value: c.blocks as f64, unit: "count" },
        Metric {
            name: "gpusim.host_us_per_block",
            value: ratio(ms("core.idfg") * 1e3, c.blocks as f64),
            unit: "us",
        },
        Metric { name: "core.launches", value: c.launches as f64, unit: "count" },
        Metric { name: "core.rounds", value: c.rounds as f64, unit: "count" },
        Metric { name: "core.nodes_processed", value: c.nodes as f64, unit: "count" },
        Metric { name: "core.idfg.modeled_ms", value: c.idfg_ns / 1e6, unit: "ms" },
        Metric { name: "core.modeled_kernel_ms", value: c.kernel_ns / 1e6, unit: "ms" },
        Metric { name: "core.modeled_exposed_copy_ms", value: c.exposed_copy_ns / 1e6, unit: "ms" },
        Metric {
            name: "gpusim.divergence_factor",
            value: ratio(c.divergence_x_blocks, c.blocks as f64),
            unit: "x",
        },
        Metric {
            name: "gpusim.coalescing",
            value: ratio(c.coalescing_x_blocks, c.blocks as f64),
            unit: "frac",
        },
        Metric {
            name: "gpusim.utilization",
            value: ratio(c.utilization_x_launches, c.launches as f64),
            unit: "frac",
        },
        Metric { name: "apk.generate.host_ms", value: ms("apk.generate"), unit: "ms" },
        Metric { name: "apk.stmts", value: c.stmts as f64, unit: "count" },
        Metric { name: "vetting.prepare.host_ms", value: ms("vetting.prepare"), unit: "ms" },
        Metric { name: "icfg.methods", value: c.methods as f64, unit: "count" },
        Metric { name: "vetting.prepare.modeled_envgen_ms", value: c.envgen_ns / 1e6, unit: "ms" },
        Metric {
            name: "vetting.prepare.modeled_frontend_ms",
            value: c.frontend_ns / 1e6,
            unit: "ms",
        },
        Metric { name: "analysis.slice.host_ms", value: ms("analysis.slice"), unit: "ms" },
        Metric { name: "analysis.slice.sliced_fraction", value: sliced_fraction, unit: "frac" },
        Metric { name: "sumstore.hash.host_ms", value: ms("sumstore.hash"), unit: "ms" },
        Metric { name: "sumstore.hits", value: c.store_hits as f64, unit: "count" },
        Metric { name: "sumstore.misses", value: c.store_misses as f64, unit: "count" },
        Metric {
            name: "sumstore.hit_rate",
            value: ratio(c.store_hits as f64, (c.store_hits + c.store_misses) as f64),
            unit: "frac",
        },
        Metric { name: "sumstore.reloc_failures", value: c.reloc_failures as f64, unit: "count" },
        Metric { name: "vetting.taint.host_ms", value: ms("vetting.taint"), unit: "ms" },
        Metric { name: "vetting.taint.rows_read", value: c.rows_read as f64, unit: "count" },
        Metric { name: "vetting.taint.modeled_ms", value: c.taint_ns / 1e6, unit: "ms" },
        Metric {
            name: "serve.queue_wait_ms_p50",
            value: service.queue_wait.p50_ns as f64 / 1e6,
            unit: "ms",
        },
        Metric { name: "serve.prep_ms_p50", value: service.prep.p50_ns as f64 / 1e6, unit: "ms" },
        Metric {
            name: "serve.exec_wall_ms_p50",
            value: service.exec_wall.p50_ns as f64 / 1e6,
            unit: "ms",
        },
        Metric { name: "serve.attempts_per_app", value: attempts as f64 / apps, unit: "count" },
        Metric {
            name: "campaign.journal.append_us_p50",
            value: median(&appends).unwrap_or(0.0),
            unit: "us",
        },
        Metric { name: "campaign.journal.segments", value: c.segments as f64, unit: "count" },
        Metric { name: "campaign.fold.host_ms", value: ms("campaign.fold"), unit: "ms" },
        Metric { name: "campaign.host_ms", value: ms("campaign"), unit: "ms" },
        Metric {
            name: "trace.overhead_frac",
            value: 1.0 - traced_rate / untraced_rate,
            unit: "frac",
        },
    ];
    print_metrics(w.name, &metrics);
    println!(
        "{:<18} untraced {untraced_rate:.2} apps/s, traced {traced_rate:.2} apps/s | self times \
         sum {:.1} ms of {:.1} ms traced wall | spans in {}",
        w.name,
        self_sum as f64 / 1e6,
        traced_wall_ns as f64 / 1e6,
        spans_path.display()
    );
    println!("{}", result_json(gate_failures.is_empty(), 2 * w.apps(), failed, &metrics));
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args();
    let run_dir = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    if args.trace {
        per_layer(&args, &run_dir);
    } else {
        end_to_end(&args, process_start, &run_dir);
    }
    std::fs::remove_dir_all(&run_dir).ok();
}
