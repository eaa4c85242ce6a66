//! `figures` — regenerates the paper's tables and figures.
//!
//! ```text
//! figures <experiment> [--apps N] [--scale S]
//!
//! experiments: table1 fig1 fig4 fig8 fig9 fig10 fig11 fig12 table2 all serve sumstore batch
//!   --apps N   analyze the first N corpus apps (default 100; paper: 1000)
//!   --scale S  generator scale factor (default 1.0 = Table I calibration)
//! ```
//!
//! `serve` benchmarks the vetting service (worker/device scaling and a
//! cache-hit sweep) and writes `BENCH_serve.json`. `sumstore` sweeps the
//! cross-app summary store over library duplication factors and writes
//! the byte-deterministic `BENCH_sumstore.json`. `trace` vets the corpus
//! traced and untraced, proving tracing never perturbs outcomes, and
//! writes the byte-deterministic `BENCH_trace.json`. `batch` sweeps
//! co-resident multi-app batching over degrees 1/2/4/8, asserts per-app
//! outcomes byte-identical to solo, and writes the byte-deterministic
//! `BENCH_batch.json`. `targeted` vets the corpus full and demand-driven
//! (backward sink slice), asserts per-app verdict agreement, and writes
//! the byte-deterministic `BENCH_targeted.json`. `corpus1000` streams the
//! paper's full speedup ladder (kernel rungs, targeted, batching K 2/4/8,
//! summary store) over the 1000-app corpus at the `small` profile and
//! writes the byte-deterministic `BENCH_corpus1000.json`. `persist` pits
//! persistent-kernel execution (one resident launch per app) against
//! classic per-round multi-launch on a per-app detail set and a streamed
//! corpus — facts and verdicts asserted mode-identical — and writes the
//! byte-deterministic `BENCH_persist.json`.

use gdroid_apk::Corpus;
use gdroid_bench::{
    batch_benchmark, corpus1000_benchmark, experiments, persist_benchmark, run_corpus,
    sancheck_corpus, serve_benchmark, snapshot_benchmark, snapshot_rotate, sumstore_benchmark,
    targeted_benchmark, trace_benchmark, PERSIST_DETAIL_APPS, SNAPSHOT_SHARDS,
};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: figures <table1|fig1|fig4|fig8|fig9|fig10|fig11|fig12|table2|all|multigpu|autotune|csv|debug|sancheck|serve|sumstore|trace|batch|targeted|corpus1000|persist|snapshot10k> \
         [--apps N] [--scale S]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let experiment = args[0].clone();
    // The corpus-scale ladder and the persistent kernel comparison default
    // to the paper's full 1000 apps; everything else defaults to the first
    // 100.
    let mut apps = if experiment == "corpus1000" || experiment == "persist" {
        1000
    } else if experiment == "snapshot10k" {
        10_000
    } else {
        100
    };
    let mut scale = 1.0f64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--apps" => {
                apps = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                i += 2;
            }
            "--scale" => {
                scale = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                i += 2;
            }
            _ => usage(),
        }
    }

    let mut corpus = Corpus::paper_sized(apps);
    corpus.config.scale *= scale;

    if experiment == "serve" {
        eprintln!("benchmarking the vetting service ({apps} jobs per point)…");
        let t0 = Instant::now();
        let (json, summary) = serve_benchmark(apps.min(64));
        eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());
        std::fs::write("BENCH_serve.json", &json).unwrap_or_else(|e| {
            eprintln!("cannot write BENCH_serve.json: {e}");
            std::process::exit(1)
        });
        print!("{summary}");
        eprintln!("wrote BENCH_serve.json");
        return;
    }

    if experiment == "sumstore" {
        eprintln!("benchmarking the summary store (dup factors 1/2/4/8)…");
        let t0 = Instant::now();
        let (json, summary) = sumstore_benchmark(apps.min(20));
        eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());
        std::fs::write("BENCH_sumstore.json", &json).unwrap_or_else(|e| {
            eprintln!("cannot write BENCH_sumstore.json: {e}");
            std::process::exit(1)
        });
        print!("{summary}");
        eprintln!("wrote BENCH_sumstore.json");
        return;
    }

    if experiment == "trace" {
        eprintln!("checking trace invariance over the corpus (traced vs untraced runs)…");
        let t0 = Instant::now();
        let (json, summary) = trace_benchmark(apps.min(20));
        eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());
        std::fs::write("BENCH_trace.json", &json).unwrap_or_else(|e| {
            eprintln!("cannot write BENCH_trace.json: {e}");
            std::process::exit(1)
        });
        print!("{summary}");
        eprintln!("wrote BENCH_trace.json");
        return;
    }

    if experiment == "batch" {
        eprintln!("benchmarking co-resident batching (degrees 1/2/4/8)…");
        let t0 = Instant::now();
        let (json, summary) = batch_benchmark(apps.min(20));
        eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());
        std::fs::write("BENCH_batch.json", &json).unwrap_or_else(|e| {
            eprintln!("cannot write BENCH_batch.json: {e}");
            std::process::exit(1)
        });
        print!("{summary}");
        eprintln!("wrote BENCH_batch.json");
        return;
    }

    if experiment == "targeted" {
        eprintln!("benchmarking demand-driven targeted vetting (full vs sliced)…");
        let t0 = Instant::now();
        let (json, summary) = targeted_benchmark(apps.min(20));
        eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());
        std::fs::write("BENCH_targeted.json", &json).unwrap_or_else(|e| {
            eprintln!("cannot write BENCH_targeted.json: {e}");
            std::process::exit(1)
        });
        print!("{summary}");
        eprintln!("wrote BENCH_targeted.json");
        return;
    }

    if experiment == "corpus1000" {
        eprintln!("streaming the corpus-scale speedup ladder over {apps} apps (small profile)…");
        let t0 = Instant::now();
        let (json, summary) = corpus1000_benchmark(apps, scale);
        eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());
        std::fs::write("BENCH_corpus1000.json", &json).unwrap_or_else(|e| {
            eprintln!("cannot write BENCH_corpus1000.json: {e}");
            std::process::exit(1)
        });
        print!("{summary}");
        eprintln!("wrote BENCH_corpus1000.json");
        return;
    }

    if experiment == "persist" {
        eprintln!(
            "comparing persistent-kernel vs multi-launch execution \
             ({PERSIST_DETAIL_APPS} detail apps + {apps} streamed)…"
        );
        let t0 = Instant::now();
        let (json, summary) = persist_benchmark(PERSIST_DETAIL_APPS, apps, scale);
        eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());
        std::fs::write("BENCH_persist.json", &json).unwrap_or_else(|e| {
            eprintln!("cannot write BENCH_persist.json: {e}");
            std::process::exit(1)
        });
        print!("{summary}");
        eprintln!("wrote BENCH_persist.json");
        return;
    }

    if experiment == "snapshot10k" {
        eprintln!(
            "streaming a rotated snapshot campaign over {apps} apps ({SNAPSHOT_SHARDS} shards, \
             segments of {}) plus store and delta lanes…",
            snapshot_rotate(apps)
        );
        let t0 = Instant::now();
        let (json, summary) = snapshot_benchmark(apps);
        eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());
        std::fs::write("BENCH_snapshot10k.json", &json).unwrap_or_else(|e| {
            eprintln!("cannot write BENCH_snapshot10k.json: {e}");
            std::process::exit(1)
        });
        print!("{summary}");
        eprintln!("wrote BENCH_snapshot10k.json");
        return;
    }

    if experiment == "sancheck" {
        eprintln!("sanitizing {apps} apps (scale {scale}) across all kernel variants…");
        let t0 = Instant::now();
        let outcome = sancheck_corpus(&corpus, apps);
        eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());
        println!("{outcome}");
        std::process::exit(if outcome.is_clean() { 0 } else { 1 });
    }

    eprintln!("analyzing {apps} apps (scale {scale}) across all engines…");
    let t0 = Instant::now();
    let records = run_corpus(&corpus, apps);
    eprintln!("…done in {:.1}s\n", t0.elapsed().as_secs_f64());

    let report = match experiment.as_str() {
        "table1" => experiments::table1(&records),
        "fig1" => experiments::fig1(&records),
        "fig4" => experiments::fig4(&records),
        "fig8" => experiments::fig8(&records),
        "fig9" => experiments::fig9(&records),
        "fig10" => experiments::fig10(&records),
        "fig11" => experiments::fig11(&records),
        "fig12" => experiments::fig12(&records),
        "table2" => experiments::table2(&records),
        "all" => experiments::all(&records),
        "debug" => experiments::debug(&records),
        "multigpu" => experiments::ext_multigpu(&records),
        "autotune" => experiments::ext_autotune(&records),
        "csv" => experiments::csv(&records),
        _ => usage(),
    };
    println!("{report}");
}
