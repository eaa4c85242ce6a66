//! Helpers of the vetting-campaign benchmark: the percentile rule, span
//! recording and self-time folding, the verdict oracle and its cache, the
//! peak-RSS reader and the result line. `main.rs` drives the workloads.

use gdroid::campaign::{AppRecord, RecordStatus};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Samples a reported percentile must keep beyond it.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile with the samples it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the percentile to report it.
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The nearest-rank `q`-quantile of `values` (`0 < q <= 1`); `None` when
/// `values` is empty.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(Percentile { value: sorted[rank - 1], samples: sorted.len(), beyond: sorted.len() - rank })
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// One recorded host-clock span: a call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (`apk.generate`, `core.idfg`, ...).
    pub layer: &'static str,
    /// Corpus index of the app the span belongs to.
    pub app: usize,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Inclusive duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Spans nest by call structure: a span opened
/// inside another's closure records it as its parent.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer` for app `app`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        app: usize,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { layer, app, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host ns since the recorder was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }
}

/// Folds spans into exclusive self times per layer: each span's duration
/// minus the part of its interval that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            children[p].push(id);
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        let mut covered: Vec<(u64, u64)> = children[id]
            .iter()
            .map(|&c| (spans[c].start_ns.max(span.start_ns), spans[c].end_ns.min(span.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        covered.sort_unstable();
        let mut covered_ns = 0;
        let mut reach = span.start_ns;
        for (s, e) in covered {
            let s = s.max(reach);
            if e > s {
                covered_ns += e - s;
                reach = e;
            }
        }
        *out.entry(span.layer).or_default() += span.duration_ns() - covered_ns;
    }
    out
}

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"vetbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"app\":{},\"parent\":{}}}}}",
                s.layer,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.app,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// The reference pipeline's answer for one app.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleEntry {
    /// Verdict label as journaled (`Clean` / `Suspicious`).
    pub verdict: String,
    /// Leaks found.
    pub leaks: usize,
    /// Modeled Amandroid-CPU pipeline time (ns).
    pub amandroid_ns: f64,
}

const ORACLE_MAGIC: &str = "vetbench-oracle v1";

/// Serializes oracle entries under a header naming the corpus they
/// describe; times are stored bit-exact.
pub fn oracle_to_text(key: &str, entries: &[OracleEntry]) -> String {
    let mut out = format!("{ORACLE_MAGIC} {key} {}\n", entries.len());
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!("{i} {} {} {:016x}\n", e.verdict, e.leaks, e.amandroid_ns.to_bits()));
    }
    out
}

/// Parses [`oracle_to_text`] output; `None` unless it is complete and
/// describes `key` with exactly `apps` entries.
pub fn oracle_from_text(text: &str, key: &str, apps: usize) -> Option<Vec<OracleEntry>> {
    let mut lines = text.lines();
    if lines.next()? != format!("{ORACLE_MAGIC} {key} {apps}") {
        return None;
    }
    let mut entries = Vec::with_capacity(apps);
    for (i, line) in lines.enumerate() {
        let f: Vec<&str> = line.split(' ').collect();
        if f.len() != 4 || f[0].parse::<usize>().ok()? != i || f[3].len() != 16 {
            return None;
        }
        entries.push(OracleEntry {
            verdict: f[1].to_owned(),
            leaks: f[2].parse().ok()?,
            amandroid_ns: f64::from_bits(u64::from_str_radix(f[3], 16).ok()?),
        });
    }
    (entries.len() == apps).then_some(entries)
}

/// Loads a cached oracle, or computes it with `compute` and caches it.
/// The cache is a pure function of its key, so a stale or torn file is
/// recomputed rather than trusted.
pub fn cached_oracle(
    path: &Path,
    key: &str,
    apps: usize,
    compute: impl FnOnce() -> Vec<OracleEntry>,
) -> std::io::Result<Vec<OracleEntry>> {
    if let Some(entries) =
        std::fs::read_to_string(path).ok().and_then(|t| oracle_from_text(&t, key, apps))
    {
        return Ok(entries);
    }
    let entries = compute();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, oracle_to_text(key, &entries))?;
    std::fs::rename(&tmp, path)?;
    Ok(entries)
}

/// Apps whose journaled outcome disagrees with the oracle: failed or
/// quarantined, a different verdict or leak count, or no record at all.
/// Returns the offending corpus indices, ascending.
pub fn oracle_mismatches(records: &[AppRecord], oracle: &[OracleEntry]) -> Vec<usize> {
    let mut seen = vec![false; oracle.len()];
    let mut bad = Vec::new();
    for r in records {
        let ok = r.status == RecordStatus::Completed
            && oracle.get(r.index).is_some_and(|o| o.verdict == r.verdict && o.leaks == r.leaks)
            && !seen[r.index];
        if let Some(s) = seen.get_mut(r.index) {
            *s = true;
        }
        if !ok {
            bad.push(r.index);
        }
    }
    bad.extend(seen.iter().enumerate().filter(|(_, s)| !**s).map(|(i, _)| i));
    bad.sort_unstable();
    bad.dedup();
    bad
}

/// Peak resident set size in MB from a `/proc/<pid>/status` text.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's peak resident set size in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_flags_fewer_than_ten_samples_beyond() {
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        let p = percentile(&small, 0.9).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (45.0, 50, 5));
        assert!(!p.resolved(), "5 samples beyond p90 must be flagged");

        let large: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p = percentile(&large, 0.9).unwrap();
        assert_eq!((p.value, p.beyond), (90.0, 10));
        assert!(p.resolved());
        assert!(percentile(&[], 0.9).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { layer, app: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_times_subtract_nested_children() {
        // app [0,100) holds prepare [10,40) and idfg [40,90); idfg holds
        // taint [70,80) and an overlapping pair [50,60) + [55,65).
        let spans = vec![
            span("campaign", None, 0, 100),
            span("prepare", Some(0), 10, 40),
            span("idfg", Some(0), 40, 90),
            span("taint", Some(2), 70, 80),
            span("x", Some(2), 50, 60),
            span("x", Some(2), 55, 65),
            span("campaign", None, 100, 110),
        ];
        let t = self_times(&spans);
        assert_eq!(t["campaign"], 20 + 10);
        assert_eq!(t["prepare"], 30);
        assert_eq!(t["idfg"], 50 - 10 - 15);
        assert_eq!(t["taint"], 10);
        // Overlapping siblings each keep their own self time; only their
        // union is taken out of the parent.
        assert_eq!(t["x"], 20);
    }

    #[test]
    fn recorder_nests_spans_by_call_structure() {
        let mut rec = Recorder::new();
        rec.span("outer", 3, |rec| {
            rec.span("inner", 3, |_| std::hint::black_box(1 + 1));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let t = self_times(spans);
        assert_eq!(t.values().sum::<u64>(), spans[0].duration_ns());
    }

    fn record(index: usize, verdict: &str, leaks: usize) -> AppRecord {
        AppRecord {
            index,
            seed: 0,
            package: format!("com.gen.app{index}"),
            status: RecordStatus::Completed,
            verdict: verdict.to_owned(),
            leaks,
            report_fnv: 0,
            envgen_ns: 0.0,
            callgraph_ns: 0.0,
            idfg_ns: 0.0,
            taint_ns: 0.0,
            nodes: 0,
            rounds: 0,
            sliced_micros: None,
            attempts: 1,
        }
    }

    fn entry(verdict: &str, leaks: usize) -> OracleEntry {
        OracleEntry { verdict: verdict.to_owned(), leaks, amandroid_ns: 1.5 }
    }

    #[test]
    fn oracle_catches_a_flipped_verdict() {
        let oracle = vec![entry("Clean", 0), entry("Suspicious", 2), entry("Clean", 0)];
        let good = vec![record(0, "Clean", 0), record(1, "Suspicious", 2), record(2, "Clean", 0)];
        assert!(oracle_mismatches(&good, &oracle).is_empty());

        let mut flipped = good.clone();
        flipped[2].verdict = "Suspicious".into();
        assert_eq!(oracle_mismatches(&flipped, &oracle), vec![2]);

        let mut leaks = good.clone();
        leaks[1].leaks = 1;
        assert_eq!(oracle_mismatches(&leaks, &oracle), vec![1]);

        let mut quarantined = good.clone();
        quarantined[0].status = RecordStatus::Quarantined;
        assert_eq!(oracle_mismatches(&quarantined, &oracle), vec![0]);

        assert_eq!(oracle_mismatches(&good[..2], &oracle), vec![2], "a missing app counts");
    }

    #[test]
    fn oracle_cache_round_trips_and_rejects_other_keys() {
        let entries = vec![
            entry("Clean", 0),
            OracleEntry { amandroid_ns: 0.1 + 0.2, ..entry("Suspicious", 3) },
        ];
        let text = oracle_to_text("small-7-2", &entries);
        assert_eq!(oracle_from_text(&text, "small-7-2", 2), Some(entries.clone()));
        assert_eq!(oracle_from_text(&text, "small-8-2", 2), None);
        assert_eq!(oracle_from_text(&text, "small-7-3", 3), None);
        let torn = &text[..text.len() - 5];
        assert_eq!(oracle_from_text(torn, "small-7-2", 2), None);
    }

    #[test]
    fn peak_rss_reader_parses_vm_hwm() {
        let status =
            "Name:\tvetbench\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(200.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 12 MB\n"), None);
        let own = peak_rss_mb().expect("the running process has a VmHWM line");
        assert!(own > 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let m = [Metric { name: "setup_s", value: 0.25, unit: "s" }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }
}
