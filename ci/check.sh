#!/usr/bin/env bash
# Repo gate: formatting, lints, bench compilation, and the tier-1 suite.
#
# Runs entirely offline — all third-party crates are vendored under
# vendor/ (see README.md, "Offline builds").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo check --benches"
cargo check --workspace --benches

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

echo "==> release binaries for the smokes (gdroid and figures)"
# The tier-1 build covers only the root package; figures lives in
# crates/bench.
cargo build --release --workspace

echo "==> serve smoke: 10 apps through the vetting service"
serve_out=$(./target/release/gdroid serve --apps 10 --workers 2 --devices 2 --json)
echo "$serve_out" | grep -q '"quarantined":0,' || {
  echo "serve smoke: quarantined jobs detected" >&2
  exit 1
}

echo "==> trace smoke: same-seed traces parse and are byte-identical"
trace_dir=$(mktemp -d)
store_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir" "$store_dir"' EXIT
./target/release/gdroid vet 42 --trace "$trace_dir/a.json" >/dev/null
./target/release/gdroid vet 42 --trace "$trace_dir/b.json" >/dev/null
python3 -m json.tool "$trace_dir/a.json" >/dev/null || {
  echo "trace smoke: trace is not valid JSON" >&2
  exit 1
}
cmp -s "$trace_dir/a.json" "$trace_dir/b.json" || {
  echo "trace smoke: same-seed traces differ byte-for-byte" >&2
  exit 1
}
# A targeted, store-backed plan traces its device work and both instants,
# not just the four stage spans.
./target/release/gdroid vet 42 --targeted --sumstore "$trace_dir/store" \
  --trace "$trace_dir/ts.json" >/dev/null 2>&1
if ! python3 - "$trace_dir/ts.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
spans = [e for e in events if e["ph"] == "X"]
instants = {e["name"] for e in events if e["ph"] == "i"}
assert len(spans) > 4, f"only {len(spans)} spans: the device events are missing"
assert {"targeted-slice", "sumstore"} <= instants, f"instants missing: {instants}"
PY
then
  echo "trace smoke: targeted store-backed trace lacks device events or instants" >&2
  exit 1
fi

echo "==> sumstore smoke: 10 apps cold then warm against one store"
cold=$(./target/release/gdroid serve --apps 10 --workers 2 --devices 2 --sumstore "$store_dir" --digest)
warm_json=$(./target/release/gdroid serve --apps 10 --workers 2 --devices 2 --sumstore "$store_dir" --json)
warm=$(./target/release/gdroid serve --apps 10 --workers 2 --devices 2 --sumstore "$store_dir" --digest)
[ "$cold" = "$warm" ] || {
  echo "sumstore smoke: warm digests differ from cold" >&2
  exit 1
}
if echo "$warm_json" | grep -q '"sumstore":{"hits":0,'; then
  echo "sumstore smoke: warm run never hit the store" >&2
  exit 1
fi

echo "==> batch smoke: co-residency sweep is byte-deterministic and batches form"
repo_root=$PWD
batch_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir" "$store_dir" "$batch_dir"' EXIT
(cd "$batch_dir" && "$repo_root/target/release/figures" batch --apps 8 >/dev/null && mv BENCH_batch.json a.json)
(cd "$batch_dir" && "$repo_root/target/release/figures" batch --apps 8 >/dev/null && mv BENCH_batch.json b.json)
cmp -s "$batch_dir/a.json" "$batch_dir/b.json" || {
  echo "batch smoke: BENCH_batch.json differs between identical runs" >&2
  exit 1
}
batch_out=$(./target/release/gdroid serve --apps 10 --workers 2 --devices 1 --coresident 4 --json)
echo "$batch_out" | grep -q '"quarantined":0,' || {
  echo "batch smoke: quarantined jobs under co-residency" >&2
  exit 1
}
echo "$batch_out" | grep -q '"coresidency":' || {
  echo "batch smoke: report missing coresidency" >&2
  exit 1
}

echo "==> artifact gate: committed figures regenerate byte-for-byte"
# Simulated statistics are deterministic, so any drift in these files is a
# change to the simulator's output, not noise. persist runs at its
# default N (about a minute) and pins the persistent-kernel path.
for args in "trace --apps 20" "targeted --apps 20" "sumstore --apps 20" "persist"; do
  exp=${args%% *}
  # shellcheck disable=SC2086 # $args is a word list on purpose
  (cd "$batch_dir" && "$repo_root/target/release/figures" $args >/dev/null)
  cmp -s "$batch_dir/BENCH_$exp.json" "BENCH_$exp.json" || {
    echo "artifact gate: BENCH_$exp.json differs from 'figures $args'" >&2
    exit 1
  }
done

echo "==> sanitizer sweep: every ladder variant is CLEAN over 20 apps"
# figures sancheck exits 1 unless every finding count is zero.
(cd "$batch_dir" && "$repo_root/target/release/figures" sancheck --apps 20 >/dev/null) || {
  echo "sanitizer sweep: findings reported (run 'figures sancheck --apps 20')" >&2
  exit 1
}

echo "==> targeted smoke: sliced sweep is byte-deterministic and verdicts agree"
(cd "$batch_dir" && "$repo_root/target/release/figures" targeted --apps 8 >/dev/null && mv BENCH_targeted.json ta.json)
(cd "$batch_dir" && "$repo_root/target/release/figures" targeted --apps 8 >/dev/null && mv BENCH_targeted.json tb.json)
cmp -s "$batch_dir/ta.json" "$batch_dir/tb.json" || {
  echo "targeted smoke: BENCH_targeted.json differs between identical runs" >&2
  exit 1
}
full_vet=$(./target/release/gdroid vet 42 --json)
targeted_vet=$(./target/release/gdroid vet 42 --targeted --json)
if ! python3 - "$full_vet" "$targeted_vet" <<'PY'
import json, sys
full, targeted = json.loads(sys.argv[1]), json.loads(sys.argv[2])
assert full["report"] == targeted["report"], "targeted verdict diverged from full"
assert "targeted" not in full, "full outcome must carry no provenance"
assert targeted["targeted"]["sliced_fraction"] <= 1.0
PY
then
  echo "targeted smoke: full vs targeted verdict mismatch" >&2
  exit 1
fi

echo "==> campaign smoke: kill/resume reproduces the fleet report byte-for-byte"
camp_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir" "$store_dir" "$batch_dir" "$camp_dir"' EXIT
./target/release/gdroid campaign --apps 20 --shards 2 --journal-dir "$camp_dir/j2" \
  --out "$camp_dir/fleet-a.json" --verdicts "$camp_dir/verdicts-2.txt" >/dev/null
# Simulate a crash mid-append: cut the shard-0 journal inside a record,
# then resume over the same directory.
journal="$camp_dir/j2/shard-0.journal"
head -c $(( $(wc -c < "$journal") - 120 )) "$journal" > "$camp_dir/cut" && mv "$camp_dir/cut" "$journal"
./target/release/gdroid campaign --apps 20 --shards 2 --journal-dir "$camp_dir/j2" \
  --out "$camp_dir/fleet-b.json" >/dev/null
cmp -s "$camp_dir/fleet-a.json" "$camp_dir/fleet-b.json" || {
  echo "campaign smoke: resumed fleet report differs from the uninterrupted one" >&2
  exit 1
}

echo "==> campaign smoke: shard layout never changes a verdict"
./target/release/gdroid campaign --apps 20 --shards 1 --journal-dir "$camp_dir/j1" \
  --verdicts "$camp_dir/verdicts-1.txt" >/dev/null
cmp -s "$camp_dir/verdicts-2.txt" "$camp_dir/verdicts-1.txt" || {
  echo "campaign smoke: 2-shard verdicts differ from the 1-shard run" >&2
  exit 1
}

echo "==> corpus1000 smoke: the corpus-scale ladder is byte-deterministic"
(cd "$batch_dir" && "$repo_root/target/release/figures" corpus1000 --apps 16 --scale 0.1 >/dev/null && mv BENCH_corpus1000.json ca.json)
(cd "$batch_dir" && "$repo_root/target/release/figures" corpus1000 --apps 16 --scale 0.1 >/dev/null && mv BENCH_corpus1000.json cb.json)
cmp -s "$batch_dir/ca.json" "$batch_dir/cb.json" || {
  echo "corpus1000 smoke: BENCH_corpus1000.json differs between identical runs" >&2
  exit 1
}

echo "==> engine smoke: the cpu oracle agrees with worklist and rel is gone"
worklist_vet=$(./target/release/gdroid vet 42 --engine worklist --json)
cpu_vet=$(./target/release/gdroid vet 42 --engine cpu --json)
if ! python3 - "$worklist_vet" "$cpu_vet" <<'PY'
import json, sys
# Timings and telemetry are engine-shaped; the report is the contract.
worklist, cpu = (json.loads(a) for a in sys.argv[1:3])
assert cpu["report"] == worklist["report"], "cpu verdict diverged from worklist"
PY
then
  echo "engine smoke: cpu verdict diverged from worklist" >&2
  exit 1
fi
rel_status=0
./target/release/gdroid vet 42 --engine rel >/dev/null 2>&1 || rel_status=$?
[ "$rel_status" -eq 2 ] || {
  echo "engine smoke: 'vet --engine rel' exited $rel_status, expected usage exit 2" >&2
  exit 1
}

echo "==> persist smoke: the exec-mode sweep is byte-deterministic and modes agree"
(cd "$batch_dir" && "$repo_root/target/release/figures" persist --apps 12 >/dev/null && mv BENCH_persist.json pa.json)
(cd "$batch_dir" && "$repo_root/target/release/figures" persist --apps 12 >/dev/null && mv BENCH_persist.json pb.json)
cmp -s "$batch_dir/pa.json" "$batch_dir/pb.json" || {
  echo "persist smoke: BENCH_persist.json differs between identical runs" >&2
  exit 1
}
multi_vet=$(./target/release/gdroid vet 42 --exec multi --json)
persist_vet=$(./target/release/gdroid vet 42 --exec persistent --json)
if ! python3 - "$multi_vet" "$persist_vet" <<'PY'
import json, sys
# Timings and launch counts are mode-shaped; the report is the contract.
multi, persist = (json.loads(a) for a in sys.argv[1:3])
assert persist["report"] == multi["report"], "persistent verdict diverged from multi-launch"
PY
then
  echo "persist smoke: exec-mode verdicts diverged" >&2
  exit 1
fi

echo "==> snapshot smoke: rotated kill/resume reproduces the fleet report byte-for-byte"
snap_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir" "$store_dir" "$batch_dir" "$camp_dir" "$snap_dir"' EXIT
./target/release/gdroid campaign --apps 20 --shards 2 --rotate 3 --journal-dir "$snap_dir/jr" \
  --out "$snap_dir/fleet-a.json" >/dev/null
# Kill twice: first cut the newest shard-0 segment mid-record, resume; then
# cut the (new) unsealed tail again and resume once more. Both recoveries
# must converge on the uninterrupted report.
newest_segment() {
  for f in "$snap_dir/jr"/shard-0.journal.*; do echo "${f##*.} $f"; done | sort -n | tail -1 | cut -d' ' -f2-
}
newest=$(newest_segment)
head -c $(( $(wc -c < "$newest") - 40 )) "$newest" > "$snap_dir/cut" && mv "$snap_dir/cut" "$newest"
./target/release/gdroid campaign --apps 20 --shards 2 --rotate 3 --journal-dir "$snap_dir/jr" \
  --out "$snap_dir/fleet-b.json" >/dev/null
cmp -s "$snap_dir/fleet-a.json" "$snap_dir/fleet-b.json" || {
  echo "snapshot smoke: resume after a mid-segment cut diverged" >&2
  exit 1
}
newest=$(newest_segment)
head -c $(( $(wc -c < "$newest") / 2 )) "$newest" > "$snap_dir/cut" && mv "$snap_dir/cut" "$newest"
./target/release/gdroid campaign --apps 20 --shards 2 --rotate 3 --journal-dir "$snap_dir/jr" \
  --out "$snap_dir/fleet-c.json" >/dev/null
cmp -s "$snap_dir/fleet-a.json" "$snap_dir/fleet-c.json" || {
  echo "snapshot smoke: resume after an unsealed-tail cut diverged" >&2
  exit 1
}

echo "==> snapshot smoke: snapshot10k sweep is byte-deterministic at reduced N"
(cd "$batch_dir" && "$repo_root/target/release/figures" snapshot10k --apps 48 >/dev/null && mv BENCH_snapshot10k.json sa.json)
(cd "$batch_dir" && "$repo_root/target/release/figures" snapshot10k --apps 48 >/dev/null && mv BENCH_snapshot10k.json sb.json)
cmp -s "$batch_dir/sa.json" "$batch_dir/sb.json" || {
  echo "snapshot smoke: BENCH_snapshot10k.json differs between identical runs" >&2
  exit 1
}

echo "ci/check.sh: all green"
