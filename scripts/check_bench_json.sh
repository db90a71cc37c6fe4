#!/usr/bin/env sh
# CI schema check for the bench harness's --json reports.
#
# Usage: check_bench_json.sh <path-to-fig6a_stream_count> [more benches...]
#
# Runs the fastest figure bench in --quick mode, then validates the report:
# schema envelope, per-run config/results, and — for the on-demand run — the
# allocator counters, extent-count histogram and positioning-time stats the
# paper's evaluation reads.
#
# Then the async-transport equivalence gate: for EVERY bench passed,
# `--pipeline-depth 1` must be byte-identical to the default run (depth 1 IS
# the sync chain — no AsyncTransport is mounted), and for the first bench a
# depth-8 run must report pipelined timings with an aggregate speedup > 1.
#
# Then the metadata-sharding gate: `--mds-shards 1` must likewise be
# byte-identical for every bench (a single shard mounts no ShardedTransport),
# and a fig7_macro `--mds-shards 4` run must carry balanced shard-namespace
# runs: subtree listing with no fan-out, hash listing with fan-out.
#
# Then the flight-recorder gate: without `--timeseries` no run carries a
# timeseries section; a fig9_aging `--timeseries` run must emit strictly
# monotone sim timestamps, a non-empty and non-decreasing frag.extent_count
# series whose final sample equals the end-of-run frag.extent_count registry
# gauge exactly, and the workload's epoch marks.
#
# Then the cost-attribution gate: without `--attribution` no run carries an
# attribution section (micro_antagonist excepted — attribution IS that
# bench); a zero/garbage `--pipeline-depth`/`--mds-shards` fails fast with
# status 2, as does any value flag given without its value (last, empty, or
# followed by another flag), and an unwritable `--json` path exits non-zero;
# a fig7_macro `--attribution` run must conserve — for every cost
# category the per-principal sums equal the global counters within 1e-9
# relative — and carry a critical-path report whose per-request segments sum
# to the request total; micro_antagonist must conserve, report Jain's
# fairness in (0,1] that DEGRADES as the antagonist's intensity grows, and
# reproduce byte-identically across two runs.
#
# Then the redundancy gate: zero/negative/garbage `--replicas` and a
# malformed `--kill-osd` spec fail fast with status 2, as does `--kill-osd`
# without `--replicas >= 2` (killing an unreplicated mount is data loss, not
# a scenario); `--replicas 1` must be byte-identical to the default report
# for every bench (and byte-identical on stdout for the figure benches); a
# fig7_macro `--replicas 2 --kill-osd 1@2` run must complete with ZERO
# client-visible read errors, rebuild a positive number of bytes, finish the
# repair on the simulated timeline with no target left dead, and land its
# post-repair extent count and read time within tolerance of the
# never-killed replicated baseline in the same report.
#
# Then the list-I/O gate: `--collective-aggregators 4` (the built-in default)
# must be byte-identical to the default fig7 report; a fig7_macro
# `--list-io 64 --attribution` run must carry the strided sweep with >= 5x
# fewer data-RPC envelopes and strictly less data-network sim time on the
# list mount, and every attributed run — now carrying multi-run list/strided
# frames — must still conserve disk/net/cpu/bytes.
#
# Then the formation/QoS gate: zero/negative/garbage `--qos` and
# `--adaptive-depth` values fail fast with status 2 (and `--adaptive-depth 1`
# specifically — a ceiling of 1 can never arm the controller); with neither
# flag no run of any bench carries qos or adaptive-depth fields; a fig6a
# `--adaptive-depth 8` run must report a floating window that actually moved
# (depth_min < depth_max) and still overlap (best speedup > 1); a
# micro_antagonist `--qos 4` A/B sweep must show the token bucket working at
# the top intensity — Jain fairness >= 0.9 with the scheduler on, strictly
# better than off, the victims' p99 restored — while the shaped runs still
# conserve their attribution ledgers.
# Registered as a ctest (see bench/CMakeLists.txt).
set -eu

SCRIPT_DIR="$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)"
. "$SCRIPT_DIR/lib.sh"

BENCH="${1:?usage: check_bench_json.sh <fig6a_stream_count binary> [more...]}"
mif_tmpfile OUT bench_json
mif_tmpfile DEPTH1 bench_json_d1
mif_tmpfile DEPTH8 bench_json_d8
mif_tmpfile SHARD1 bench_json_s1
mif_tmpfile SHARD4 bench_json_s4
mif_tmpfile TS bench_json_ts
mif_tmpfile ATTR bench_json_attr
mif_tmpfile ATTR2 bench_json_attr2
mif_tmpfile LIST bench_json_list
mif_tmpfile ADAPT bench_json_adapt
mif_tmpfile QOS bench_json_qos
mif_tmpfile RED bench_json_red
mif_tmpfile BOUT bench_stdout_base
mif_tmpfile ROUT bench_stdout_red

"$BENCH" --quick --json "$OUT" > /dev/null

python3 - "$OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_bench_json: FAIL: {msg}")

require(doc.get("schema_version") == 1, "schema_version != 1")
require(doc.get("bench") == "fig6a_stream_count", "bench name mismatch")
runs = doc.get("runs")
require(isinstance(runs, list) and runs, "runs missing or empty")

for run in runs:
    for key in ("name", "config", "results"):
        require(key in run, f"run missing '{key}'")
    require(isinstance(run["results"].get("phase2_throughput_mbps"),
                       (int, float)), "results missing throughput")

ondemand = [r for r in runs if r["config"].get("mode") == "ondemand"]
require(ondemand, "no ondemand run in report")
m = ondemand[0].get("metrics")
require(isinstance(m, dict), "ondemand run has no metrics registry")

counters = m.get("counters", {})
for key in ("alloc.ondemand.layout_miss", "alloc.ondemand.pre_alloc_layout"):
    require(key in counters, f"counter '{key}' missing")
    require(counters[key] > 0, f"counter '{key}' is zero")

hist = m.get("histograms", {}).get("alloc.extents_per_file")
require(hist is not None, "histogram 'alloc.extents_per_file' missing")
require(hist.get("count", 0) > 0, "extent histogram is empty")
require(isinstance(hist.get("buckets"), list), "extent histogram has no buckets")

stat = m.get("stats", {}).get("sim.disk.position_ms")
require(stat is not None, "stat 'sim.disk.position_ms' missing")
require(stat.get("count", 0) > 0, "positioning-time stat is empty")
require(stat.get("mean", 0) > 0, "positioning-time mean is zero")

print(f"check_bench_json: OK ({len(runs)} runs, "
      f"layout_miss={counters['alloc.ondemand.layout_miss']})")
EOF

# ---- async-transport equivalence gate ------------------------------------
# Depth 1 is the synchronous chain by construction; its report must be
# byte-identical to the default run for every bench we are handed.
for bench in "$@"; do
  name="$(basename "$bench")"
  "$bench" --quick --json "$OUT" > /dev/null 2>&1
  "$bench" --quick --json "$DEPTH1" --pipeline-depth 1 > /dev/null 2>&1
  if ! cmp -s "$OUT" "$DEPTH1"; then
    echo "check_bench_json: FAIL: $name --pipeline-depth 1 is not" \
         "byte-identical to the default (sync) report"
    diff "$OUT" "$DEPTH1" | head -20 || true
    exit 1
  fi
  echo "check_bench_json: OK ($name depth-1 report byte-identical to sync)"
done

# A deep pipeline must actually overlap: the depth-8 report carries the
# pipelined timings and the modeled elapsed time beats the serial sum.
"$BENCH" --quick --json "$DEPTH8" --pipeline-depth 8 > /dev/null 2>&1
python3 - "$DEPTH8" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

runs = doc.get("runs", [])
if not runs:
    sys.exit("check_bench_json: FAIL: depth-8 report has no runs")
speedups = []
for run in runs:
    cfg, res = run.get("config", {}), run.get("results", {})
    if cfg.get("pipeline_depth") != 8:
        sys.exit(f"check_bench_json: FAIL: run '{run.get('name')}' config "
                 "lacks pipeline_depth=8")
    for key in ("pipeline_serial_ms", "pipeline_elapsed_ms",
                "pipeline_speedup"):
        if not isinstance(res.get(key), (int, float)):
            sys.exit(f"check_bench_json: FAIL: run '{run.get('name')}' "
                     f"results lack '{key}'")
    speedups.append(res["pipeline_speedup"])

best = max(speedups)
if best <= 1.0:
    sys.exit(f"check_bench_json: FAIL: depth-8 pipeline_speedup <= 1 "
             f"everywhere (best {best:.3f}) — no overlap")
print(f"check_bench_json: OK (depth-8 overlap, best speedup {best:.2f}x "
      f"across {len(runs)} runs)")
EOF

# ---- metadata-sharding equivalence gate ----------------------------------
# A single shard mounts no ShardedTransport by construction; `--mds-shards 1`
# must be byte-identical to the default report for every bench we are handed.
for bench in "$@"; do
  name="$(basename "$bench")"
  "$bench" --quick --json "$OUT" > /dev/null 2>&1
  "$bench" --quick --json "$SHARD1" --mds-shards 1 > /dev/null 2>&1
  if ! cmp -s "$OUT" "$SHARD1"; then
    echo "check_bench_json: FAIL: $name --mds-shards 1 is not" \
         "byte-identical to the default (single-MDS) report"
    diff "$OUT" "$SHARD1" | head -20 || true
    exit 1
  fi
  echo "check_bench_json: OK ($name shards-1 report byte-identical to single-MDS)"
done

# A 4-shard fig7 mount must route for real: the shard-namespace runs report
# a balanced load (imbalance < 2.0), subtree listings that touch ONE shard
# (fan-out 0) and hash listings that fan out to every shard.
for bench in "$@"; do
  [ "$(basename "$bench")" = "fig7_macro" ] || continue
  "$bench" --quick --json "$SHARD4" --mds-shards 4 > /dev/null 2>&1
  python3 - "$SHARD4" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_bench_json: FAIL: {msg}")

ns = {r["config"].get("placement"): r for r in doc.get("runs", [])
      if r["config"].get("benchmark") == "shard-namespace"}
for placement in ("subtree", "hash"):
    require(placement in ns, f"shards-4 report lacks the {placement} "
            "shard-namespace run")
    res = ns[placement]["results"]
    require(ns[placement]["config"].get("mds_shards") == 4,
            f"{placement} namespace run config lacks mds_shards=4")
    imb = res.get("shard_imbalance")
    require(isinstance(imb, (int, float)) and imb < 2.0,
            f"{placement} shard_imbalance {imb} not < 2.0")
fanout_subtree = ns["subtree"]["results"].get("shard_fanout")
fanout_hash = ns["hash"]["results"].get("shard_fanout")
require(fanout_subtree == 0,
        f"subtree listings fanned out ({fanout_subtree} requests) — "
        "children left their directory's shard")
require(isinstance(fanout_hash, int) and fanout_hash > 0,
        f"hash listings recorded no fan-out ({fanout_hash})")
print(f"check_bench_json: OK (shards-4 namespace: subtree fanout 0, "
      f"hash fanout {fanout_hash}, imbalance "
      f"{ns['subtree']['results']['shard_imbalance']:.2f}/"
      f"{ns['hash']['results']['shard_imbalance']:.2f})")
EOF
done

# ---- flight-recorder (--timeseries) gate ----------------------------------
# Off by default: no run of any bench carries a "timeseries" section.
for bench in "$@"; do
  name="$(basename "$bench")"
  "$bench" --quick --json "$OUT" > /dev/null 2>&1
  python3 - "$OUT" "$name" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for run in doc.get("runs", []):
    if "timeseries" in run:
        sys.exit(f"check_bench_json: FAIL: {sys.argv[2]} run "
                 f"'{run.get('name')}' carries a timeseries section "
                 "without --timeseries")
EOF
done
echo "check_bench_json: OK (no timeseries section without --timeseries)"

# An invalid interval must fail fast, not mount a broken recorder.
for bench in "$@"; do
  [ "$(basename "$bench")" = "fig9_aging" ] || continue
  if "$bench" --quick --json "$TS" --timeseries=0 > /dev/null 2>&1; then
    echo "check_bench_json: FAIL: fig9_aging --timeseries=0 did not fail"
    exit 1
  fi
  echo "check_bench_json: OK (fig9_aging --timeseries=0 rejected)"
done

# The aging bench under the recorder: strictly monotone sim time axis, a
# non-empty, non-decreasing frag.extent_count series whose final sample
# equals the end-of-run registry gauge EXACTLY (same scan, same doubles),
# and the aging workload's epoch marks.
for bench in "$@"; do
  [ "$(basename "$bench")" = "fig9_aging" ] || continue
  "$bench" --quick --json "$TS" --timeseries > /dev/null 2>&1
  python3 - "$TS" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_bench_json: FAIL: {msg}")

runs = doc.get("runs", [])
require(runs, "fig9 --timeseries report has no runs")
samples = 0
for run in runs:
    name = run.get("name")
    ts = run.get("timeseries")
    require(isinstance(ts, dict), f"run '{name}' has no timeseries")
    require(ts.get("interval_ms", 0) > 0, f"run '{name}' interval_ms <= 0")
    times = ts.get("times_ms")
    require(isinstance(times, list) and times, f"run '{name}' times_ms empty")
    for a, b in zip(times, times[1:]):
        require(a < b, f"run '{name}' sim timestamps not strictly "
                f"increasing ({a} then {b})")
    frag = ts.get("series", {}).get("frag.extent_count")
    require(isinstance(frag, dict), f"run '{name}' lacks frag.extent_count")
    values = frag.get("values")
    require(isinstance(values, list) and values,
            f"run '{name}' frag.extent_count series empty")
    require(len(values) == len(times),
            f"run '{name}' series length != time axis length")
    require(any(v > 0 for v in values),
            f"run '{name}' frag.extent_count never rose above zero")
    for a, b in zip(values, values[1:]):
        require(b >= a, f"run '{name}' frag.extent_count decreased under "
                f"churn ({a} then {b})")
    gauge = run.get("metrics", {}).get("gauges", {}).get("frag.extent_count")
    require(gauge is not None, f"run '{name}' metrics lack frag.extent_count")
    require(values[-1] == gauge and frag.get("last") == gauge,
            f"run '{name}' final timeline sample {values[-1]} != end-of-run "
            f"registry gauge {gauge}")
    labels = {e.get("label") for e in ts.get("epochs", [])}
    for epoch in ("churn", "measure.create", "measure.delete", "end"):
        require(epoch in labels, f"run '{name}' missing epoch '{epoch}' "
                f"(got {sorted(labels)})")
    samples += len(times)

print(f"check_bench_json: OK (fig9 --timeseries: {len(runs)} runs, "
      f"{samples} samples, final frag.extent_count matches registry)")
EOF
done

# ---- cost-attribution gate -------------------------------------------------
# Off by default: no run of any figure bench carries an "attribution"
# section and no report carries a "critical_path" document.  micro_antagonist
# is the exception by design — attribution IS that bench.
for bench in "$@"; do
  name="$(basename "$bench")"
  [ "$name" = "micro_antagonist" ] && continue
  "$bench" --quick --json "$OUT" > /dev/null 2>&1
  python3 - "$OUT" "$name" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
if "critical_path" in doc:
    sys.exit(f"check_bench_json: FAIL: {sys.argv[2]} report carries a "
             "critical_path document without --attribution")
for run in doc.get("runs", []):
    if "attribution" in run:
        sys.exit(f"check_bench_json: FAIL: {sys.argv[2]} run "
                 f"'{run.get('name')}' carries an attribution section "
                 "without --attribution")
EOF
done
echo "check_bench_json: OK (no attribution section without --attribution)"

# Invalid transport knobs must fail fast with status 2 — not mount a broken
# stack and emit a report that silently ignored the flag.
for flag in --pipeline-depth --mds-shards --collective-aggregators --list-io \
            --qos --adaptive-depth --replicas; do
  for bad in 0 -3 many; do
    if "$BENCH" --quick --json "$OUT" "$flag" "$bad" > /dev/null 2>&1; then
      echo "check_bench_json: FAIL: $flag $bad did not fail"
      exit 1
    fi
    rc=0
    "$BENCH" --quick --json "$OUT" "$flag=$bad" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
      echo "check_bench_json: FAIL: $flag=$bad exited $rc, want 2"
      exit 1
    fi
  done
done
echo "check_bench_json: OK (zero/negative/garbage transport knobs exit 2)"

# A value flag without its value fails fast too — given last, given empty,
# or followed by another flag (which it must not swallow: `--json --quick`
# would write a report named "--quick" and run the full sweep).
for flag in --json --trace --pipeline-depth --mds-shards \
            --collective-aggregators --list-io --qos --adaptive-depth \
            --replicas --kill-osd; do
  for form in "--quick $flag" "$flag --quick" "--quick $flag="; do
    rc=0
    # shellcheck disable=SC2086
    "$BENCH" $form > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
      echo "check_bench_json: FAIL: '$form' exited $rc, want 2"
      exit 1
    fi
  done
done
# A report that cannot be written is a failed run, not a silent success.
rc=0
"$BENCH" --quick --json "$OUT.missing/report.json" > /dev/null 2>&1 || rc=$?
if [ "$rc" -eq 0 ]; then
  echo "check_bench_json: FAIL: an unwritable --json path exited 0"
  exit 1
fi
echo "check_bench_json: OK (value flags without a value exit 2, failed write exits $rc)"

# Conservation: a fig7_macro --attribution report must account every
# simulated millisecond — per-principal sums equal the global counters —
# and its critical-path requests must decompose exactly.
for bench in "$@"; do
  [ "$(basename "$bench")" = "fig7_macro" ] || continue
  "$bench" --quick --json "$ATTR" --attribution > /dev/null 2>&1
  python3 - "$ATTR" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_bench_json: FAIL: {msg}")

def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

DISK = ("disk_seek_ms", "disk_rotation_ms", "disk_skip_ms",
        "disk_transfer_ms")

attributed = [r for r in doc.get("runs", []) if "attribution" in r]
require(attributed, "fig7 --attribution report has no attributed runs")
for run in attributed:
    name = run.get("name")
    a = run["attribution"]
    principals, glob = a.get("principals"), a.get("global")
    require(isinstance(principals, dict) and principals,
            f"run '{name}' has no principals")
    require(isinstance(glob, dict), f"run '{name}' has no global comparands")
    sums = {"disk": 0.0, "net": 0.0, "cpu": 0.0, "bytes": 0}
    for label, acct in principals.items():
        sums["disk"] += sum(acct[k] for k in DISK)
        sums["net"] += acct["net_ms"]
        sums["cpu"] += acct["mds_cpu_ms"]
        sums["bytes"] += acct["net_bytes"]
    require(close(sums["disk"], glob["disk_ms"]),
            f"run '{name}' disk not conserved: principals {sums['disk']} "
            f"vs global {glob['disk_ms']}")
    require(close(sums["net"], glob["net_ms"]),
            f"run '{name}' net time not conserved: {sums['net']} vs "
            f"{glob['net_ms']}")
    require(close(sums["cpu"], glob["mds_cpu_ms"]),
            f"run '{name}' MDS cpu not conserved: {sums['cpu']} vs "
            f"{glob['mds_cpu_ms']}")
    require(sums["bytes"] == glob["net_bytes"],
            f"run '{name}' net bytes not conserved: {sums['bytes']} vs "
            f"{glob['net_bytes']}")
    fairness = a.get("fairness")
    require(isinstance(fairness, (int, float)) and 0 < fairness <= 1.0,
            f"run '{name}' fairness {fairness} outside (0,1]")

cp = doc.get("critical_path")
require(isinstance(cp, dict), "--attribution report lacks critical_path")
reqs = cp.get("requests")
require(isinstance(reqs, list) and reqs, "critical_path has no requests")
for r in reqs:
    seg_sum = sum(r["segments"].values())
    require(close(seg_sum, r["total_ms"]),
            f"trace {r.get('trace_id')} segments sum {seg_sum} != total "
            f"{r['total_ms']}")
totals = [r["total_ms"] for r in reqs]
require(totals == sorted(totals, reverse=True),
        "critical_path requests not slowest-first")

print(f"check_bench_json: OK (fig7 --attribution: {len(attributed)} runs "
      f"conserve disk/net/cpu/bytes, {len(reqs)} critical-path requests "
      "decompose exactly)")
EOF
done

# The antagonist bench: always-on attribution must conserve, per-class p99s
# must be present, and Jain's fairness must sit in (0,1] AND degrade as the
# hot client's intensity grows — the noisy neighbour is visible in the
# ledger.  Two runs must agree byte-for-byte (the whole pipeline is
# sim-deterministic).
for bench in "$@"; do
  [ "$(basename "$bench")" = "micro_antagonist" ] || continue
  "$bench" --quick --json "$ATTR" > /dev/null 2>&1
  "$bench" --quick --json "$ATTR2" > /dev/null 2>&1
  if ! cmp -s "$ATTR" "$ATTR2"; then
    echo "check_bench_json: FAIL: micro_antagonist reports differ between" \
         "two identical runs"
    diff "$ATTR" "$ATTR2" | head -20 || true
    exit 1
  fi
  python3 - "$ATTR" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_bench_json: FAIL: {msg}")

def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

DISK = ("disk_seek_ms", "disk_rotation_ms", "disk_skip_ms",
        "disk_transfer_ms")

runs = doc.get("runs", [])
require(len(runs) >= 3, f"expected >= 3 intensity points, got {len(runs)}")
fairness_by_intensity = []
for run in runs:
    name = run.get("name")
    res = run.get("results", {})
    for key in ("hot_p99_ms", "victim_p99_ms", "fairness"):
        require(isinstance(res.get(key), (int, float)),
                f"run '{name}' results lack '{key}'")
    require(0 < res["fairness"] <= 1.0,
            f"run '{name}' fairness {res['fairness']} outside (0,1]")
    a = run.get("attribution")
    require(isinstance(a, dict), f"run '{name}' has no attribution section")
    disk = sum(sum(acct[k] for k in DISK) for acct in a["principals"].values())
    require(close(disk, a["global"]["disk_ms"]),
            f"run '{name}' disk not conserved: {disk} vs "
            f"{a['global']['disk_ms']}")
    require(close(res["fairness"], a["fairness"]),
            f"run '{name}' results fairness != attribution fairness")
    fairness_by_intensity.append(
        (run["config"]["hot_intensity"], res["fairness"]))

fairness_by_intensity.sort()
base, top = fairness_by_intensity[0], fairness_by_intensity[-1]
require(base[0] == 0, f"no hot_intensity=0 baseline run ({base})")
require(top[1] < base[1],
        f"fairness did not degrade: intensity {top[0]} scored {top[1]:.4f} "
        f">= baseline {base[1]:.4f}")
print("check_bench_json: OK (micro_antagonist: deterministic, conserved, "
      f"fairness {base[1]:.3f} -> {top[1]:.3f} as intensity "
      f"{base[0]} -> {top[0]})")
EOF
done

# ---- redundancy gate -------------------------------------------------------
# A malformed kill spec must fail fast in both spellings, and killing a
# target without a replicated mount is harness misuse, not a scenario.
for bad in 0 -3 many 1@ @2 1@-2 x@y; do
  if "$BENCH" --quick --json "$OUT" --kill-osd "$bad" > /dev/null 2>&1; then
    echo "check_bench_json: FAIL: --kill-osd $bad did not fail"
    exit 1
  fi
  rc=0
  "$BENCH" --quick --json "$OUT" "--kill-osd=$bad" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "check_bench_json: FAIL: --kill-osd=$bad exited $rc, want 2"
    exit 1
  fi
done
rc=0
"$BENCH" --quick --json "$OUT" --kill-osd 1@2 > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "check_bench_json: FAIL: --kill-osd without --replicas exited $rc, want 2"
  exit 1
fi
echo "check_bench_json: OK (bad/unreplicated --kill-osd specs exit 2)"

# Replication off is the mount everything else in CI measures: `--replicas 1`
# must not change a byte — of the JSON report for every bench, nor of the
# printed tables for the figure benches (their stdout is sim-deterministic).
for bench in "$@"; do
  name="$(basename "$bench")"
  "$bench" --quick --json "$OUT" > "$BOUT" 2>/dev/null
  "$bench" --quick --json "$RED" --replicas 1 > "$ROUT" 2>/dev/null
  if ! cmp -s "$OUT" "$RED"; then
    echo "check_bench_json: FAIL: $name --replicas 1 is not byte-identical" \
         "to the default (unreplicated) report"
    diff "$OUT" "$RED" | head -20 || true
    exit 1
  fi
  case "$name" in
    fig*)
      if ! cmp -s "$BOUT" "$ROUT"; then
        echo "check_bench_json: FAIL: $name --replicas 1 stdout differs" \
             "from the default run"
        diff "$BOUT" "$ROUT" | head -20 || true
        exit 1
      fi
      ;;
  esac
  echo "check_bench_json: OK ($name replicas-1 report byte-identical to default)"
done

# The survivable-kill scenario: a 2-way replicated fig7 mount loses target 1
# two simulated milliseconds in, serves every read degraded with zero
# client-visible errors, and the online rebuild finishes on the sim timeline
# leaving figures within tolerance of the never-killed replicated baseline.
for bench in "$@"; do
  [ "$(basename "$bench")" = "fig7_macro" ] || continue
  "$bench" --quick --json "$RED" --replicas 2 --kill-osd 1@2 > /dev/null 2>&1
  python3 - "$RED" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_bench_json: FAIL: {msg}")

red = {r["name"]: r for r in doc.get("runs", [])
       if r["config"].get("benchmark") == "redundancy"}
for name in ("redundancy replicated", "redundancy killed"):
    require(name in red, f"--replicas 2 --kill-osd report lacks '{name}' run")
base, killed = red["redundancy replicated"], red["redundancy killed"]
require(base["config"].get("replicas") == 2
        and killed["config"].get("replicas") == 2,
        "redundancy runs lack replicas=2 in config")
require(killed["config"].get("killed") is True
        and killed["config"].get("kill_target") == 1,
        "killed run config lacks the kill spec")

kr, br = killed["results"], base["results"]
require(kr["read_errors"] == 0,
        f"killed run saw {kr['read_errors']} client-visible read errors")
require(kr["degraded_reads"] > 0,
        "killed run re-routed no reads — the kill never bit")
require(kr["repair_bytes_rebuilt"] > 0, "repair rebuilt zero bytes")
require(kr["repair_completed"] >= 1, "repair never completed")
require(kr["repair_completed_ms"] >= 0.0,
        f"repair completion stamp {kr['repair_completed_ms']} not on the "
        "sim timeline")
require(kr["dead_targets"] == 0,
        f"{kr['dead_targets']} target(s) still dead after the drain barrier")

# Post-repair figures: the rebuild writes merged, sorted runs, so the extent
# count must not balloon past the never-killed baseline, and the degraded +
# repaired read phase stays within 30% of it.
require(br["extents"] > 0, "baseline replicated run mapped no extents")
require(kr["extents"] <= 1.5 * br["extents"],
        f"killed run fragmented: {kr['extents']} extents vs baseline "
        f"{br['extents']}")
require(kr["read_ms"] <= 1.3 * br["read_ms"],
        f"killed run read phase {kr['read_ms']:.1f} ms vs baseline "
        f"{br['read_ms']:.1f} ms (> 1.3x)")

print(f"check_bench_json: OK (kill-osd recovery: 0 read errors, "
      f"{kr['degraded_reads']} degraded reads, "
      f"{kr['repair_bytes_rebuilt']} bytes rebuilt by "
      f"{kr['repair_completed_ms']:.1f} ms sim, extents "
      f"{br['extents']}->{kr['extents']}, read "
      f"{br['read_ms']:.1f}->{kr['read_ms']:.1f} ms)")
EOF
done

# ---- list-I/O gate ---------------------------------------------------------
# Passing the collective-aggregator default explicitly must not change a
# byte: 4 aggregators IS the built-in CollectiveConfig, so the flag only
# re-states it.
for bench in "$@"; do
  [ "$(basename "$bench")" = "fig7_macro" ] || continue
  "$bench" --quick --json "$OUT" > /dev/null 2>&1
  "$bench" --quick --json "$LIST" --collective-aggregators 4 > /dev/null 2>&1
  if ! cmp -s "$OUT" "$LIST"; then
    echo "check_bench_json: FAIL: fig7_macro --collective-aggregators 4 is" \
         "not byte-identical to the default report"
    diff "$OUT" "$LIST" | head -20 || true
    exit 1
  fi
  echo "check_bench_json: OK (fig7 aggregators-4 report byte-identical to default)"

  # List mount on: the strided sweep must ship an order fewer data-RPC
  # envelopes (>= 5x) in strictly less data-network sim time, and every
  # attributed run — whose frames now carry multiple (offset,len) runs each
  # — must still conserve against the global counters.
  "$bench" --quick --json "$LIST" --list-io 64 --attribution > /dev/null 2>&1
  python3 - "$LIST" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_bench_json: FAIL: {msg}")

def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

strided = [r for r in doc.get("runs", [])
           if r["config"].get("benchmark") == "strided-list-io"]
require(strided, "--list-io report lacks the strided-list-io run")
res = strided[0]["results"]
per, lst = res["perblock_data_rpcs"], res["list_data_rpcs"]
require(lst > 0, "list mount issued no data RPCs")
require(per >= 5 * lst,
        f"list mount shipped only {per / lst:.1f}x fewer data envelopes "
        f"({per} per-block vs {lst} list), want >= 5x")
require(res["list_net_ms"] < res["perblock_net_ms"],
        f"list mount was not faster on the data network "
        f"({res['list_net_ms']} vs {res['perblock_net_ms']} ms)")

DISK = ("disk_seek_ms", "disk_rotation_ms", "disk_skip_ms",
        "disk_transfer_ms")
attributed = [r for r in doc.get("runs", []) if "attribution" in r]
require(attributed, "--list-io --attribution report has no attributed runs")
for run in attributed:
    name = run.get("name")
    a = run["attribution"]
    principals, glob = a.get("principals"), a.get("global")
    require(isinstance(principals, dict) and principals,
            f"run '{name}' has no principals")
    sums = {"disk": 0.0, "net": 0.0, "cpu": 0.0, "bytes": 0}
    for acct in principals.values():
        sums["disk"] += sum(acct[k] for k in DISK)
        sums["net"] += acct["net_ms"]
        sums["cpu"] += acct["mds_cpu_ms"]
        sums["bytes"] += acct["net_bytes"]
    require(close(sums["disk"], glob["disk_ms"]),
            f"run '{name}' disk not conserved over list frames: "
            f"{sums['disk']} vs {glob['disk_ms']}")
    require(close(sums["net"], glob["net_ms"]),
            f"run '{name}' net time not conserved over list frames: "
            f"{sums['net']} vs {glob['net_ms']}")
    require(close(sums["cpu"], glob["mds_cpu_ms"]),
            f"run '{name}' MDS cpu not conserved over list frames: "
            f"{sums['cpu']} vs {glob['mds_cpu_ms']}")
    require(sums["bytes"] == glob["net_bytes"],
            f"run '{name}' net bytes not conserved over list frames: "
            f"{sums['bytes']} vs {glob['net_bytes']}")

print(f"check_bench_json: OK (list-io: {per}->{lst} data envelopes "
      f"({per / lst:.1f}x), net {res['perblock_net_ms']:.1f}->"
      f"{res['list_net_ms']:.1f} ms, {len(attributed)} attributed runs "
      "conserve over multi-run frames)")
EOF
done

# ---- formation/QoS gate ----------------------------------------------------
# An adaptive ceiling of 1 can never arm the controller: it must fail fast
# with status 2 in both spellings, not silently run the sync chain.
for form in "--adaptive-depth 1" "--adaptive-depth=1"; do
  rc=0
  # shellcheck disable=SC2086
  "$BENCH" --quick --json "$OUT" $form > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "check_bench_json: FAIL: $form exited $rc, want 2"
    exit 1
  fi
done
echo "check_bench_json: OK (--adaptive-depth 1 rejected with status 2)"

# Defaults off: without --qos/--adaptive-depth no run of any bench carries
# the scheduler's config knobs or the adaptive controller's trajectory.
for bench in "$@"; do
  name="$(basename "$bench")"
  "$bench" --quick --json "$OUT" > /dev/null 2>&1
  python3 - "$OUT" "$name" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for run in doc.get("runs", []):
    cfg, res = run.get("config", {}), run.get("results", {})
    for key in ("qos_mbps", "adaptive_depth"):
        if key in cfg:
            sys.exit(f"check_bench_json: FAIL: {sys.argv[2]} run "
                     f"'{run.get('name')}' config carries '{key}' without "
                     "the flag")
    for key in ("pipeline_depth_changes", "pipeline_depth_min",
                "pipeline_depth_max"):
        if key in res:
            sys.exit(f"check_bench_json: FAIL: {sys.argv[2]} run "
                     f"'{run.get('name')}' results carry '{key}' without "
                     "--adaptive-depth")
    if run.get("name", "").startswith("qos="):
        sys.exit(f"check_bench_json: FAIL: {sys.argv[2]} emitted a qos A/B "
                 "run without --qos")
EOF
done
echo "check_bench_json: OK (no qos/adaptive fields without the flags)"

# The floating window must actually float: under `--adaptive-depth 8` every
# run records the ceiling in its config, the controller's trajectory shows
# the window moved off its floor somewhere, and the pipeline still overlaps.
"$BENCH" --quick --json "$ADAPT" --adaptive-depth 8 > /dev/null 2>&1
python3 - "$ADAPT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_bench_json: FAIL: {msg}")

runs = doc.get("runs", [])
require(runs, "--adaptive-depth 8 report has no runs")
moved = 0
speedups = []
for run in runs:
    name = run.get("name")
    cfg, res = run.get("config", {}), run.get("results", {})
    require(cfg.get("adaptive_depth") == 8,
            f"run '{name}' config lacks adaptive_depth=8")
    for key in ("pipeline_speedup", "pipeline_depth_changes",
                "pipeline_depth_min", "pipeline_depth_max"):
        require(isinstance(res.get(key), (int, float)),
                f"run '{name}' results lack '{key}'")
    require(res["pipeline_depth_min"] <= res["pipeline_depth_max"],
            f"run '{name}' depth_min {res['pipeline_depth_min']} > "
            f"depth_max {res['pipeline_depth_max']}")
    if res["pipeline_depth_min"] < res["pipeline_depth_max"]:
        moved += 1
        require(res["pipeline_depth_changes"] > 0,
                f"run '{name}' window moved but depth_changes == 0")
    speedups.append(res["pipeline_speedup"])

require(moved > 0, "adaptive window never left its floor in any run")
best = max(speedups)
require(best > 1.0,
        f"adaptive pipeline_speedup <= 1 everywhere (best {best:.3f})")
print(f"check_bench_json: OK (adaptive-depth 8: window moved in {moved}/"
      f"{len(runs)} runs, best speedup {best:.2f}x)")
EOF

# The antagonist under the token bucket: at the top intensity the shaped
# mount must restore fairness (>= 0.9, strictly above the unshaped run) and
# the victims' p99, and the shaped runs — whose parked envelopes release
# under the scheduler's own principal scope — must still conserve their
# attribution ledgers exactly.
for bench in "$@"; do
  [ "$(basename "$bench")" = "micro_antagonist" ] || continue
  "$bench" --quick --json "$QOS" --qos 4 > /dev/null 2>&1
  python3 - "$QOS" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def require(cond, msg):
    if not cond:
        sys.exit(f"check_bench_json: FAIL: {msg}")

def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

DISK = ("disk_seek_ms", "disk_rotation_ms", "disk_skip_ms",
        "disk_transfer_ms")

ab = {r["name"]: r for r in doc.get("runs", [])
      if r.get("name", "").startswith("qos=")}
require(ab, "--qos 4 report has no qos A/B runs")
for arm in ("qos=on hot=16", "qos=off hot=16"):
    require(arm in ab, f"--qos sweep lacks the '{arm}' run")
on, off = ab["qos=on hot=16"], ab["qos=off hot=16"]
require(on["config"].get("qos_mbps") == 4,
        "qos=on run config lacks qos_mbps=4")
require("qos_mbps" not in off["config"],
        "qos=off run config carries qos_mbps")

f_on, f_off = on["results"]["fairness"], off["results"]["fairness"]
require(f_on >= 0.9,
        f"shaped fairness {f_on:.4f} < 0.9 at hot=16")
require(f_on > f_off,
        f"scheduler did not improve fairness ({f_on:.4f} on vs "
        f"{f_off:.4f} off)")
v_on, v_off = on["results"]["victim_p99_ms"], off["results"]["victim_p99_ms"]
require(v_on < v_off,
        f"victims' p99 did not improve under qos ({v_on:.2f} on vs "
        f"{v_off:.2f} off)")

for name, run in ab.items():
    a = run.get("attribution")
    require(isinstance(a, dict), f"run '{name}' has no attribution section")
    sums = {"disk": 0.0, "net": 0.0, "cpu": 0.0, "bytes": 0}
    for acct in a["principals"].values():
        sums["disk"] += sum(acct[k] for k in DISK)
        sums["net"] += acct["net_ms"]
        sums["cpu"] += acct["mds_cpu_ms"]
        sums["bytes"] += acct["net_bytes"]
    glob = a["global"]
    require(close(sums["disk"], glob["disk_ms"]),
            f"run '{name}' disk not conserved under qos: {sums['disk']} "
            f"vs {glob['disk_ms']}")
    require(close(sums["net"], glob["net_ms"]),
            f"run '{name}' net time not conserved under qos: "
            f"{sums['net']} vs {glob['net_ms']}")
    require(close(sums["cpu"], glob["mds_cpu_ms"]),
            f"run '{name}' MDS cpu not conserved under qos: "
            f"{sums['cpu']} vs {glob['mds_cpu_ms']}")
    require(sums["bytes"] == glob["net_bytes"],
            f"run '{name}' net bytes not conserved under qos: "
            f"{sums['bytes']} vs {glob['net_bytes']}")

print(f"check_bench_json: OK (qos A/B at hot=16: fairness {f_off:.3f} -> "
      f"{f_on:.3f}, victim p99 {v_off:.2f} -> {v_on:.2f} ms, "
      f"{len(ab)} shaped runs conserve)")
EOF
done
