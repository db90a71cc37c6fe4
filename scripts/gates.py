#!/usr/bin/env python3
"""The bench-report gate: every check on the bench harness's --json and
--trace output is a row of one table.  Usage: gates.py <bench-dir>

  identity      `--pipeline-depth 1`, `--mds-shards 1` and `--replicas 1`
                mount nothing extra: report and stdout are byte-identical to
                the bench's default run, so each bench is also deterministic.
  defaults-off  without its flag, no opt-in section or knob reaches a report.
  scenario      one (bench, flags) report shows its feature at work.
  exit          a misuse exits 2, an observability flag the bench does not
                act on included; a report or trace it cannot write exits 1.

Each distinct (bench, argv) runs once, one worker per core, in a temporary
directory of its own, as `--quick --json <tmp>/report.json` (plus `--trace
<tmp>/trace.json` for the span-dump rows); the rows read those cached runs.
After a row passes, its mutation breaks a fresh copy of the runs and the row
must then fail: a row that cannot fail checks nothing.
"""
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

FIG6A, FIG7, FIG9 = "fig6a_stream_count", "fig7_macro", "fig9_aging"
ANTAGONIST = "micro_antagonist"
# Every bench that writes a report (micro_ops is google-benchmark's).
BENCHES = (FIG6A, "fig6b_request_size", FIG7, "table1_extents",
           "fig8_metadata", FIG9, "fig10_postmark_apps", "ablation_window",
           "ablation_miss_threshold", "ablation_lazyfree",
           "ablation_prealloc_waste", "ablation_distribution", ANTAGONIST)
REPORT = ("--json", "{tmp}/report.json")
TRACE = ("--trace", "{tmp}/trace.json")
# The observability flags, and the ones each bench acts on (obs::Honoured in
# its BenchReport); a bench given any other of them exits 2.  micro_ops
# writes no report but shares the flag table.
OBSERVERS = {"--trace": TRACE, "--timeseries": ("--timeseries",),
             "--attribution": ("--attribution",)}
HONOURED = {FIG6A: ("--trace",), FIG7: tuple(OBSERVERS),
            FIG9: ("--timeseries",), ANTAGONIST: ("--attribution",)}
# The four disk-time components an attribution account splits disk_ms into.
DISK = ("disk_seek_ms", "disk_rotation_ms", "disk_skip_ms",
        "disk_transfer_ms")
# The recorder each sim-clock span comes from: the last word of the label
# its lane was claimed with ("osd 3 disk (mount 0)", "meta net (mount 1)").
SIM_RECORDER = {"disk.seek": "disk", "disk.skip": "disk",
                "disk.transfer": "disk", "io.queue_wait": "queue",
                "net.exchange": "net", "mds.cpu": "cpu", "rpc.async": "async",
                "rpc.stall": "stall", "rpc.qos.wait": "qos",
                "qos.dropped_error": "qos", "fault.delay": "fault",
                "formation.dropped_error": "formation"}


class Fail(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise Fail(msg)


def close(a, b):
    """Equal within 1e-9 relative (absolute below 1)."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def number(v):
    return isinstance(v, (int, float))


def runs_where(doc, key, value):
    return [r for r in doc.get("runs", []) if r["config"].get(key) == value]


def named(doc, name):
    return next(r for r in doc["runs"] if r["name"] == name)


def require_conserved(name, attribution, where=""):
    """Per-principal sums equal the global counters: disk, network and MDS
    cpu time within 1e-9 relative, network bytes exactly."""
    require(isinstance(attribution, dict), f"run '{name}' has no attribution")
    principals = attribution.get("principals")
    glob = attribution.get("global")
    require(isinstance(principals, dict) and principals,
            f"run '{name}' has no principals")
    require(isinstance(glob, dict), f"run '{name}' has no global comparands")
    sums = {"disk_ms": 0.0, "net_ms": 0.0, "mds_cpu_ms": 0.0, "net_bytes": 0}
    for acct in principals.values():
        sums["disk_ms"] += sum(acct[k] for k in DISK)
        for key in ("net_ms", "mds_cpu_ms", "net_bytes"):
            sums[key] += acct[key]
    for key in ("disk_ms", "net_ms", "mds_cpu_ms"):
        require(close(sums[key], glob[key]), f"run '{name}' {key} not "
                f"conserved{where}: {sums[key]} vs global {glob[key]}")
    require(sums["net_bytes"] == glob["net_bytes"], f"run '{name}' net_bytes "
            f"not conserved{where}: {sums['net_bytes']} vs "
            f"{glob['net_bytes']}")


# ---- scenario checks: each reads one report (and its trace) ----------------

def fig6a_default(doc):
    """The schema envelope, and the on-demand run's allocator counters,
    extent-count histogram and positioning-time stat."""
    require(doc.get("schema_version") == 1, "schema_version != 1")
    require(doc.get("bench") == FIG6A, "bench name mismatch")
    runs = doc.get("runs")
    require(isinstance(runs, list) and runs, "runs missing or empty")
    for run in runs:
        for key in ("name", "config", "results"):
            require(key in run, f"run missing '{key}'")
        require(number(run["results"].get("phase2_throughput_mbps")),
                "results missing throughput")
    ondemand = runs_where(doc, "mode", "ondemand")
    require(ondemand, "no ondemand run in report")
    m = ondemand[0].get("metrics")
    require(isinstance(m, dict), "ondemand run has no metrics registry")
    counters = m.get("counters", {})
    for key in ("alloc.ondemand.layout_miss",
                "alloc.ondemand.pre_alloc_layout"):
        require(key in counters, f"counter '{key}' missing")
        require(counters[key] > 0, f"counter '{key}' is zero")
    hist = m.get("histograms", {}).get("alloc.extents_per_file")
    require(hist is not None, "histogram 'alloc.extents_per_file' missing")
    require(hist.get("count", 0) > 0, "extent histogram is empty")
    require(isinstance(hist.get("buckets"), list), "histogram has no buckets")
    stat = m.get("stats", {}).get("sim.disk.position_ms")
    require(stat is not None, "stat 'sim.disk.position_ms' missing")
    require(stat.get("count", 0) > 0, "positioning-time stat is empty")
    require(stat.get("mean", 0) > 0, "positioning-time mean is zero")


def overlapping(doc, knob, results):
    """Every run records `knob`=8 in its config and the numeric `results`,
    and the pipeline overlaps (speedup > 1) somewhere.  Returns the runs."""
    runs = doc.get("runs", [])
    require(runs, f"{knob}=8 report has no runs")
    for run in runs:
        name, res = run.get("name"), run.get("results", {})
        require(run.get("config", {}).get(knob) == 8,
                f"run '{name}' config lacks {knob}=8")
        for key in ("pipeline_speedup", *results):
            require(number(res.get(key)), f"run '{name}' results lack '{key}'")
    best = max(r["results"]["pipeline_speedup"] for r in runs)
    require(best > 1.0, f"pipeline_speedup <= 1 everywhere (best {best:.3f})")
    return runs


def pipelined(doc):
    """Depth 8 overlaps, with the pipelined timings in every run."""
    overlapping(doc, "pipeline_depth",
                ("pipeline_serial_ms", "pipeline_elapsed_ms"))


def adaptive(doc):
    """The floating window floats: it moved off its floor somewhere, and the
    pipeline still overlaps."""
    moved = 0
    for run in overlapping(doc, "adaptive_depth", (
            "pipeline_depth_changes", "pipeline_depth_min",
            "pipeline_depth_max")):
        name, res = run["name"], run["results"]
        lo, hi = res["pipeline_depth_min"], res["pipeline_depth_max"]
        require(lo <= hi, f"run '{name}' depth_min {lo} > depth_max {hi}")
        if lo < hi:
            moved += 1
            require(res["pipeline_depth_changes"] > 0,
                    f"run '{name}' window moved but depth_changes == 0")
    require(moved > 0, "adaptive window never left its floor in any run")


def pin_window(doc):
    for run in doc["runs"]:
        res = run["results"]
        res["pipeline_depth_max"] = res["pipeline_depth_min"]


def spans(doc, trace):
    """Well-formed span events from every layer, sane host-clock nesting,
    disjoint sim-disk tracks, the slow log, and span quantiles."""
    events = trace.get("traceEvents")
    require(isinstance(events, list) and events, "traceEvents missing")
    xs = [e for e in events if e.get("ph") == "X"]
    require(xs, "no complete ('X') span events")
    for e in xs:
        for key in ("name", "cat", "ts", "dur", "pid", "tid"):
            require(key in e, f"span event missing '{key}': {e}")
        require(e["ts"] >= 0, f"negative timestamp: {e}")
        require(e["dur"] >= 0, f"negative duration: {e}")
        require(e["pid"] in (1, 2), f"unknown pid (host=1, sim=2): {e}")
        args = e.get("args", {})
        require("trace_id" in args and "span_id" in args,
                f"span event missing identity args: {e}")
    names = {e["name"] for e in xs}
    require(len(names) >= 6, f"expected >= 6 phases, got {sorted(names)}")
    for layer in ("client.", "mds.", "osd.", "disk."):
        require(any(n.startswith(layer) for n in names),
                f"no '{layer}*' phase in trace ({sorted(names)})")
    # On the host clock, children start no earlier than their parent.
    by_span = {e["args"]["span_id"]: e for e in xs if e["pid"] == 1}
    checked = 0
    for e in by_span.values():
        parent = by_span.get(e["args"].get("parent_id"))
        if parent is not None:
            require(e["ts"] + 1e-6 >= parent["ts"],
                    f"child starts before parent: {e}")
            checked += 1
    require(checked > 0, "no parent/child pair found on the host clock")
    # Sim-disk spans never overlap on one disk's track (tid).
    by_track = {}
    for e in xs:
        if e["pid"] == 2:
            by_track.setdefault(e["tid"], []).append((e["ts"], e["dur"]))
    require(by_track, "no sim-disk spans recorded")
    for track, ts in by_track.items():
        ts.sort()
        for (a_ts, a_dur), (b_ts, _) in zip(ts, ts[1:]):
            require(a_ts + a_dur <= b_ts + 1e-3,  # 1 ns slack: ms -> us
                    f"overlapping sim spans on disk track {track}")
    slow = trace.get("slowTraces")
    require(isinstance(slow, list) and slow, "slowTraces missing or empty")
    for t in slow:
        require(t.get("spans"), f"slow trace {t.get('trace_id')} has no spans")
    durs = [t["dur_us"] for t in slow]
    require(durs == sorted(durs, reverse=True), "slowTraces not slowest-first")
    runs = doc.get("runs")
    require(isinstance(runs, list) and runs, "metrics report has no runs")
    hist = runs[-1].get("metrics", {}).get("histograms", {})
    for phase in ("span.disk.seek", "span.journal.commit",
                  "span.client.write"):
        require(phase in hist, f"histogram '{phase}' missing from metrics")
        for q in ("p50", "p95", "p99", "p999"):
            require(q in hist[phase], f"'{phase}' missing quantile '{q}'")


def sim_lane_labels(trace):
    """{tid: label} of the sim lanes (pid 2) in a trace."""
    return {e["tid"]: e["args"]["name"] for e in trace.get("traceEvents", [])
            if e.get("ph") == "M" and e.get("name") == "thread_name"
            and e.get("pid") == 2}


def sim_lane_recorders(trace):
    """{tid: set of recorders} whose spans each sim lane carries."""
    lanes = {}
    for e in trace.get("traceEvents", []):
        if e.get("ph") == "X" and e.get("pid") == 2:
            lanes.setdefault(e["tid"], set()).add(
                SIM_RECORDER.get(e["name"], e["name"]))
    return lanes


def sim_lanes(doc, trace):
    """Each sim lane carries one recorder's spans and is named after it: a
    lane with disk.* spans is a disk lane and carries nothing else, and so
    for the queue, network, MDS-CPU, async-channel and stall lanes; no two
    lanes share a label across the mounts that share the collector."""
    labels = sim_lane_labels(trace)
    lanes = sim_lane_recorders(trace)
    require(lanes, "no sim spans in trace")
    for tid, recorders in lanes.items():
        require(len(recorders) == 1,
                f"sim lane {tid} mixes recorders {sorted(recorders)}")
        recorder = next(iter(recorders))
        require(recorder in SIM_RECORDER.values(),
                f"sim lane {tid} carries unknown span '{recorder}'")
        label = labels.get(tid)
        require(label is not None, f"sim lane {tid} has no thread_name")
        named = label.split(" (mount ")[0].split()[-1]
        require(named == recorder, f"sim lane {tid} carries {recorder} "
                f"spans but is named '{label}'")
    names = list(labels.values())
    require(len(set(names)) == len(names), "two sim lanes share a label")
    for recorder in ("disk", "queue", "net", "cpu", "async", "stall"):
        require(any(recorder in r for r in lanes.values()),
                f"no {recorder} lane in the trace")


def swap_disk_and_net_labels(doc, trace):
    lanes = sim_lane_recorders(trace)
    disk = next(t for t, r in lanes.items() if r == {"disk"})
    net = next(t for t, r in lanes.items() if r == {"net"})
    metas = {e["tid"]: e for e in trace["traceEvents"]
             if e.get("ph") == "M" and e.get("name") == "thread_name"
             and e.get("pid") == 2}
    metas[disk]["args"], metas[net]["args"] = (metas[net]["args"],
                                               metas[disk]["args"])


def shards(doc):
    """Four shards route for real: balanced shard-namespace runs, subtree
    listings that stay on one shard, hash listings that fan out."""
    ns = {r["config"].get("placement"): r
          for r in runs_where(doc, "benchmark", "shard-namespace")}
    for placement in ("subtree", "hash"):
        require(placement in ns, f"no {placement} shard-namespace run")
        require(ns[placement]["config"].get("mds_shards") == 4,
                f"{placement} namespace run config lacks mds_shards=4")
        imb = ns[placement]["results"].get("shard_imbalance")
        require(number(imb) and imb < 2.0, f"{placement} imbalance {imb} >= 2")
    subtree = ns["subtree"]["results"].get("shard_fanout")
    fanout = ns["hash"]["results"].get("shard_fanout")
    require(subtree == 0, f"subtree listings fanned out ({subtree} requests)")
    require(isinstance(fanout, int) and fanout > 0,
            f"hash listings recorded no fan-out ({fanout})")


def conserving(doc, where=""):
    """The report's attributed runs, each of which must conserve."""
    runs = [r for r in doc.get("runs", []) if "attribution" in r]
    require(runs, "report has no attributed runs")
    for run in runs:
        require_conserved(run["name"], run["attribution"], where)
    return runs


def attributed(doc):
    """Every attributed run conserves with fairness in (0,1], and the
    critical-path requests decompose exactly, slowest first."""
    for run in conserving(doc):
        fairness = run["attribution"].get("fairness")
        require(number(fairness) and 0 < fairness <= 1.0,
                f"run '{run['name']}' fairness {fairness} outside (0,1]")
    cp = doc.get("critical_path")
    require(isinstance(cp, dict), "--attribution report lacks critical_path")
    reqs = cp.get("requests")
    require(isinstance(reqs, list) and reqs, "critical_path has no requests")
    for r in reqs:
        seg_sum = sum(r["segments"].values())
        require(close(seg_sum, r["total_ms"]), f"trace {r.get('trace_id')} "
                f"segments sum {seg_sum} != total {r['total_ms']}")
    totals = [r["total_ms"] for r in reqs]
    require(totals == sorted(totals, reverse=True), "not slowest-first")


def leak_a_byte(doc):
    run = next(r for r in doc["runs"] if "attribution" in r)
    next(iter(run["attribution"]["principals"].values()))["net_bytes"] += 1


def killed(doc):
    """A 2-way mount that loses target 1 serves every read, rebuilds on the
    sim timeline, and lands near the never-killed replicated baseline."""
    red = {r["name"]: r for r in runs_where(doc, "benchmark", "redundancy")}
    for name in ("redundancy replicated", "redundancy killed"):
        require(name in red, f"--kill-osd report lacks the '{name}' run")
    base, kill = red["redundancy replicated"], red["redundancy killed"]
    require(base["config"].get("replicas") == 2
            and kill["config"].get("replicas") == 2,
            "redundancy runs lack replicas=2 in config")
    require(kill["config"].get("killed") is True
            and kill["config"].get("kill_target") == 1,
            "killed run config lacks the kill spec")
    kr, br = kill["results"], base["results"]
    require(kr["read_errors"] == 0,
            f"killed run saw {kr['read_errors']} client-visible read errors")
    require(kr["degraded_reads"] > 0, "no degraded reads: the kill never bit")
    require(kr["repair_bytes_rebuilt"] > 0, "repair rebuilt zero bytes")
    require(kr["repair_completed"] >= 1, "repair never completed")
    require(kr["repair_completed_ms"] >= 0.0, f"repair completion stamp "
            f"{kr['repair_completed_ms']} not on the sim timeline")
    require(kr["dead_targets"] == 0,
            f"{kr['dead_targets']} target(s) still dead after the drain")
    # The rebuild writes merged, sorted runs: the extent count must not
    # balloon past the baseline, and the degraded + repaired read phase
    # stays within 30% of it.
    require(br["extents"] > 0, "baseline replicated run mapped no extents")
    require(kr["extents"] <= 1.5 * br["extents"], f"killed run fragmented: "
            f"{kr['extents']} extents vs baseline {br['extents']}")
    require(kr["read_ms"] <= 1.3 * br["read_ms"], f"killed run read phase "
            f"{kr['read_ms']:.1f} ms vs baseline {br['read_ms']:.1f} ms")


def list_io(doc):
    """The list mount ships >= 5x fewer data envelopes in strictly less
    data-network time, and attribution still conserves over list frames."""
    strided = runs_where(doc, "benchmark", "strided-list-io")
    require(strided, "--list-io report lacks the strided-list-io run")
    res = strided[0]["results"]
    per, lst = res["perblock_data_rpcs"], res["list_data_rpcs"]
    require(lst > 0, "list mount sent no data RPCs")
    require(per >= 5 * lst, f"list mount cut data envelopes only "
            f"{per / lst:.2f}x ({per} -> {lst}), want >= 5x")
    require(res["list_net_ms"] < res["perblock_net_ms"],
            f"list mount was not faster on the data network "
            f"({res['list_net_ms']} vs {res['perblock_net_ms']} ms)")
    conserving(doc, " over list frames")


def just_under_5x(doc):
    res = runs_where(doc, "benchmark", "strided-list-io")[0]["results"]
    res["list_data_rpcs"] = res["perblock_data_rpcs"] // 5 + 1


def counter_tracks(doc, trace):
    """Timelines merged into the span dump as counter tracks on named pids,
    with epoch instants, and the report's matching series."""
    events = trace.get("traceEvents", [])
    require(events, "traceEvents missing or empty")
    xs = [e for e in events if e.get("ph") == "X"]
    require(xs, "no span events in trace")
    for e in xs:
        require(e["pid"] in (1, 2), f"span on a timeline pid: {e}")
    counters = [e for e in events if e.get("ph") == "C"]
    require(counters, "no counter ('C') events: timelines not merged")
    series = {}
    for e in counters:
        for key in ("name", "cat", "ts", "pid", "tid"):
            require(key in e, f"counter event missing '{key}': {e}")
        require(e["pid"] >= 3, f"counter on a span pid: {e}")
        require(e["ts"] >= 0, f"negative counter timestamp: {e}")
        require(number(e.get("args", {}).get("value")),
                f"counter value not numeric: {e}")
        series.setdefault((e["pid"], e["name"]), []).append(e["ts"])
    for (pid, name), ts in series.items():
        require(ts == sorted(ts), f"counter '{name}' (pid {pid}) timestamps "
                "not non-decreasing")
    require(any(name == "frag.extent_count" for _, name in series),
            "no frag.extent_count counter track")
    meta_pids = {e["pid"] for e in events
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
    unnamed = {pid for pid, _ in series} - meta_pids
    require(not unnamed, f"unnamed timeline pids: {sorted(unnamed)}")
    instants = [e for e in events if e.get("ph") == "i"]
    require(instants, "no epoch instant ('i') events")
    require(any(e.get("name") == "end" for e in instants), "no 'end' instant")
    with_ts = [r for r in doc.get("runs", []) if "timeseries" in r]
    require(with_ts, "--timeseries report has no timeseries runs")
    for run in with_ts:
        times = run["timeseries"].get("times_ms", [])
        require(times, f"run '{run.get('name')}' has an empty time axis")
        require(all(a < b for a, b in zip(times, times[1:])),
                f"run '{run.get('name')}' time axis not strictly increasing")


def aging_timeline(doc):
    """fig9 under the recorder: a strictly increasing sim time axis, a
    non-empty, non-decreasing frag.extent_count series whose final sample
    equals the end-of-run registry gauge exactly (same scan, same doubles),
    and the aging workload's epoch marks."""
    runs = doc.get("runs", [])
    require(runs, "--timeseries report has no runs")
    for run in runs:
        name, ts = run.get("name"), run.get("timeseries")
        require(isinstance(ts, dict), f"run '{name}' has no timeseries")
        require(ts.get("interval_ms", 0) > 0, f"run '{name}' interval_ms <= 0")
        times = ts.get("times_ms")
        require(isinstance(times, list) and times, f"run '{name}' no times")
        for a, b in zip(times, times[1:]):
            require(a < b, f"run '{name}' sim timestamps not strictly "
                    f"increasing ({a} then {b})")
        frag = ts.get("series", {}).get("frag.extent_count")
        require(isinstance(frag, dict), f"run '{name}' lacks the frag series")
        values = frag.get("values")
        require(isinstance(values, list) and values, f"run '{name}' no values")
        require(len(values) == len(times), f"run '{name}' series != time axis")
        require(any(v > 0 for v in values),
                f"run '{name}' frag.extent_count never rose above zero")
        for a, b in zip(values, values[1:]):
            require(b >= a, f"run '{name}' frag.extent_count decreased "
                    f"under churn ({a} then {b})")
        gauges = run.get("metrics", {}).get("gauges", {})
        gauge = gauges.get("frag.extent_count")
        require(gauge is not None, f"run '{name}' lacks the frag gauge")
        require(values[-1] == gauge and frag.get("last") == gauge,
                f"run '{name}' final sample {values[-1]} != end-of-run "
                f"gauge {gauge}")
        labels = {e.get("label") for e in ts.get("epochs", [])}
        for epoch in ("churn", "measure.create", "measure.delete", "end"):
            require(epoch in labels, f"run '{name}' missing epoch '{epoch}' "
                    f"(got {sorted(labels)})")


def nudge_gauge(doc):
    gauges = doc["runs"][0]["metrics"]["gauges"]
    gauges["frag.extent_count"] = math.nextafter(
        gauges["frag.extent_count"], math.inf)


def antagonist(doc):
    """Attribution conserves, and Jain's fairness in (0,1] degrades as the
    hot client's intensity grows: the noisy neighbour shows in the ledger."""
    runs = doc.get("runs", [])
    require(len(runs) >= 3, f"expected >= 3 intensity points, got {len(runs)}")
    fairness = []
    for run in runs:
        name, res = run.get("name"), run.get("results", {})
        for key in ("hot_p99_ms", "victim_p99_ms", "fairness"):
            require(number(res.get(key)), f"run '{name}' results lack '{key}'")
        require(0 < res["fairness"] <= 1.0,
                f"run '{name}' fairness {res['fairness']} outside (0,1]")
        a = run.get("attribution")
        require_conserved(name, a)
        require(close(res["fairness"], a["fairness"]),
                f"run '{name}' results fairness != attribution fairness")
        fairness.append((run["config"]["hot_intensity"], res["fairness"]))
    fairness.sort()
    base, top = fairness[0], fairness[-1]
    require(base[0] == 0, f"no hot_intensity=0 baseline run ({base})")
    require(top[1] < base[1], f"fairness did not degrade: intensity {top[0]} "
            f"scored {top[1]:.4f} >= baseline {base[1]:.4f}")


def level_fairness(doc):
    base = named(doc, "hot=0")["results"]["fairness"]
    for run in doc["runs"]:
        run["results"]["fairness"] = run["attribution"]["fairness"] = base


def qos(doc):
    """At the top intensity the token bucket restores fairness and the
    victims' p99, and the shaped runs still conserve."""
    ab = {r["name"]: r for r in doc.get("runs", [])
          if r.get("name", "").startswith("qos=")}
    require(ab, "--qos 4 report has no qos A/B runs")
    for arm in ("qos=on hot=16", "qos=off hot=16"):
        require(arm in ab, f"--qos sweep lacks the '{arm}' run")
    on, off = ab["qos=on hot=16"], ab["qos=off hot=16"]
    require(on["config"].get("qos_mbps") == 4, "qos=on lacks qos_mbps=4")
    require("qos_mbps" not in off["config"], "qos=off carries qos_mbps")
    f_on, f_off = on["results"]["fairness"], off["results"]["fairness"]
    require(f_on >= 0.9, f"shaped fairness {f_on:.4f} < 0.9 at hot=16")
    require(f_on > f_off, f"qos did not improve fairness ({f_on:.4f} on vs "
            f"{f_off:.4f} off)")
    v_on = on["results"]["victim_p99_ms"]
    v_off = off["results"]["victim_p99_ms"]
    require(v_on < v_off, f"victims' p99 did not improve under qos "
            f"({v_on:.2f} on vs {v_off:.2f} off)")
    for name, run in ab.items():
        require_conserved(name, run.get("attribution"), " under qos")


# ---- the four kinds of row -------------------------------------------------

class Row(NamedTuple):
    kind: str
    name: str
    calls: tuple      # ((bench, argv), ...): the runs check() reads, in order
    check: Callable   # check(*runs) raises Fail
    mutate: Callable  # mutate(*runs) breaks the runs so that check() fails


def quick(*flags):
    return ("--quick", *flags, *REPORT)


def show(argv):
    return " ".join(argv).replace("{tmp}", "<tmp>")


def identity(bench, flags):
    def check(base, run):
        require(base.status == 0 and base.report is not None,
                f"default run exited {base.status} or wrote no report")
        require(run.status == 0, f"exited {run.status}")
        require(run.report == base.report, "report differs from default run")
        require(run.stdout == base.stdout, "stdout differs from default run")

    def mutate(base, run):
        run.report = bytes([run.report[0] ^ 1]) + run.report[1:]
    return Row("identity", f"{bench} {show(flags)}",
               ((bench, quick()), (bench, quick(*flags))), check, mutate)


def defaults_off(bench):
    # Attribution is micro_antagonist's subject, so it is always on there.
    attributed = bench == ANTAGONIST

    def check(run):
        require(run.status == 0 and run.doc is not None,
                f"exited {run.status} or wrote no report")
        require(run.doc.get("runs"), "report has no runs")
        require(attributed or "critical_path" not in run.doc,
                "report carries critical_path without --attribution")
        for r in run.doc["runs"]:
            name, cfg, res = r.get("name", ""), r["config"], r["results"]
            require("timeseries" not in r,
                    f"run '{name}' carries timeseries without --timeseries")
            require(attributed or "attribution" not in r,
                    f"run '{name}' carries attribution without the flag")
            for key in ("qos_mbps", "adaptive_depth"):
                require(key not in cfg, f"run '{name}' config carries '{key}'")
            for key in ("pipeline_depth_changes", "pipeline_depth_min",
                        "pipeline_depth_max"):
                require(key not in res, f"run '{name}' results carry '{key}'")
            require(not name.startswith("qos="),
                    f"qos A/B run '{name}' without --qos")

    def mutate(run):
        run.doc["runs"][0]["timeseries"] = {}
    return Row("defaults-off", bench, ((bench, quick()),), check, mutate)


def scenario(bench, flags, check, mutate):
    traced = TRACE[0] in flags

    def views(run):
        require(run.status == 0, f"exited {run.status}")
        require(run.doc is not None, "wrote no readable report")
        require(not traced or run.trace is not None, "wrote no readable trace")
        return (run.doc, run.trace) if traced else (run.doc,)
    return Row("scenario", f"{bench} {show(flags)}".rstrip(),
               ((bench, quick(*flags)),), lambda run: check(*views(run)),
               lambda run: mutate(*views(run)))


def exits(bench, argv, status=2):
    def check(run):
        require(run.status == status, f"exited {run.status}, want {status}")

    def mutate(run):
        run.status = 0  # the misuse silently accepted
    return Row("exit", f"{bench} {show(argv)}", ((bench, argv),), check,
               mutate)


def spellings(flag, value):
    return ((flag, value), (f"{flag}={value}",))


COUNT_FLAGS = ("--pipeline-depth", "--mds-shards", "--list-io", "--qos",
               "--adaptive-depth", "--replicas")
VALUE_FLAGS = ("--json", "--trace", *COUNT_FLAGS, "--kill-osd")
# Harness misuse, which exits 2 before anything runs.  2^32 would wrap to 0
# in a u32; a value flag must not swallow the next flag as its value.
MISUSE = (
    *(("--quick", *form) for flag in COUNT_FLAGS
      for bad in ("0", "-3", "many", "4294967296")
      for form in spellings(flag, bad)),
    *(("--quick", *form)
      for bad in ("0", "-3", "many", "1@", "@2", "1@-2", "x@y")
      for form in spellings("--kill-osd", bad)),
    *(form for flag in VALUE_FLAGS
      for form in (("--quick", flag), (flag, "--quick"),
                   ("--quick", f"{flag}="))),
    ("--quick", "--pipline-depth", "8"), ("--quick", "stray"),
    ("--quick", "--quick=1"),
    # A ceiling of 1 can never arm the adaptive controller.
    *(("--quick", *form) for form in spellings("--adaptive-depth", "1")),
    # Killing a target of an unreplicated mount is data loss, not a scenario.
    ("--quick", "--kill-osd", "1@2"),
    # A kill at a non-finite time never fires.
    ("--quick", "--replicas", "2", "--kill-osd", "1@inf"),
)
UNWRITABLE = "{tmp}/missing/out.json"

ROWS = (
    *(identity(bench, flags) for bench in BENCHES
      for flags in (("--pipeline-depth", "1"), ("--mds-shards", "1"),
                    ("--replicas", "1"))),
    *(defaults_off(bench) for bench in BENCHES),
    scenario(FIG6A, (), fig6a_default,
             lambda doc: named(doc, "streams=8 mode=ondemand")["metrics"][
                 "counters"].pop("alloc.ondemand.layout_miss")),
    scenario(FIG6A, ("--pipeline-depth", "8"), pipelined,
             lambda doc: [r["results"].update(pipeline_speedup=1.0)
                          for r in doc["runs"]]),
    scenario(FIG6A, ("--adaptive-depth", "8"), adaptive, pin_window),
    scenario(FIG6A, TRACE, spans,
             lambda doc, trace: trace["slowTraces"].reverse()),
    scenario(FIG7, ("--mds-shards", "4"), shards,
             lambda doc: named(doc, "shard-namespace subtree")[
                 "results"].update(shard_fanout=1)),
    scenario(FIG7, ("--attribution",), attributed, leak_a_byte),
    scenario(FIG7, ("--replicas", "2", "--kill-osd", "1@2"), killed,
             lambda doc: named(doc, "redundancy killed")["results"].update(
                 read_errors=1)),
    scenario(FIG7, ("--list-io", "64", "--attribution"), list_io,
             just_under_5x),
    scenario(FIG7, (*TRACE, "--attribution", "--pipeline-depth", "4"),
             sim_lanes, swap_disk_and_net_labels),
    scenario(FIG7, (*TRACE, "--timeseries"), counter_tracks,
             lambda doc, trace: trace.update(traceEvents=[
                 e for e in trace["traceEvents"] if e.get("ph") != "i"])),
    scenario(FIG9, ("--timeseries",), aging_timeline, nudge_gauge),
    scenario(ANTAGONIST, (), antagonist, level_fairness),
    scenario(ANTAGONIST, ("--qos", "4"), qos,
             lambda doc: named(doc, "qos=on hot=16")["results"].update(
                 fairness=math.nextafter(0.9, 0.0))),
    *(exits(FIG6A, argv) for argv in MISUSE),
    # fig9 takes --timeseries, so these reach the interval check: a recorder
    # that never samples.
    exits(FIG9, ("--quick", "--timeseries=0")),
    exits(FIG9, ("--quick", "--timeseries=inf")),
    *(exits(bench, ("--quick", *OBSERVERS[flag]))
      for bench in (*BENCHES, "micro_ops") for flag in OBSERVERS
      if flag not in HONOURED.get(bench, ())),
    # A report or trace that cannot be written is a failed run.
    exits(FIG6A, ("--quick", "--json", UNWRITABLE), 1),
    exits(FIG6A, ("--quick", "--trace", UNWRITABLE), 1),
    exits(FIG7, ("--quick", "--trace", UNWRITABLE), 1),
)


# ---- the runner ------------------------------------------------------------

def invoke(bench_dir, bench, argv):
    """Runs `bench argv` in a temporary directory, which "{tmp}" in argv
    names; returns (status, stdout, report bytes, trace bytes)."""
    with tempfile.TemporaryDirectory(prefix="mif_gate.") as tmp:
        p = subprocess.run([os.path.join(bench_dir, bench),
                            *(a.replace("{tmp}", tmp) for a in argv)],
                           cwd=tmp, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL)
        files = [path.replace("{tmp}", tmp) for _, path in (REPORT, TRACE)]
        return (p.returncode, p.stdout,
                *(Path(f).read_bytes() if os.path.exists(f) else None
                  for f in files))


def load(status, stdout, report, trace):
    """A cached run as one row sees it, its report and trace parsed afresh
    (None when absent or not JSON)."""
    def parse(raw):
        try:
            return None if raw is None else json.loads(raw)
        except ValueError:
            return None
    return SimpleNamespace(status=status, stdout=stdout, report=report,
                           doc=parse(report), trace=parse(trace))


def verdict(row, cache):
    """None when the row passes on its runs and fails on their mutation,
    else what went wrong."""
    try:
        row.check(*(load(*cache[call]) for call in row.calls))
    except Fail as e:
        return str(e)
    runs = [load(*cache[call]) for call in row.calls]
    row.mutate(*runs)
    try:
        row.check(*runs)
    except Fail:
        return None
    return "passes its own mutation, so it checks nothing"


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: gates.py <bench-dir>")
    bench_dir = os.path.abspath(argv[1])
    calls = list(dict.fromkeys(call for row in ROWS for call in row.calls))
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        cache = dict(zip(calls, pool.map(lambda c: invoke(bench_dir, *c),
                                         calls)))
    passed = {}
    for row in ROWS:
        err = verdict(row, cache)
        if err:
            print(f"gates: FAIL: {row.kind} {row.name}: {err}")
        passed.setdefault(row.kind, []).append(err is None)
    for kind, oks in passed.items():
        print(f"gates: {kind}: {sum(oks)}/{len(oks)} rows pass and catch "
              "their mutation")
    failed = sum(oks.count(False) for oks in passed.values())
    print(f"gates: {'FAIL' if failed else 'OK'} ({len(ROWS)} rows over "
          f"{len(calls)} runs, {failed} failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
