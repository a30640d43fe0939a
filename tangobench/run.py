#!/usr/bin/env python3
"""The repository benchmark: Tango operations over TCP to a durable tango_logd.

Run from the root of a checkout:

    python3 tangobench/run.py --workload map_txn --seed 1 --seconds 10 --trace 0

Builds tango_logd and the client driver (tangobench/driver.cc) from the
checkout's sources into .bench_build/, runs one workload against a fresh
daemon, checks the results, and prints every metric by name with its unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from an untraced half (counters) and a traced half (spans).
The full report, with run_info and the per-layer self-time table, goes to
.bench_out/.  NOTES.md says why each workload and load level was chosen.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tangobench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# bk_append runs but is not in BENCHMARK.json: its check fails on a known
# defect of the program (NOTES.md).
WORKLOADS = ("map_txn", "journal_append", "map_read", "bk_append")
# The driver's own limit once the build is done; the whole run must end
# within 180 s.
DRIVER_TIMEOUT_S = 150

# RPC methods reported per layer, as (registry name, metric name).
RPC_METHODS = (
    ("sequencer.next", "sequencer_next"),
    ("sequencer.tail", "sequencer_tail"),
    ("storage.write", "storage_write"),
    ("storage.read_batch", "storage_read_batch"),
    ("storage.read", "storage_read"),
)
LAYERS = ("runtime", "corfu.client", "net", "corfu.sequencer",
          "corfu.storage_node", "daemon.other", "unattributed")


def fail(message):
    print("tangobench: " + message, file=sys.stderr)
    sys.exit(1)


# ---------------------------------------------------------------------------
# Build


def build():
    for rel in ("src/CMakeLists.txt", "tools/tango_logd.cc", "tools/node_layout.h"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail("repository source %s not found; run from a full checkout" % rel)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed; see " + log_path)
        cmd = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 2)]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            fail("build failed; see " + log_path)
    return (os.path.join(BUILD_DIR, "tango_bench"),
            os.path.join(BUILD_DIR, "tango_logd"))


def run_info():
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.check_output(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                          stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    # Identifies the measured sources where there is no git history.
    digest = hashlib.sha256()
    for top in ("src", "tools", "tangobench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "host": platform.node(),
        "kernel": platform.release(),
        "nproc": os.cpu_count(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def drop_logs(work_dir):
    """Removes the daemons' log data from a failed run's work dir, keeping
    their stdout/stderr (flight-recorder dumps)."""
    for name in os.listdir(work_dir):
        shutil.rmtree(os.path.join(work_dir, name, "data"), ignore_errors=True)


def run_driver(driver, logd, args, work_dir, report_path):
    cmd = [driver, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--logd=" + logd, "--work-dir=" + work_dir, "--out=" + report_path]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)

    def stop(signum, frame):
        # The driver runs in its own session: take it (and its daemon) down
        # with this process.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        drop_logs(work_dir)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        drop_logs(work_dir)
        fail("driver timed out after %d s; daemon output kept in %s"
             % (DRIVER_TIMEOUT_S, work_dir))
    # The daemon is the driver's child with a parent-death signal; make sure
    # nothing of the session outlives the run.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if code != 0:
        drop_logs(work_dir)
        fail("driver exited with %d; daemon output kept in %s" % (code, work_dir))


# ---------------------------------------------------------------------------
# Counter helpers


def daemon_delta(phase):
    """Counter and histogram deltas of the daemon registry over a phase."""
    before, after = phase["daemon_before"], phase["daemon_after"]
    if before is None or after is None:
        return {"counters": {}, "hists": {}}
    counters = {k: v - before["counters"].get(k, 0)
                for k, v in after["counters"].items()}
    hists = {}
    for k, h in after["histograms"].items():
        b = before["histograms"].get(k, {"count": 0, "mean": 0.0})
        count = h["count"] - b["count"]
        if count > 0:
            # The JSON export carries mean, not sum; mean is rounded to 0.1.
            hists[k] = {"count": count,
                        "sum": h["count"] * h["mean"] - b["count"] * b["mean"]}
    return {"counters": counters, "hists": hists}


def hist_mean(hists, name):
    h = hists.get(name)
    return h["sum"] / h["count"] if h and h["count"] else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def successful_ops(workload, phase):
    # map_read counts the writer's Puts beside the readers' Gets.
    if workload == "map_read":
        return phase["ops"] + phase["write_ops"]
    return phase["ops"]


def counter_identities(client):
    """The identities the program documents, over one phase's deltas."""
    c = client["counters"]
    g = lambda name: c.get(name, 0)
    return {
        "store.cache.misses == store.fetch.miss_ok + store.fetch.trimmed + store.fetch.errors":
            g("store.cache.misses") == g("store.fetch.miss_ok") + g("store.fetch.trimmed") + g("store.fetch.errors"),
        "runtime.txn.attempts == commits + aborts + timeouts + errors":
            g("runtime.txn.attempts") == g("runtime.txn.commits") + g("runtime.txn.aborts")
            + g("runtime.txn.timeouts") + g("runtime.txn.errors"),
    }


def replay_rate(replays):
    """Entries replayed per second, summed over a round's readers; the median
    over map_read's rounds (the other workloads end with one replay)."""
    rates = [ratio(r["runtime"]["entries_played"], r["seconds"]) for r in replays]
    return statistics.median(rates) if rates else 0.0


# ---------------------------------------------------------------------------
# Traces


def load_spans(events, source):
    spans = []
    for e in events:
        a = e.get("args", {})
        spans.append({"src": source, "name": e["name"],
                      "trace": a["trace_id"], "id": a["span_id"],
                      "parent": a["parent_id"], "start": e["ts"],
                      "end": e["ts"] + e["dur"]})
    return spans


def layer_of(span):
    name = span["name"]
    if span["src"] == "daemon":
        if name.startswith("rpc:sequencer."):
            return "corfu.sequencer"
        if name.startswith("rpc:storage."):
            return "corfu.storage_node"
        return "daemon.other"
    if name == "bench.op":
        return "unattributed"
    if name.startswith("rpc:"):
        return "net"
    if name.startswith("log."):
        return "corfu.client"
    return "runtime"


def attribute(root, spans):
    """Splits the root span's wall time among its descendants: each instant
    goes to the deepest span open then (the latest-started on a tie), so the
    parts add up to the root's duration exactly.  Returns {(layer, name): us}."""
    # Span ids are unique per process only; every parent is a client span.
    clients = {s["id"]: s for s in spans if s["src"] == "client"}
    depth = {(root["src"], root["id"]): (0, root["start"], root["end"])}
    placed = [root]
    pending = [s for s in spans if s is not root]
    # Parents are resolved in rounds; a daemon span's parent is the client
    # rpc span that carried its context.
    while pending:
        rest = []
        for s in pending:
            parent = clients.get(s["parent"])
            key = ("client", s["parent"])
            if key in depth:
                d, lo, hi = depth[key]
                start, end = s["start"], s["end"]
                if s["src"] == "daemon":
                    # The two processes' span clocks are calibrated apart and
                    # can disagree by milliseconds: keep the handler's
                    # duration and centre it in the client's rpc span.
                    start = lo + max(0.0, (hi - lo) - (end - start)) / 2
                    end = start + (s["end"] - s["start"])
                lo, hi = max(lo, start), min(hi, end)
                if lo < hi:
                    depth[(s["src"], s["id"])] = (d + 1, lo, hi)
                    placed.append(s)
            elif parent is not None:
                rest.append(s)
        if len(rest) == len(pending):
            break
        pending = rest
    edges = sorted({v[1] for v in depth.values()} | {v[2] for v in depth.values()})
    out = {}
    for lo, hi in zip(edges, edges[1:]):
        best, best_key = None, None
        for s in placed:
            d, slo, shi = depth[(s["src"], s["id"])]
            if slo <= lo and shi >= hi:
                k = (d, slo)
                if best_key is None or k > best_key:
                    best, best_key = s, k
        if best is not None:
            key = (layer_of(best), best["name"])
            out[key] = out.get(key, 0.0) + (hi - lo)
    return out


def analyze_traces(report):
    client = load_spans(report["client_spans"], "client")
    daemon = load_spans(report["daemon_spans"], "daemon")
    traces = {}
    for s in client + daemon:
        traces.setdefault(s["trace"], []).append(s)
    roots = [s for s in client if s["name"] == "bench.op" and s["parent"] == 0]
    roots.sort(key=lambda s: s["end"] - s["start"])
    # The table is the mean over the operations ranked 45%-55% by duration:
    # the median operation, with less noise than one sample.
    n = len(roots)
    band = roots[int(n * 0.45):max(int(n * 0.55), int(n * 0.45) + 1)] if n else []
    rows = {}
    for root in band:
        for key, us in attribute(root, traces[root["trace"]]).items():
            rows[key] = rows.get(key, 0.0) + us
    rows = {k: v / len(band) for k, v in rows.items()} if band else {}
    whole = statistics.mean(r["end"] - r["start"] for r in band) if band else 0.0
    median = (roots[n // 2]["end"] - roots[n // 2]["start"]) if n else 0.0

    # Client-observed RPC time minus the daemon's handler span, per call.
    client_by_id = {(s["trace"], s["id"]): s for s in client if s["name"].startswith("rpc:")}
    overhead, server = {}, {}
    for s in daemon:
        server.setdefault(s["name"], []).append(s["end"] - s["start"])
        c = client_by_id.get((s["trace"], s["parent"]))
        if c is not None and c["name"] == s["name"]:
            overhead.setdefault(s["name"], []).append(
                (c["end"] - c["start"]) - (s["end"] - s["start"]))
    return {
        "ops": n, "band_ops": len(band), "whole_us": whole, "median_op_us": median,
        "rows": [{"layer": k[0], "span": k[1], "self_us": v}
                 for k, v in sorted(rows.items(), key=lambda kv: -kv[1])],
        "net_overhead_us": {k: statistics.mean(v) for k, v in overhead.items()},
        "server_us": {k: statistics.mean(v) for k, v in server.items()},
        "spans": {"client": len(client), "daemon": len(daemon)},
    }


# ---------------------------------------------------------------------------
# Metrics


def window_rate(phase, key):
    """Median over the phase's whole one-second windows of completions per
    second: a transient stall moves it less than it moves the mean."""
    full = max(int(phase["seconds"]), 1)
    counts = (phase[key] + [0] * full)[:full]
    return float(statistics.median(counts))


def end_to_end(report):
    w = report["workload"]
    m = report["phases"][0]
    lat = m["latency_us"]
    return {
        "ops_per_s": (window_rate(m, "ops_per_window"), "1/s"),
        "p50_us": (lat.get("p50", 0.0), "us"),
        "write_ops_per_s": (window_rate(m, "writes_per_window"), "1/s"),
        "setup_s": (statistics.median(report["setup_s"]), "s"),
    }, {
        "fail_pct": 100.0 * ratio(m["failed"], m["attempted"]),
        "abort_pct": 100.0 * ratio(m["aborts"], m["attempted"]) if w == "map_txn" else None,
        "latency_samples": lat["n"],
        "p99_us": lat.get("p99", 0.0),
        "replay_entries_per_s": replay_rate(report["replays"]),
    }


def per_layer(report, traced):
    w = report["workload"]
    u = report["phases"][0]
    t = report["phases"][1] if len(report["phases"]) > 1 else None
    n = successful_ops(w, u)
    cc, ch = u["client"]["counters"], u["client"]["hists"]
    d = daemon_delta(u)
    dc, dh = d["counters"], d["hists"]
    c = lambda name: cc.get(name, 0)
    per_op = lambda v: ratio(v, n)
    span_self = {}
    for row in traced["rows"]:
        span_self[row["span"]] = span_self.get(row["span"], 0.0) + row["self_us"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for row in traced["rows"]:
        layer_self[row["layer"]] += row["self_us"]

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    # end to end, where it does not repeat closely enough for a bound
    put("e2e.p99_us", u["latency_us"].get("p99", 0.0), "us")
    put("e2e.latency_samples", u["latency_us"]["n"], "count")
    # runtime
    put("runtime.commit_us", u["commit_us"].get("p50", 0.0), "us")
    put("runtime.entries_played_per_op", per_op(c("runtime.entries_played")), "count")
    put("runtime.query_self_us", span_self.get("runtime.query", 0.0), "us")
    put("runtime.play_self_us", span_self.get("runtime.play", 0.0), "us")
    put("runtime.apply_self_us", span_self.get("runtime.apply", 0.0)
        + span_self.get("runtime.playback.task", 0.0), "us")
    put("runtime.playback.parallel_pct", 100.0 * ratio(
        c("runtime.playback.entries.parallel"),
        c("runtime.playback.entries.parallel") + c("runtime.playback.entries.sequential")), "%")
    put("runtime.decision_stalls", u["runtime"]["decision_stalls"], "count")
    put("runtime.abort_pct", 100.0 * ratio(u["aborts"], u["attempted"]), "%")
    # corfu.stream
    put("store.cache_hit_pct", 100.0 * ratio(c("store.cache.hits"),
                                             c("store.cache.hits") + c("store.cache.misses")), "%")
    put("store.backfill_reads_per_op", per_op(c("store.backfill.reads")), "count")
    put("store.prefetch_batches_per_op", per_op(
        c("store.prefetch.batches") + c("store.prefetch.async_batches")), "count")
    # replay (the cold-sync phases)
    rc = {}
    rdh = {}
    for r in report["replays"]:
        for k, v in r["client"]["counters"].items():
            rc[k] = rc.get(k, 0) + v
        for k, v in daemon_delta(r)["hists"].items():
            agg = rdh.setdefault(k, {"count": 0, "sum": 0.0})
            agg["count"] += v["count"]
            agg["sum"] += v["sum"]
    played = rc.get("runtime.entries_played", 0)
    put("replay.entries_per_s", replay_rate(report["replays"]), "1/s")
    put("replay.cache_hit_pct", 100.0 * ratio(
        rc.get("store.cache.hits", 0), rc.get("store.cache.hits", 0) + rc.get("store.cache.misses", 0)), "%")
    put("replay.parallel_pct", 100.0 * ratio(
        rc.get("runtime.playback.entries.parallel", 0),
        rc.get("runtime.playback.entries.parallel", 0) + rc.get("runtime.playback.entries.sequential", 0)), "%")
    put("replay.prefetch_batches_per_kentry", 1000.0 * ratio(
        rc.get("store.prefetch.batches", 0) + rc.get("store.prefetch.async_batches", 0), played), "count")
    put("replay.read_batch_mean_size", hist_mean(rdh, "storage.read_batch.size"), "count")
    # corfu.client
    for reg, metric in RPC_METHODS:
        put("rpc.%s.calls_per_op" % metric, per_op(c("rpc.%s.calls" % reg)), "count")
        put("rpc.%s.us" % metric, hist_mean(ch, "rpc.%s.latency_us" % reg), "us")
    put("rpc.bytes_per_op", per_op(u["wire_bytes"]), "B")
    put("log.retries_per_op", per_op(c("log.append_retries") + c("overload.client.busy_backoffs")
                                     + c("log.epoch_refreshes")), "count")
    put("log.hole_timeouts", c("log.hole_timeouts"), "count")
    put("log.fills", c("log.fills"), "count")
    # net
    for reg, metric in RPC_METHODS:
        put("net.overhead_us.%s" % metric, traced["net_overhead_us"].get("rpc:" + reg, 0.0), "us")
    # corfu.sequencer
    put("sequencer.server_us", traced["server_us"].get("rpc:sequencer.next", 0.0), "us")
    put("sequencer.tail.server_us", traced["server_us"].get("rpc:sequencer.tail", 0.0), "us")
    put("sequencer.tokens_per_op", per_op(dc.get("sequencer.tokens", 0)), "count")
    put("overload.sequencer.shed", dc.get("overload.sequencer.shed", 0), "count")
    # corfu.storage_node
    put("storage.write.server_us", traced["server_us"].get("rpc:storage.write", 0.0), "us")
    put("storage.read_batch.server_us", traced["server_us"].get("rpc:storage.read_batch", 0.0), "us")
    put("storage.read_batch.mean_size", hist_mean(dh, "storage.read_batch.size"), "count")
    put("storage.write.lost_race", dc.get("storage.write.lost_race", 0), "count")
    # storage (segment store)
    put("segment.records_per_fsync", ratio(dc.get("storage.segment.records", 0),
                                           dc.get("storage.segment.fsyncs", 0)), "count")
    put("segment.fsyncs_per_s", ratio(dc.get("storage.segment.fsyncs", 0), u["seconds"]), "1/s")
    put("overload.storage.shed", dc.get("overload.storage.shed", 0), "count")
    put("segment.bytes_per_user_byte", ratio(dc.get("storage.segment.bytes", 0), u["user_bytes"]), "ratio")
    # obs
    untraced_rate = ratio(n, u["seconds"])
    traced_rate = ratio(successful_ops(w, t), t["seconds"]) if t else 0.0
    put("obs.trace_overhead_pct", 100.0 * ratio(untraced_rate - traced_rate, untraced_rate), "%")
    dropped = report["client_trace_dropped"]
    if t:
        dropped += daemon_delta(t)["counters"].get("obs.trace.dropped", 0)
    put("obs.trace.dropped", dropped, "count")
    # the traced median operation, split by layer
    put("trace.op_us", traced["whole_us"], "us")
    put("trace.ops", traced["ops"], "count")
    for layer in LAYERS:
        put("trace.self_us." + layer, layer_self[layer], "us")
    identities = counter_identities(u["client"])
    put("counters.valid", 1 if all(identities.values()) else 0, "count")
    return out, identities


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    driver, logd = build()
    info = run_info()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(RUNS_DIR, "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(OUT_DIR, exist_ok=True)
    report_path = os.path.join(work_dir, "report.json")
    run_driver(driver, logd, args, work_dir, report_path)
    with open(report_path) as f:
        report = json.load(f)
    shutil.rmtree(work_dir, ignore_errors=True)

    measure = report["phases"] + report["replays"]
    attempted = sum(p["attempted"] for p in measure)
    failed = sum(p["failed"] for p in measure)
    failed += sum(c["failures"] for c in report["checks"])
    first_errors = [p["first_error"] for p in measure if p["first_error"]]

    result = {"run_info": info, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "config": report["config"]}
    print("tangobench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("run_info: " + json.dumps(info, sort_keys=True))
    print("config: " + json.dumps(report["config"], sort_keys=True))
    if args.trace:
        traced = analyze_traces(report)
        metrics, identities = per_layer(report, traced)
        result["layer_table"] = traced
        result["counter_identities"] = identities
        print("per-layer self time of the traced median operation "
              "(mean of %d ops ranked 45-55%% of %d; median op %.1f us):"
              % (traced["band_ops"], traced["ops"], traced["median_op_us"]))
        for row in traced["rows"]:
            print("  %-20s %-26s %10.1f us" % (row["layer"], row["span"], row["self_us"]))
        print("  %-47s %10.1f us" % ("whole (sum of the rows)", traced["whole_us"]))
        for name, ok in identities.items():
            print("counter identity %s: %s" % (name, "holds" if ok else "VIOLATED, per-layer table invalid"))
        if metrics["obs.trace.dropped"][0]:
            print("WARNING: %d spans dropped in the traced run" % metrics["obs.trace.dropped"][0])
    else:
        metrics, extra = end_to_end(report)
        result["extra"] = extra
        print("fail_pct: %.4f %%  (failed %d of %d attempted)" % (extra["fail_pct"], failed, attempted))
        if extra["abort_pct"] is not None:
            print("abort_pct: %.4f %%" % extra["abort_pct"])
        # Printed, not gated: neither repeats closely enough (NOTES.md).
        print("latency samples: %d" % extra["latency_samples"])
        print("p99_us: %.1f us" % extra["p99_us"])
        print("replay_entries_per_s: %.1f 1/s" % extra["replay_entries_per_s"])
    for name, (value, unit) in metrics.items():
        print("%s: %.6g %s" % (name, value, unit))
    for c in report["checks"]:
        print("CHECK FAILED %s: %s" % (c["name"], c["detail"]))
    print("checks: %s" % ("all passed" if failed == 0 else "%d failed operations" % failed))
    for e in first_errors:
        print("first error: " + e)

    result["checks"] = report["checks"]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
