#!/usr/bin/env python3
"""The repository's benchmark: one command, two seeded workloads.

    python3 perfbench/run.py --workload ooc-jacobi --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Builds perfbench/ (and the library
sources it compiles) into $CARGO_TARGET_DIR or .bench_build, generates the
workload's requests from the seed (perfbench/workloads.py), stores the
reference solutions they need (a separate driver process, so the measured
one holds none), runs the requests in one driver process with at most 4
threads, checks every result against the reference, and prints a summary
followed, as the last line, by one JSON object: {"correct", "attempted",
"failed", "metrics"}.  A driver that fails, crashes or times out still
ends the output with that line, with "correct": false.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md for what each measures and why).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

VARIANTS = ("baseline", "pipelined", "compressed", "wavefront")
TOPOLOGIES = ("fat-tree", "torus", "cloud")
DRIVER_TIMEOUT_S = 165    # the measured process
PREPARE_TIMEOUT_S = 600   # references: several minutes on a checkout's first run


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once and builds the driver; returns its path."""
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "Makefile").exists():  # written only by a good configure
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", "4",
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr)
    return cmake_dir / "perfbench_driver"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, rows):
    """The metrics a user sees, from the untraced requests."""
    return {
        "mlups": metric(stats.keyed_rate(rows), "MLUP/s"),
        "case_s.p50": metric(stats.keyed_wall(rows), "s"),
        "setup_s": metric(stats.setup_seconds(rows, raw["run"]["load_s"]), "s"),
        "peak_rss_mib": metric(raw["peak_rss_mib"], "MiB"),
    }


def schedule_metrics(rows, out):
    """core.<v>.* over the traced rows that requested schedule v."""
    for v in VARIANTS:
        vrows = [r for r in rows if r["variant"] == v]
        adv = sum(r["advance_s"] for r in vrows)
        thread_s = sum(r["threads"] * r["advance_s"] for r in vrows)
        predicted_s = sum(r["lups"] / (r["predicted_mlups"] * 1e6)
                          for r in vrows if r["predicted_mlups"] > 0)
        out[f"core.{v}.mlups"] = metric(stats.mlups(vrows), "MLUP/s")
        out[f"core.{v}.barrier_wait_frac"] = metric(stats.ratio(
            stats.reg_sum(vrows, "core.barrier_wait.seconds"), thread_s), "ratio")
        out[f"core.{v}.pipeline_wait_frac"] = metric(stats.ratio(
            stats.reg_sum(vrows, "core.pipeline_wait.seconds"), thread_s), "ratio")
        out[f"core.{v}.gbs_computed"] = metric(stats.ratio(
            sum(r["bytes_per_lup"] * r["lups"] for r in vrows), adv) / 1e9, "GB/s")
        # measured over modeled rate: > 1 means faster than the NodeModel
        out[f"core.{v}.model_gap"] = metric(stats.ratio(predicted_s, adv), "ratio")
    blocked = max(out[f"core.{v}.mlups"]["value"] for v in VARIANTS[1:])
    out["core.blocked_speedup"] = metric(
        stats.ratio(blocked, out["core.baseline.mlups"]["value"]), "ratio")


def dist_metrics(rows, out):
    def med(f):
        return statistics.median(f(r) for r in rows) if rows else 0.0
    out["dist.epoch_s"] = metric(med(lambda r: r["advance_s"] / r["epochs"]), "s")
    out["dist.exchange_frac"] = metric(stats.ratio(
        stats.reg_sum(rows, "dist.exchange.seconds"),
        sum(r["ranks"] * r["advance_s"] for r in rows)), "ratio")
    out["dist.halo_bytes_per_epoch"] = metric(
        med(lambda r: r["halo_bytes"] / r["epochs"]), "bytes")
    out["dist.messages_per_epoch"] = metric(
        med(lambda r: r["messages"] / r["epochs"]), "count")
    out["dist.gather_s"] = metric(med(lambda r: r["gather_s"]), "s")
    out["dist.sim_epoch_s"] = metric(med(lambda r: r["sim_s"] / r["epochs"]), "s")


def self_times(raw, rows, ladder):
    """Mean share of each traced request's wall time per layer, plus the
    unattributed remainder; per request the parts sum to the wall time.
    core (advance) and tune (probe seconds) are measured inside the
    request.  session (pool lookup) and, on
    the run_case path, facade (construct or reset) and scenario (the
    engine's own work) are the ladder's direct measurements of the same
    problem.  On the session path the request span is the solve call, so
    facade is what remains of it after lookup, tune and advance."""
    parts = {k: 0.0 for k in ("core", "tune", "facade", "session", "scenario",
                              "unattributed")}
    if not rows:
        return parts
    session_over = ladder["session_over_s"]
    for r in rows:
        got = {"core": r["advance_s"],
               "tune": r["reg"].get("tune.probe.seconds", 0.0),
               "session": session_over}
        if raw["workload"] == "ooc-jacobi":
            got["facade"] = ladder["construct_s"] if r["first"] else ladder["reset_s"]
            got["scenario"] = ladder["case_over_s"]
        else:
            # The request span is SolverSession::solve itself: lookup, then
            # construct or reset, then advance().
            got["facade"] = r["wall_s"] - sum(got.values())
        got["unattributed"] = r["wall_s"] - sum(got.values())
        for k, v in got.items():
            parts[k] += v / r["wall_s"] / len(rows)
    return parts


def per_layer(raw):
    out = {}
    requests = raw["requests"]
    rows = [r for r in requests if not r["ladder"]]
    traced = [r for r in requests if r["traced"]]
    work = [r for r in traced if not r["ladder"]]
    shared = [r for r in traced if not r["op"].startswith("dist:")]
    dist = [r for r in traced if r["op"].startswith("dist:")]
    ladder_sec = raw["ladder"]
    cal = raw["calibration"]

    for k in ("jacobi", "varcoef", "lbm_aa"):
        out[f"core.kernel.{k}.ns_per_lup"] = metric(cal["kernel_ns_per_lup"][k], "ns")
    schedule_metrics(shared, out)

    session_over = (ladder_sec["session_hit_wall_s"] - ladder_sec["session_hit_advance_s"]
                    - ladder_sec["reset_s"])
    case_over = ((ladder_sec["engine_hit_wall_s"] - ladder_sec["engine_hit_advance_s"])
                 - (ladder_sec["session_hit_wall_s"] - ladder_sec["session_hit_advance_s"]))
    out["core.solver.construct_s"] = metric(ladder_sec["construct_s"], "s")
    out["core.solver.reset_s"] = metric(ladder_sec["reset_s"], "s")
    out["core.session.overhead_s"] = metric(session_over, "s")
    # Session and tuner counters tick with telemetry off too, so they are
    # summed over every request of the workload.
    created = stats.reg_sum(rows, "session.solver.create")
    reused = stats.reg_sum(rows, "session.solver.reuse")
    out["core.session.reuse_ratio"] = metric(stats.ratio(reused, created + reused), "ratio")
    out["util.buffer.allocs"] = metric(
        stats.ratio(sum(r["allocs"] for r in rows), len(rows)), "count")
    out["scenario.load_s"] = metric(raw["run"]["load_s"], "s")
    out["scenario.case_overhead_s"] = metric(case_over, "s")

    tune_reg = ladder_sec["tune_reg"]
    def tune_count(name):
        return stats.reg_sum(rows, name) + tune_reg.get(name, 0.0)
    out["tune.plan_s"] = metric(ladder_sec["plan_s"], "s")
    out["tune.probes"] = metric(stats.reg_sum(rows, "tune.probes"), "count")
    hits, misses = tune_count("tune.cache.hit"), tune_count("tune.cache.miss")
    out["tune.cache_hit_ratio"] = metric(stats.ratio(hits, hits + misses), "ratio")
    agreed = tune_count("tune.winner.model_agreed")
    disagreed = tune_count("tune.winner.model_disagreed")
    out["tune.model_agreed_ratio"] = metric(stats.ratio(agreed, agreed + disagreed), "ratio")

    dist_metrics(dist, out)
    sweeps = {s["topology"]: s for s in raw["sweeps"]}
    for t in TOPOLOGIES:
        out[f"simnet.event.events_per_s.{t}"] = metric(sweeps[t]["events_per_s"], "1/s")
        out[f"simnet.event.events.{t}"] = metric(sweeps[t]["events"], "count")
        out[f"simnet.event.sweep_s.{t}"] = metric(sweeps[t]["sweep_s"], "s")
    out["perfmodel.ms_gbs"] = metric(cal["ms_gbs"], "GB/s")
    out["perfmodel.ms1_gbs"] = metric(cal["ms1_gbs"], "GB/s")

    out["obs.overhead_frac"] = metric(stats.tracing_overhead(rows), "ratio")

    parts = self_times(raw, work, {"construct_s": ladder_sec["construct_s"],
                                   "reset_s": ladder_sec["reset_s"],
                                   "session_over_s": session_over,
                                   "case_over_s": case_over})
    for k, v in parts.items():
        out[f"request.self_frac.{k}"] = metric(v, "ratio")
    return out


def summary(raw, rows, acct, metrics, steal):
    """Human-readable lines before the JSON line."""
    host = raw["host"]
    log_lines = [
        f"host: {host['cpu']} nproc={host['nproc']} LLC={host['llc_bytes'] / 2**20:.0f} MiB "
        f"simd={host['simd']} build={host['build_type']}",
    ]
    if steal is not None:
        # Time the hypervisor ran other guests on this VM's CPUs: runs
        # with high steal are slow for reasons outside the program.
        log_lines.append(f"cpu steal during the run: {100 * steal:.1f} %")
    if "sizes" in raw:
        s = raw["sizes"]
        log_lines.append(f"working set {s['working_set_bytes'] / 1e9:.3f} GB = "
                         f"{s['ratio']:.2f}x the {s['llc_bytes'] / 2**20:.0f} MiB LLC")
    log_lines.append(f"median request wall per key: " + ", ".join(
        f"{op}/{v} {statistics.median(r['wall_s'] for r in g):.3f} s"
        for (op, v), g in sorted(stats.by_key(rows).items())))
    if "buffer_high_water_mib" in raw:
        log_lines.append(f"peak resident set {raw['peak_rss_mib']:.0f} MiB, of which grid "
                         f"and lattice buffers at most {raw['buffer_high_water_mib']:.0f} MiB")
    walls = [r["wall_s"] for r in rows]
    t = stats.tail(walls)
    tail_text = (f"case_s.p{t[0]} = {t[1]:.4f} s ({t[2]} samples beyond)" if t
                 else "no percentile above the median has 10 samples beyond it")
    log_lines.append(f"{len(rows)} requests in {raw['run']['rounds']} round(s); "
                     f"failed_frac = {acct['failed_frac']:.4f}; {tail_text}; "
                     f"updates / advance seconds over all requests = "
                     f"{stats.mlups(rows):.1f} MLUP/s")
    log_lines.append("median MLUP/s per key: " + ", ".join(
        f"{op}/{v} {statistics.median(stats.rate(r) for r in g):.0f}"
        for (op, v), g in sorted(stats.by_key(rows).items())))
    resolved = sorted({(r["round"], r["resolved_config"]) for r in rows
                       if r["variant"] == "auto"})
    if resolved:
        by_round = {}
        for rnd, v in resolved:
            by_round.setdefault(rnd, []).append(v)
        log_lines.append("auto resolved to: " + "; ".join(
            f"round {k}: {','.join(v)}" for k, v in sorted(by_round.items())))
    ladder = raw.get("ladder", {})
    if "bench_variants_config_mlups" in ladder:
        log_lines.append(
            f"pipelined on the representative problem: engine config "
            f"{ladder['engine_config_mlups']:.0f} MLUP/s, bench_variants config "
            f"{ladder['bench_variants_config_mlups']:.0f} MLUP/s")
    for s in raw.get("sweeps", []):
        log_lines.append(f"sweep_s.{s['topology']} = {s['sweep_s']:.3f} s "
                         f"({s['max_ranks']} ranks, {s['events_per_s'] / 1e6:.2f} M events/s)")
    for name, m in metrics.items():
        log_lines.append(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    # Printed to stdout: the summary is part of the one command's output.
    for line in log_lines:
        print(line, flush=True)


def failed_run(why, attempted):
    """The last line of a run that produced no measurements."""
    log(f"perfbench: {why}")
    print(json.dumps({"correct": False, "attempted": max(1, attempted),
                      "failed": max(1, attempted), "metrics": {}}), flush=True)
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        driver = build(build_dir)
        # The LLC the library detects sizes the workload and is the one the
        # driver checks the 4x rule against.
        host = json.loads(subprocess.run([str(driver), "--host"], check=True,
                                         capture_output=True, text=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    cases = workloads.generate(args.workload, args.seed, host["llc_bytes"], args.seconds)
    n_requests = sum(1 for c in cases["cases"] if not c["name"].startswith("ladder/"))
    stem = f"{args.workload}-{args.seed}-{args.trace}"
    cases_path = work_dir / f"cases-{stem}.json"
    raw_path = work_dir / f"raw-{stem}.json"
    cases_path.write_text(json.dumps(cases))
    raw_path.unlink(missing_ok=True)
    common = ["--cases", str(cases_path), "--work-dir", str(work_dir)]
    try:
        subprocess.run([str(driver), "--prepare", "1"] + common, check=True,
                       stdout=sys.stderr, timeout=PREPARE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        return failed_run(f"computing the references failed: {e}", n_requests)

    # Traced requests append run rows and "auto" may fall back to the default
    # tuning cache: keep both inside the build directory.
    env = dict(os.environ, TB_RUNDB=str(work_dir / f"runs-{stem}.jsonl"),
               TB_TUNE_CACHE=str(work_dir / "tb_tuning_cache.json"))
    t0 = time.monotonic()
    ticks0 = cpu_ticks()
    try:
        proc = subprocess.run(
            [str(driver), "--workload", args.workload, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(raw_path)] + common,
            stdout=sys.stderr, env=env, timeout=DRIVER_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        return failed_run(f"the driver did not finish: {e}", n_requests)
    ticks1 = cpu_ticks()
    steal = (stats.ratio(ticks1[0] - ticks0[0], ticks1[1] - ticks0[1])
             if ticks0 and ticks1 else None)
    log(f"driver exited {proc.returncode} after {time.monotonic() - t0:.1f} s; "
        f"raw record in {raw_path}")
    try:
        raw = json.loads(raw_path.read_text())
    except (OSError, ValueError) as e:
        return failed_run(f"no raw record: {e}", n_requests)
    if "run" not in raw:
        return failed_run("the driver produced no measurements", n_requests)

    rows = [r for r in raw["requests"] if not r["ladder"]]
    timed = [r for r in rows if not r["traced"]]
    acct = stats.accounting(raw["requests"])
    spans = sorted((s["t0_s"], s["dur_s"]) for s in raw["spans"] if s["request"] >= 0)
    overlaps = stats.check_closed_loop(spans)
    checks_ok = all(c["ok"] for c in raw["checks"])
    correct = proc.returncode == 0 and acct["failed"] == 0 and checks_ok and overlaps == 0
    try:
        metrics = per_layer(raw) if args.trace else end_to_end(raw, timed)
        summary(raw, timed or rows, acct, metrics, steal)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        return failed_run(f"incomplete raw record: {e!r}", acct["attempted"])
    print(json.dumps({"correct": correct, "attempted": acct["attempted"],
                      "failed": acct["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
