#!/usr/bin/env python3
"""Paper-scale campaign benchmark for svcdisc.

Runs one named workload as repeated serial campaigns, each in a fresh
process (perfbench_campaign, built from this directory's CMake package),
checks every campaign's outputs and prints the end-to-end metrics, or with
--trace 1 the per-layer metrics of the outside-in traced run. A time metric
is that of the fastest repetition (see BEST_OF); the median and quartiles
are printed beside it. The last line of stdout is one JSON object: correct,
attempted, failed, metrics.

    python3 perfbench/run.py --workload paper_18d --seed 24301 --seconds 28 --trace 0
    python3 perfbench/run.py                     # every workload, default seed

Exit status: 0 when every campaign passed its checks, 1 when one failed,
2 when the benchmark cannot run (no sources, build failure, refused build).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_18d", "passive_observed_18d", "scale1m", "adaptive_18d")
DEFAULT_SEED = 24301
BUILD_TYPE = "RelWithDebInfo"
# A campaign process that runs longer than this is killed and counted as
# failed; no new repetition starts once the run could pass RUN_CAP_S.
REP_TIMEOUT_S = 150
RUN_CAP_S = 150
MIN_REPS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# How each end-to-end metric sums up its repetitions. On a shared host,
# neighbours only ever slow a campaign down, by up to half again, and they
# come and go within seconds; the fastest repetition of a run is the one
# they disturbed least, and it repeats from run to run far better than the
# median does. RSS does not depend on the neighbours, so it keeps the median.
BEST_OF = {
    "setup_s": min,
    "run_s": min,
    "events_per_s": max,
    "cpu_s": min,
    "peak_rss_mb": statistics.median,
}

# Per-layer metrics of the traced run, named after the src/ modules. Times
# are medians over the traced repetitions; counts repeat exactly.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.queue_depth_hwm", "count"),
    ("sim.ns_per_event", "ns"),
    ("workload.build_s", "s"),
    ("core.engine_build_s", "s"),
    ("capture.packets", "count"),
    ("capture.filter_reject_ratio", "ratio"),
    ("capture.filter_ns", "ns"),
    ("passive.packets", "count"),
    ("passive.flows_counted", "count"),
    ("passive.discoveries", "count"),
    ("passive.scanners_flagged", "count"),
    ("passive.monitor_ns", "ns"),
    ("passive.scan_detector_ns", "ns"),
    ("active.probes_sent", "count"),
    ("active.responses", "count"),
    ("active.discoveries", "count"),
    ("active.open_yield", "ratio"),
    ("active.rate_limiter_deferrals", "count"),
    ("active.scan_window_s", "s"),
    ("active.scan_s", "s"),
    ("active.ns_per_probe", "ns"),
    ("active.adaptive.budget_spent", "count"),
    ("active.adaptive.verify_probes", "count"),
    ("active.adaptive.verify_confirm_ratio", "ratio"),
    ("active.adaptive.passive_seeds_probed", "count"),
    ("host.universe_materialized", "count"),
    ("host.universe_bytes", "bytes"),
    ("host.universe_replies", "count"),
    ("analysis.streaming_ns", "ns"),
    ("analysis.sketch_bytes", "bytes"),
    ("analysis.change_points", "count"),
    ("core.provenance_services", "count"),
    ("trace_overhead_ratio", "ratio"),
    ("core.unattributed_ratio", "ratio"),
)

# What every repetition of one workload and seed must repeat exactly.
SAME_WORK = ("sim.events", "capture.packets", "active.probes_sent")


class BenchError(Exception):
    """The benchmark cannot run at all (exit 2, no result line)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds perfbench_campaign; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no svcdisc sources at {ROOT / 'src'}")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "perfbench_campaign", "-j", jobs])
    with open(bdir / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                tail = (bdir / "build.log").read_text(errors="replace")
                log(tail[-4000:])
                raise BenchError(f"build failed: {' '.join(cmd)}")
    return bdir / "perfbench_campaign"


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown"
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def tree_sha256():
    """Digest of the sources measured, for checkouts that are not repos."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(binary, seed):
    out = subprocess.run([str(binary), "--stamp"], capture_output=True,
                         text=True, timeout=30)
    if out.returncode != 0:
        raise BenchError("perfbench_campaign --stamp failed")
    s = json.loads(out.stdout)
    if s["refused"]:
        raise BenchError(f"refusing an unoptimised or sanitizer build: {s}")
    return {"git_sha": git_sha(), "tree": tree_sha256(),
            "nproc": os.cpu_count(), "build_type": s["build_type"],
            "compiler": s["compiler"], "seed": seed}


def run_campaign(binary, workload, seed, traced, spans_out=None):
    """One repetition; returns its JSON record with 'failures' filled."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
        if spans_out:
            cmd += ["--spans-out", str(spans_out)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {REP_TIMEOUT_S} s"]}
    try:
        rec = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"failures": [f"exit {out.returncode}: {out.stderr.strip()[-300:]}"]}
    if out.returncode not in (0, 1):
        rec["failures"].append(f"exit {out.returncode}")
    return rec


def same_work_guard(reps, expected_digest):
    """Marks repetitions whose work or outputs differ from the first."""
    ok = [r for r in reps if not r["failures"]]
    if expected_digest is not None:
        for r in ok:
            if r["digest"] != expected_digest:
                r["failures"].append(
                    f"digest {r['digest']} != recorded {expected_digest}")
    ref = next((r for r in ok if not r["traced"]), ok[0] if ok else None)
    for r in ok:
        if r is ref:
            continue
        for key in SAME_WORK:
            if r["layers"][key] != ref["layers"][key]:
                r["failures"].append(f"{key} differs between repetitions")
        if r["digest"] != ref["digest"]:
            r["failures"].append("output digest differs between repetitions"
                                 + (" (traced run)" if r["traced"] else ""))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(binary, stamp_info, workload, seed, seconds, trace):
    expected = None
    recorded = json.loads((HERE / "expected_digests.json").read_text())
    if seed == recorded["seed"]:
        expected = recorded["digests"].get(workload)
    out_dir = ROOT / ".bench_out"
    if trace:
        out_dir.mkdir(exist_ok=True)

    reps = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        spans = (out_dir / f"spans-{workload}-{seed}-{len(reps)}.json"
                 if traced else None)
        t0 = time.monotonic()
        rec = run_campaign(binary, workload, seed, traced, spans)
        rec.setdefault("traced", traced)
        reps.append(rec)
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        # Stop when the next repetition would end mostly past --seconds,
        # so a run lasts about --seconds whatever one repetition takes.
        mean = elapsed / len(reps)
        enough = len(reps) >= MIN_REPS and elapsed + mean / 2 >= seconds
        if enough or elapsed + longest * 1.2 > RUN_CAP_S:
            break
    same_work_guard(reps, expected)

    attempted = len(reps)
    failed = sum(1 for r in reps if r["failures"])
    good = [r for r in reps if not r["failures"]]
    untraced = [r for r in good if not r["traced"]]
    traced_reps = [r for r in good if r["traced"]]

    print(f"perfbench {workload}: seed={seed} seconds={seconds} "
          f"trace={int(trace)} reps={attempted} "
          + " ".join(f"{k}={v}" for k, v in stamp_info.items() if k != "seed"))
    for i, r in enumerate(reps):
        if "run_s" in r:
            print(f"  rep {i}: traced={int(r['traced'])} "
                  f"setup_s={r['setup_s']:.6f} run_s={r['run_s']:.4f} "
                  f"cpu_s={r['cpu_s']:.4f} peak_rss_mb={r['peak_rss_mb']:.1f} "
                  f"digest={r['digest']}")
        for f in r["failures"]:
            print(f"  FAILED: {f}")

    metrics = {}
    if not trace:
        series = {
            "setup_s": [r["setup_s"] for r in untraced],
            "run_s": [r["run_s"] for r in untraced],
            "events_per_s": [r["events"] / r["run_s"] for r in untraced],
            "cpu_s": [r["cpu_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        for name, unit in END_TO_END:
            values = series[name]
            if not values:
                continue
            best = BEST_OF[name](values)
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": best, "unit": unit}
            print(f"  {name:<14} {best:>16.6f} {unit:<5} median {med:.6f}  "
                  f"q1 {q1:.6f}  q3 {q3:.6f}  n={len(values)}")
    else:
        if traced_reps and untraced:
            layer = {}
            for name, _ in PER_LAYER:
                values = [r["layers"][name] for r in traced_reps
                          if name in r["layers"]]
                if values:
                    layer[name] = statistics.median(values)
            layer["trace_overhead_ratio"] = (
                statistics.median(r["run_s"] for r in traced_reps)
                / statistics.median(r["run_s"] for r in untraced))
            for name, unit in PER_LAYER:
                metrics[name] = {"value": layer[name], "unit": unit}
                print(f"  {name:<38} {layer[name]:>18.6f} {unit}")
            print(f"  spans: {out_dir}/spans-{workload}-{seed}-*.json")
    print(f"  {'fail_ratio':<14} {failed / attempted:>16.6f} ratio "
          f"({failed}/{attempted})")
    return attempted, failed, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be in [0, 2^64)")

    try:
        binary = build()
        stamp_info = stamp(binary, args.seed)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(binary, stamp_info, name, args.seed,
                               args.seconds, bool(args.trace))
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}/{k}": v for k, v in m.items()})
    expected = END_TO_END if not args.trace else PER_LAYER
    complete = len(names) > 1 or all(k in metrics for k, _ in expected)
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
