"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload catalog_chains --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; rootforge is imported from its ``src/``.
It starts fresh ``python`` children one after another (one
thread, closed loop: each op starts when the previous one returns):

* untraced (``--trace 0``): a few set-up-only children, then measuring
  children, each running one batch of the workload, until the children's
  timed loops add up to ``--seconds``.  The last line of stdout is the
  result with every end-to-end metric.
* traced (``--trace 1``): pairs of children on the same inputs, one
  untraced and one with the per-layer shim, until the traced loops add up
  to ``--seconds``.  The result carries the per-layer metrics, averaged
  over the traced children, and ``trace.overhead_ratio``.

Times are scaled to a nominal machine speed (see ``speed.py``).  A line
before the result records the seed, the sample count, the input
generation time, the failure ratio and the raw times, none of which is a
metric.  The
exit code is 0 with a result, and non-zero without one when the checkout
has no program to measure or a child fails to report.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
SPANS_DIR = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, BENCH)
import tracing  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("catalog_chains", "weyl_orbit", "subsystems")
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_ONLY_CHILDREN = 8
MIN_RUN_CHILDREN = 2
# A run ends within 180 s: no child starts after LAST_START_S, and a child
# still running at RUN_LIMIT_S is killed and the run fails.
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def want_another(loops: list[float], seconds: float, began: float) -> bool:
    """Start another child unless the loops cover ``seconds`` to within half a
    batch, or the run is near its deadline."""
    if time.perf_counter() - began > LAST_START_S:
        return False
    if len(loops) < MIN_RUN_CHILDREN:
        return True
    return sum(loops) + statistics.fmean(loops) / 2 < seconds


def child_env() -> dict:
    """Environment that pins what the measured program sees."""
    env = dict(os.environ)
    env.pop("ROOTFORGE_BFS_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, child: int, mode: str, began: float, trace: int = 0,
              spans: str | None = None) -> tuple[float, float, dict | None]:
    """Start one child; return its set-up time at nominal speed, the raw set-up
    time and, in run mode, its report."""
    deadline = began + RUN_LIMIT_S
    cmd = [sys.executable, "-S", CHILD, "--workload", workload, "--seed", str(seed),
           "--child", str(child), "--mode", mode, "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
        line = proc.stdout.readline() if ready else ""
        raw_setup_s = time.perf_counter() - start
        words = line.split()
        if len(words) != 3 or words[0] != "ready":
            raise ChildFailed(f"{workload} child {child} did not finish set-up")
        pace, probing = float(words[1]), float(words[2])
        setup_s = (raw_setup_s - probing) * speed.NOMINAL_PROBE_S / pace
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} child {child} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child {child} exited with {proc.returncode}")
    if mode == "setup":
        return setup_s, raw_setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload} child {child} printed no report")
    return setup_s, raw_setup_s, json.loads(lines[-1])


def percentile(values: list[float], q: float) -> float:
    """q-th percentile by linear interpolation between order statistics."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    began = time.perf_counter()
    setups = [run_child(workload, seed, -1 - k, "setup", began)[:2]
              for k in range(SETUP_ONLY_CHILDREN)]
    reports = []
    while want_another([r["loop_s"] for r in reports], seconds, began):
        setup_s, raw_setup_s, report = run_child(workload, seed, len(reports), "run", began)
        setups.append((setup_s, raw_setup_s))
        reports.append(report)
    latencies = [x for r in reports for x in r["latencies"]]
    raw = [x for r in reports for x in r["raw_latencies"]]
    ops = sum(r["ops"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    values = {
        "ops_per_s": (ops - failed) / sum(latencies),
        "op_p50_ms": percentile(latencies, 0.5) * 1e3,
        "op_p90_ms": percentile(latencies, 0.9) * 1e3,
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reports) / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    info = {
        "workload": workload, "seed": seed, "children": len(reports),
        "setup_samples": len(setups), "op_samples": len(latencies), "ops": ops,
        "failed": failed, "fail_ratio": failed / ops,
        "loop_s": sum(r["loop_s"] for r in reports),
        "input_generation_s": sum(r["gen_s"] for r in reports),
        "probe_ms": statistics.median(p for r in reports for p in r["probes"]) * 1e3,
        "raw_ops_per_s": (ops - failed) / sum(raw),
        "raw_op_p50_ms": percentile(raw, 0.5) * 1e3,
        "raw_op_p90_ms": percentile(raw, 0.9) * 1e3,
        "raw_setup_s": statistics.median(raw for _, raw in setups),
    }
    return metrics, info


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    os.makedirs(SPANS_DIR, exist_ok=True)
    began = time.perf_counter()
    plain, traced = [], []
    while want_another([r["loop_s"] for r in traced], seconds, began):
        child = len(traced)
        plain.append(run_child(workload, seed, child, "run", began)[2])
        spans = os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}-child{child}.jsonl")
        traced.append(run_child(workload, seed, child, "run", began, trace=1, spans=spans)[2])
    metrics = {}
    for name in tracing.metric_names():
        if name == tracing.OVERHEAD_METRIC:
            value = (sum(sum(r["latencies"]) for r in traced)
                     / sum(sum(r["latencies"]) for r in plain))
        else:
            value = statistics.fmean(r["layers"][name] for r in traced)
        metrics[name] = (value, tracing.metric_unit(name))
    reports = plain + traced
    ops = sum(r["ops"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    info = {
        "workload": workload, "seed": seed, "traced_children": len(traced), "ops": ops,
        "failed": failed, "fail_ratio": failed / ops,
        "traced_loop_s_per_child": statistics.fmean(r["loop_s"] for r in traced),
        "input_generation_s": sum(r["gen_s"] for r in reports), "spans_dir": SPANS_DIR,
    }
    return metrics, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rootforge", "__init__.py")):
        sys.stderr.write(f"no rootforge package under {SRC}; run from a checkout\n")
        return 2
    # Children import compiled modules, as an installed package would.
    compileall.compile_dir(SRC, quiet=1)
    try:
        if args.trace:
            metrics, info = measure_traced(args.workload, args.seed, args.seconds)
        else:
            metrics, info = measure(args.workload, args.seed, args.seconds)
    except ChildFailed as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    print("run " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["ops"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
