"""One measured process of a benchmark run.

    python3 bench/child.py --workload NAME --seed N --child K --mode run|setup
                           [--trace 0|1] [--spans FILE]

Started by ``run.py`` with a pinned environment.  The process imports
rootforge from the checkout's ``src/``, does the workload's lazy set-up and
prints ``ready`` with its start-up speed probe; the parent times set-up up
to that line.  In ``setup``
mode it stops there.  In ``run`` mode it then generates its inputs, runs
them back to back in a closed loop, checks every output after the loop
and prints one JSON line with the raw measurements.
"""

from __future__ import annotations

import os
import sys
import time

import speed  # this script's directory is first on sys.path

if __name__ == "__main__":
    START_PROBES = sorted(speed.probe() for _ in range(speed.SETUP_PROBES))

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import rootforge  # noqa: E402
import rootforge.catalog  # noqa: E402
import rootforge.cli  # noqa: E402
import rootforge.errors  # noqa: E402
import rootforge.hermitian  # noqa: E402
import rootforge.pisys  # noqa: E402
import rootforge.rootsys  # noqa: E402
import rootforge.verify  # noqa: E402
import rootforge.wdd  # noqa: E402


def _parse(argv):
    import argparse

    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--child", type=int, required=True)
    p.add_argument("--mode", choices=("run", "setup"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    return p.parse_args(argv)


def run_batch(workload, rf, inputs, tracer=None):
    """The timed loop: ops back to back, outputs kept for checking later.

    Returns the timing (latencies at nominal speed, raw latencies, probe
    durations, wall time of the loop) and one (output, exception) per op.
    """
    import bisect
    import statistics

    clock = time.perf_counter
    results, raw, starts = [], [], []
    probes = [(clock(), speed.probe())]
    loop_start = clock()
    for i, x in enumerate(inputs):
        if clock() - probes[-1][0] >= speed.PROBE_EVERY_S:
            probes.append((clock(), speed.probe()))
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        start = clock()
        try:
            out, error = workload.run(rf, x), None
        except Exception as e:  # a failed op; counted by find_failures
            out, error = None, e
        raw.append(clock() - start)
        if tracer is not None:
            tracer.active = False
        starts.append(start)
        results.append((out, error))
    loop_s = clock() - loop_start
    probes.append((clock(), speed.probe()))

    stamps = [t for t, _ in probes]
    before = speed.PROBE_NEIGHBOURS // 2 + 1
    latencies = []
    for start, latency in zip(starts, raw):
        j = bisect.bisect(stamps, start)
        near = [d for _, d in probes[max(0, j - before):j + speed.PROBE_NEIGHBOURS - before]]
        latencies.append(latency * speed.NOMINAL_PROBE_S / statistics.median(near))
    timing = {"latencies": latencies, "raw_latencies": raw, "loop_s": loop_s,
              "probes": [d for _, d in probes]}
    return timing, results


def find_failures(workload, rf, inputs, results) -> list[str]:
    """One message per failed op: it raised, or its output fails the check."""
    failures = []
    for x, (out, error) in zip(inputs, results):
        if error is not None:
            failures.append(f"raised {type(error).__name__}: {error}")
            continue
        try:
            problem = workload.check(rf, x, out)
        except Exception as e:  # a check that cannot run counts as a failed op
            problem = f"check raised {type(e).__name__}: {e}"
        if problem is not None:
            failures.append(problem)
    return failures


def modules():
    """Namespace of the rootforge modules the workloads call through."""
    from types import SimpleNamespace

    return SimpleNamespace(
        rootsys=rootforge.rootsys, hermitian=rootforge.hermitian, pisys=rootforge.pisys,
        wdd=rootforge.wdd, catalog=rootforge.catalog, verify=rootforge.verify,
        cli=rootforge.cli, errors=rootforge.errors,
    )


def main(argv=None) -> int:
    args = _parse(argv)
    # A stale installed copy must never be measured.
    package_dir = os.path.dirname(os.path.abspath(rootforge.__file__))
    if package_dir != os.path.join(SRC, "rootforge"):
        sys.stderr.write(f"rootforge imported from {package_dir}, not from {SRC}\n")
        return 2

    import tracing
    import workloads

    rf = modules()
    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    workload.setup(rf)
    if tracer is not None:
        tracer.active = False
    sys.stdout.write(f"ready {START_PROBES[len(START_PROBES) // 2]!r} {sum(START_PROBES)!r}\n")
    sys.stdout.flush()
    if args.mode == "setup":
        return 0

    t0 = time.perf_counter()
    inputs = workload.batch(rf, args.seed, args.child)
    gen_s = time.perf_counter() - t0

    timing, results = run_batch(workload, rf, inputs, tracer)
    failures = find_failures(workload, rf, inputs, results)
    for message in failures[:5]:
        sys.stderr.write(f"[{args.workload} seed {args.seed} child {args.child}] FAIL {message}\n")

    import json
    import resource
    import statistics

    report = dict(timing, ops=len(inputs), failed=len(failures), gen_s=gen_s,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        scale = speed.NOMINAL_PROBE_S / statistics.median(timing["probes"])
        report["layers"] = {name: value * scale if name.endswith("_s") else value
                            for name, value in tracer.summary().items()}
        if args.spans:
            tracer.write_spans(args.spans)
        tracer.uninstall()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
