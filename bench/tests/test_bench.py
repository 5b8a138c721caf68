"""Tests of the benchmark itself: its data, its checks and its trace shim.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import child
import run
import tracing
import workloads
from rootforge.pisys import BFS_BUDGET_DEFAULT, SubrootSystem
from rootforge.rootsys import simple_reflect

ROOT = os.path.dirname(run.BENCH)
# Every weyl_orbit search must stay well inside the default BFS budget.
ORBIT_LIMIT = BFS_BUDGET_DEFAULT // 100


@pytest.fixture(scope="module")
def rf():
    return child.modules()


def _orbit_size(system, roots) -> int:
    start = tuple(sorted(roots))
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for i in range(system.rank):
            nxt = tuple(sorted(simple_reflect(system, i, r) for r in state))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
                assert len(seen) <= ORBIT_LIMIT
    return len(seen)


def _span(rf, family, rank, nodes):
    system = rf.rootsys.family_system(family, rank)
    return system, rf.pisys.span_subsystem(
        system, [workloads.simple_root(rank, k) for k in nodes])


def test_e7_inequivalent_table(rf):
    pairs = workloads.load_inequivalent()
    assert [p["type"] for p in pairs] == ["3A1", "A5", "A3+A1"]
    for pair in pairs:
        system, a = _span(rf, "E", 7, pair["a"])
        _, b = _span(rf, "E", 7, pair["b"])
        assert len(pair["a"]) == len(pair["b"]) and len(a.roots) == len(b.roots)
        assert _orbit_size(system, a.roots) == pair["orbit_a"]
        assert rf.pisys.weyl_equivalent(system, a, b, budget=ORBIT_LIMIT) is None


def test_equivalent_representatives_stay_inside_budget(rf):
    for family, rank, nodes in workloads.EQUIVALENT_REPS:
        system, sub = _span(rf, family, rank, nodes)
        assert _orbit_size(system, sub.roots) <= ORBIT_LIMIT


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_come_from_the_seed(rf, name):
    w = workloads.WORKLOADS[name]()
    w.setup(rf)
    first = w.batch(rf, 7, 0)
    assert repr(first) == repr(w.batch(rf, 7, 0))
    assert repr(first) != repr(w.batch(rf, 8, 0))
    assert repr(first) != repr(w.batch(rf, 7, 1))


def test_catalog_pool_has_goldens_and_enough_ops():
    pool = workloads.catalog_pool()
    assert len(pool) == len(set(pool)) >= 100
    with open(workloads.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    assert set(goldens) == {workloads.argv_key(argv) for argv in pool}


def test_wrong_golden_or_corrupted_output_is_a_failed_op(rf, tmp_path):
    argv = ("catalog", "list", "--ambient", "su(2,3)", "--json")
    w = workloads.CatalogChains()
    timing, results = child.run_batch(w, rf, [argv, argv])
    assert len(timing["latencies"]) == len(timing["raw_latencies"]) == 2
    assert len(timing["probes"]) >= 2
    assert child.find_failures(w, rf, [argv, argv], results) == []

    code, stdout, stderr = results[0][0]
    corrupted = [results[0], ((code, stdout.replace("su(1,3)", "su(1,4)"), stderr), None)]
    assert len(child.find_failures(w, rf, [argv, argv], corrupted)) == 1

    with open(workloads.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    goldens[workloads.argv_key(argv)]["sha256"] = "0" * 64
    wrong = tmp_path / "goldens.json"
    wrong.write_text(json.dumps(goldens))
    w_wrong = workloads.CatalogChains(goldens_path=str(wrong))
    assert len(child.find_failures(w_wrong, rf, [argv], results[:1])) == 1


def test_witness_that_does_not_replay_is_a_failed_op(rf):
    w = workloads.WeylOrbit()
    inputs = w.batch(rf, 3, 0)
    equivalent = next(x for x in inputs if x[3] and x[1].roots != x[2].roots)
    inequivalent = next(x for x in inputs if not x[3])
    _, results = child.run_batch(w, rf, [equivalent, inequivalent])
    assert child.find_failures(w, rf, [equivalent, inequivalent], results) == []

    word = results[0][0]
    bad = [((), None), (word, None)]
    assert len(child.find_failures(w, rf, [equivalent, inequivalent], bad)) == 2
    assert len(child.find_failures(w, rf, [equivalent], [(None, None)])) == 1


def test_corrupted_subsystem_result_is_a_failed_op(rf):
    w = workloads.Subsystems()
    w.setup(rf)
    inputs = [x for x in w.batch(rf, 5, 0) if x[2] is not None and len(x[1]) >= 2][:20]
    _, results = child.run_batch(w, rf, inputs)
    assert child.find_failures(w, rf, inputs, results) == []

    k = next(i for i, (out, _) in enumerate(results) if out[5])
    x = inputs[k]
    sub, basis, named, weights, dom, word = results[k][0]
    dropped = next(r for r in sub.roots if r not in x[1])
    missing = SubrootSystem(system=sub.system, roots=sub.roots - {dropped}, basis=sub.basis)
    flipped = "su(1,1)" if isinstance(named, Exception) else rf.errors.NotHermitianNode("x")
    bad = [
        (missing, basis, named, weights, dom, word),
        (sub, basis[1:], named, weights, dom, word),
        (sub, basis, flipped, weights, dom, word),
        (sub, basis, named, weights, dom, word[:-1]),
    ]
    for out in bad:
        assert len(child.find_failures(w, rf, [x], [(out, None)])) == 1, out
    assert child.find_failures(w, rf, [x], [(None, ValueError("boom"))]) == [
        "raised ValueError: boom"]


def test_trace_shim_wraps_every_binding(rf):
    import rootforge

    tracer = tracing.Tracer()
    tracer.install()
    try:
        bound = tracer.bindings()
        for layer in tracing.LAYERS:
            assert f"rootforge.{layer.name}" in bound
        for name in ("rootforge.generate", "rootforge.catalog.generate",
                     "rootforge.cli.check_pi_system", "rootforge.verify.family_system",
                     "rootforge.catalog.name_real_form", "rootforge.wdd.family_system"):
            assert name in bound
        tracer.active = True
        rootforge.inclusion_chains("su(1,2)", "su(2,2)", 2)
        tracer.active = False
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert rootforge.generate is rf.pisys.generate
    assert not hasattr(rf.pisys.generate, "__wrapped__")
    assert set(summary) == set(tracing.metric_names()) - {tracing.OVERHEAD_METRIC}
    assert summary["catalog.inclusion_chains.calls"] == 1
    assert summary["pisys.generate.calls"] >= summary["catalog.validate_entry.calls"] > 0
    total = summary["catalog.inclusion_chains.total_s"]
    assert 0 < summary["catalog.validate_entry.self_s"] < total


def test_trace_shim_fails_loudly_on_a_missing_layer(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS",
                        tracing.LAYERS + (tracing.Layer("pisys", "no_such_function", ("calls",)),))
    tracer = tracing.Tracer()
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.install()
    assert tracer.bindings() == []


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, tracing.metric_unit(n)) for n in tracing.metric_names()]


def test_run_fails_without_a_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "weyl_orbit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_child_environment_is_pinned(monkeypatch):
    monkeypatch.setenv("ROOTFORGE_BFS_BUDGET", "5")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    env = run.child_env()
    assert "ROOTFORGE_BFS_BUDGET" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"].split(os.pathsep) == [run.SRC, "elsewhere"]
