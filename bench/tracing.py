"""Per-layer spans recorded from outside the library.

The shim replaces each listed function with a wrapper at every module of
the ``rootforge`` package that binds it.  ``from .pisys import generate``
copies the reference, so ``pisys.generate``, ``catalog.generate`` and
``rootforge.generate`` are all rebound.  A listed function that is missing
from its home module raises ``LookupError``: a refactor that moves or
renames one must fail loudly instead of silently dropping a layer.

Only these layer boundaries are wrapped.  Hot inner helpers
(``RootSystem.inner``, ``reflect``, ``simple_reflect``, ``classify_root``)
are left alone on purpose; their cost shows in their callers' self time.

Spans are kept in memory while the benchmark runs and written out when it
ends.  A span's self time is its duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "rootforge"


def _roots_out(args, result):
    return {"roots_out": len(result.roots)}


def _rows_out(args, result):
    return {"rows_out": len(result)}


def _chains_out(args, result):
    return {"chains_out": len(result)}


def _weyl_result(args, result):
    if result is None:
        return {"not_found": 1}
    return {"found": 1, "word_len": len(result)}


def _dominate_result(args, result):
    return {"word_len": len(result[1])}


def _generate_key(args):
    pi = args[0]
    return (pi.system.cartan.entries, frozenset(pi.generators))


def _validate_key(args):
    system, _marking, entry = args[:3]
    return (system.cartan.entries, entry.name.canonical_key(), entry.generators)


@dataclass(frozen=True)
class Layer:
    """One wrapped function and the statistics reported for it.

    ``stats`` names the reported values.  ``observe`` maps (args, result)
    to counter increments; ``key`` maps args to a hashable input key, from
    which ``distinct_ratio`` (distinct inputs / calls) is computed.  Every
    layer also counts calls, self time, total time and raised errors.
    """

    module: str
    func: str
    stats: tuple[str, ...]
    observe: Callable | None = None
    key: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


LAYERS = (
    Layer("rootsys", "build_root_system", ("calls", "total_s", "roots_out"), _roots_out),
    Layer("rootsys", "family_system", ("calls", "builds")),
    Layer("hermitian", "name_real_form", ("calls", "self_s", "errors")),
    Layer("pisys", "check_pi_system", ("calls", "self_s", "errors")),
    Layer("pisys", "generate", ("calls", "self_s", "roots_out", "distinct_ratio"),
          _roots_out, _generate_key),
    Layer("pisys", "positive_basis", ("calls", "self_s")),
    Layer("pisys", "rebase_hermitian", ("calls", "self_s")),
    Layer("pisys", "weyl_equivalent", ("calls", "self_s", "found", "not_found", "word_len"),
          _weyl_result),
    Layer("pisys", "apply_word", ("calls", "self_s")),
    Layer("wdd", "weights_of", ("calls", "self_s")),
    Layer("wdd", "dominate", ("calls", "self_s", "word_len"), _dominate_result),
    Layer("catalog", "validate_entry", ("calls", "self_s", "distinct_ratio"),
          key=_validate_key),
    Layer("catalog", "inclusion_chains", ("calls", "total_s", "chains_out"), _chains_out),
    Layer("catalog", "maximal_hermitian_regular_subalgebras", ("calls", "total_s", "rows_out"),
          _rows_out),
    Layer("verify", "run_verification", ("calls", "total_s")),
    Layer("cli", "main", ("calls", "self_s")),
)

# Stats that are means over some calls rather than totals per child.
_MEAN_OVER = {"word_len": {"pisys.weyl_equivalent": "found", "wdd.dominate": "calls"}}

OVERHEAD_METRIC = "trace.overhead_ratio"


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"{layer.name}.{stat}" for layer in LAYERS for stat in layer.stats]
    return names + [OVERHEAD_METRIC]


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


class Tracer:
    """Wraps the listed layer functions and records one span per call.

    Spans are recorded only while ``active`` is true, so input generation
    and correctness checks that call the library are not traced.  ``op``
    is the identifier of the operation in progress, shared by all its
    spans (-1 during set-up).
    """

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.spans: list[list] = []  # [name, op, parent, start, end, child_s]
        self.counters: dict[str, dict[str, int]] = {}
        self.keys: dict[str, set] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            home = sys.modules.get(f"{PACKAGE}.{layer.module}")
            original = getattr(home, layer.func, None)
            if not callable(original):
                self.uninstall()
                raise LookupError(f"layer function {PACKAGE}.{layer.name} not found")
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            self.counters[layer.name] = {}
            self.keys[layer.name] = set()

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def bindings(self) -> list[str]:
        """'module.attr' for every binding the shim replaced."""
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._restore)

    def _wrap(self, layer: Layer, original):
        name = layer.name
        spans = self.spans
        stack = self._stack
        counters_of = self.counters
        keys_of = self.keys
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            if layer.key is not None:
                keys_of[name].add(layer.key(args))
            index = len(spans)
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[3] = clock()
            try:
                result = original(*args, **kwargs)
            except Exception:
                span[4] = clock()
                self._close(span)
                counters = counters_of[name]
                counters["errors"] = counters.get("errors", 0) + 1
                raise
            span[4] = clock()
            self._close(span)
            if layer.observe is not None:
                counters = counters_of[name]
                for k, v in layer.observe(args, result).items():
                    counters[k] = counters.get(k, 0) + v
            return result

        return wrapper

    def _close(self, span) -> None:
        self._stack.pop()
        if span[2] >= 0:
            self.spans[span[2]][5] += span[4] - span[3]

    def summary(self) -> dict[str, float]:
        """Per-layer totals for this process, keyed by metric name."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        builds = 0
        for name, _op, parent, start, end, child_s in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_s)
            if (name == "rootsys.build_root_system" and parent >= 0
                    and self.spans[parent][0] == "rootsys.family_system"):
                builds += 1
        out: dict[str, float] = {}
        for layer in LAYERS:
            name = layer.name
            n = calls.get(name, 0)
            counters = self.counters.get(name, {})
            for stat in layer.stats:
                if stat == "calls":
                    value = n
                elif stat == "self_s":
                    value = self_s.get(name, 0.0)
                elif stat == "total_s":
                    value = total.get(name, 0.0)
                elif stat == "builds":
                    value = builds
                elif stat == "distinct_ratio":
                    value = len(self.keys[name]) / n if n else 0.0
                elif stat in _MEAN_OVER:
                    base = _MEAN_OVER[stat][name]
                    den = n if base == "calls" else counters.get(base, 0)
                    value = counters.get(stat, 0) / den if den else 0.0
                else:
                    value = counters.get(stat, 0)
                out[f"{name}.{stat}"] = value
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per span: id, op, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, parent, start, end, _child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": op, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
