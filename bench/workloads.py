"""The benchmark's three workloads.

Each workload has four parts:

* ``setup(rf)``: the program's lazy set-up for the systems the workload
  touches (first ``family_system`` / ``ambient_context`` builds).  It is
  part of ``setup_s``.
* ``batch(rf, seed, child)``: the inputs of one child process, drawn from the
  seed only.  The program receives these generated inputs and nothing
  else.  Generation is timed separately and is not a metric.
* ``run(rf, x)``: one operation, the only code inside the timed loop.
* ``check(rf, x, out)``: the correctness check of one operation, run after
  the timed loop.  It returns None or a message saying what is wrong.

``rf`` is a namespace of rootforge modules; calls go through module
attributes so that the trace shim's wrappers are used.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDENS = os.path.join(DATA, "catalog_goldens.json")
E7_INEQUIVALENT = os.path.join(DATA, "e7_inequivalent.json")


def rng_for(workload: str, seed: int, child: int):
    """Input stream of one child; string seeds do not depend on hash randomization."""
    import random  # imported here, not during set-up, which the benchmark times

    return random.Random(f"{workload}:{seed}:{child}")


def simple_root(rank: int, node: int) -> tuple[int, ...]:
    """Simple root of a 1-based node number."""
    return tuple(1 if j == node - 1 else 0 for j in range(rank))


def reflect_word(cartan, word, vec) -> tuple[int, ...]:
    """Apply simple reflections (0-based node indices) left to right."""
    v = list(vec)
    n = len(v)
    for i in word:
        row = cartan[i]
        v[i] -= sum(row[j] * v[j] for j in range(n) if v[j])
    return tuple(v)


def random_word(rng, rank: int, max_len: int) -> list[int]:
    return [rng.randrange(rank) for _ in range(rng.randint(0, max_len))]


# --------------------------------------------------------------------------
# catalog_chains: fixed pool of CLI queries, each issued once per child


# The ambients `verify-paper` scans.
CATALOG_AMBIENTS = tuple(
    [f"su({p},{q})" for p in range(1, 8) for q in range(p, 8) if p + q <= 8]
    + ["so*(8)", "so*(10)", "so*(12)", "so(6,2)", "so(8,2)", "e6(-14)", "e7(-25)"]
)
VERIFY_GROUPS = ("roots", "lemma31", "admissible", "chains", "catalog", "filters")
VERIFY_SYSTEMS = (("E", 6), ("E", 7), ("A", 1), ("A", 3), ("A", 5), ("D", 4), ("D", 5))

# Chain searches as "target@depth" per ambient.  The targets are table
# names; the depths spread the search cost from a few ms to most of a second
# so that the latency percentiles are not set by one query.  The four e7
# depth-2 searches cost about the same and sit at the 90th percentile of
# the pool, so that it does not fall into a gap between two costs.
CHAIN_QUERIES = {
    "e7(-25)": ("su(2,2)@4", "su(1,3)@3", "su(1,1)@5", "e6(-14)@2", "so*(12)@1",
                "su(3,3)@2", "so(8,2)@3", "su(2,6)@1", "so(10,2)+su(1,1)@1",
                "su(1,5)+su(1,2)@2", "so*(12)@2", "su(2,6)@2"),
    "e6(-14)": ("su(2,2)@3", "su(2,2)@5", "su(1,1)@4", "su(1,3)@2", "so(8,2)@1",
                "so*(10)@2", "su(2,4)@1", "su(1,2)+su(1,2)@1", "so(6,2)@3",
                "su(1,4)@4", "su(2,3)@5", "su(1,5)+su(1,1)@2"),
    "su(4,4)": ("su(2,2)@2", "su(1,1)@3", "su(3,3)@1", "su(2,2)+su(2,2)@1", "su(1,3)@4"),
    "su(3,5)": ("su(2,3)@2", "su(1,1)+su(2,4)@1", "su(2,2)@3"),
    "su(2,6)": ("su(1,1)@3", "su(2,2)@2", "su(1,3)+su(1,3)@1"),
    "su(3,3)": ("su(1,1)@5", "su(2,2)@3", "su(1,1)+su(2,2)@1", "su(1,2)@2"),
    "su(2,4)": ("su(1,1)@4", "su(2,2)@2", "su(1,2)+su(1,2)@1", "su(1,3)@3"),
    "su(1,7)": ("su(1,1)@5", "su(1,4)@2", "su(1,6)@1"),
    "su(2,3)": ("su(1,1)@3", "su(1,1)+su(1,2)@1"),
    "su(2,2)": ("su(1,1)@2", "su(1,2)@1"),
    "so*(12)": ("su(2,2)@3", "su(1,1)@4", "so*(6)+so*(6)@1", "su(3,3)@2", "so*(8)@2",
                "su(1,5)@1"),
    "so*(10)": ("su(2,2)@2", "su(1,1)@5", "so*(6)@2", "su(1,4)@1"),
    "so*(8)": ("su(2,2)@1", "su(1,1)@3", "so*(6)@1", "su(1,1)+su(1,1)@2"),
    "so(8,2)": ("su(2,2)@2", "su(1,1)@5", "so(6,2)@1", "su(1,4)@1", "su(1,1)+su(1,1)@3"),
    "so(6,2)": ("su(2,2)@1", "su(1,1)@4", "su(1,1)+su(1,1)@1", "su(1,3)@2"),
}


def catalog_pool() -> list[tuple[str, ...]]:
    """Every distinct query of the catalog_chains workload, as CLI argv."""
    pool = [("catalog", "list", "--ambient", a, "--json") for a in CATALOG_AMBIENTS]
    pool += [("verify-paper", "--only", g, "--json") for g in VERIFY_GROUPS]
    for ambient, queries in CHAIN_QUERIES.items():
        for query in queries:
            target, depth = query.rsplit("@", 1)
            pool.append(("catalog", "chains", "--ambient", ambient, "--target", target,
                         "--depth", depth, "--json"))
    return pool


def argv_key(argv) -> str:
    return json.dumps(list(argv))


def digest(code: int, stdout: str) -> dict:
    import hashlib

    data = stdout.encode("utf-8")
    return {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


class CatalogChains:
    name = "catalog_chains"

    def __init__(self, goldens_path: str = GOLDENS) -> None:
        self.goldens_path = goldens_path
        self._goldens = None

    def setup(self, rf) -> None:
        for family, rank in VERIFY_SYSTEMS:
            rf.rootsys.family_system(family, rank)
        for ambient in CATALOG_AMBIENTS:
            rf.catalog.ambient_context(ambient)

    def batch(self, rf, seed: int, child: int) -> list:
        pool = catalog_pool()
        rng_for(self.name, seed, child).shuffle(pool)
        return pool

    def run(self, rf, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rf.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, rf, argv, result):
        if self._goldens is None:
            with open(self.goldens_path, encoding="utf-8") as fh:
                self._goldens = json.load(fh)
        want = self._goldens.get(argv_key(argv))
        if want is None:
            return f"no golden for {argv_key(argv)}"
        code, stdout, stderr = result
        got = digest(code, stdout)
        if got != want:
            return f"{' '.join(argv)}: output {got} differs from golden {want}; stderr {stderr!r}"
        return None


# --------------------------------------------------------------------------
# weyl_orbit: pairs of same-type subsystems through weyl_equivalent

# Representatives P of the equivalent pairs (w1.P, w2.P): simple-root node
# sets, 1-based as in rootforge.rootsys.  Orbits have at most 1120 states.
# E8 is kept to rank <= 2: E8 pairs with 4 generators take seconds to
# minutes per search.
EQUIVALENT_REPS = (
    ("E", 6, (1, 3, 5)), ("E", 6, (1, 2, 3)), ("E", 6, (1, 2, 4, 5)),
    ("E", 7, (1, 2)), ("E", 7, (1, 3)),
    ("D", 5, (1, 3, 5)), ("D", 6, (1, 2, 3)),
    ("A", 6, (1, 3)), ("A", 7, (1, 2, 4, 5)),
    ("E", 8, (1,)), ("E", 8, (1, 2)),
)
EQUIVALENT_PER_REP = 2
# Copies per batch of each inequivalent E7 type.  An equivalent pair stops
# its search at a random depth, so its cost is spread over orders of
# magnitude; an inequivalent pair exhausts a fixed orbit, so its cost is
# steady.  With 22 equivalent pairs (42%) below them, the median falls
# inside the A5 group (the next 23%) and the 90th percentile inside the 3A1
# group (the top 19%), not on the edge between two groups.
INEQUIVALENT_PER_BATCH = {"A5": 12, "A3+A1": 9, "3A1": 10}
WEYL_SYSTEMS = tuple(sorted({(f, r) for f, r, _ in EQUIVALENT_REPS} | {("E", 7)}))


def load_inequivalent(path: str = E7_INEQUIVALENT) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["pairs"]


class WeylOrbit:
    name = "weyl_orbit"

    def setup(self, rf) -> None:
        for family, rank in WEYL_SYSTEMS:
            rf.rootsys.family_system(family, rank)

    def _conjugate(self, rf, rng, family, rank, nodes):
        system = rf.rootsys.family_system(family, rank)
        word = random_word(rng, rank, len(system.roots))
        gens = [reflect_word(system.cartan.entries, word, simple_root(rank, k)) for k in nodes]
        return rf.pisys.span_subsystem(system, gens)

    def batch(self, rf, seed: int, child: int) -> list:
        rng = rng_for(self.name, seed, child)
        specs = [(f, r, nodes, nodes, True) for f, r, nodes in EQUIVALENT_REPS] * EQUIVALENT_PER_REP
        for p in load_inequivalent():
            specs += [("E", 7, tuple(p["a"]), tuple(p["b"]), False)] * INEQUIVALENT_PER_BATCH[p["type"]]
        rng.shuffle(specs)
        out = []
        for family, rank, nodes_a, nodes_b, equivalent in specs:
            a = self._conjugate(rf, rng, family, rank, nodes_a)
            b = self._conjugate(rf, rng, family, rank, nodes_b)
            out.append(((family, rank), a, b, equivalent))
        return out

    def run(self, rf, x):
        (family, rank), a, b, _ = x
        system = rf.rootsys.family_system(family, rank)
        return rf.pisys.weyl_equivalent(system, a, b)

    def check(self, rf, x, word):
        (family, rank), a, b, equivalent = x
        if not equivalent:
            return None if word is None else f"{family}{rank}: inequivalent pair got word {word}"
        if word is None:
            return f"{family}{rank}: equivalent pair reported not equivalent"
        system = rf.rootsys.family_system(family, rank)
        if rf.pisys.apply_word(system, word, tuple(a.roots)) != b.roots:
            return f"{family}{rank}: witness {word} does not replay to the goal set"
        return None


# --------------------------------------------------------------------------
# subsystems: fresh seeded Pi-systems, no reuse between inputs

SUBSYSTEM_SYSTEMS = (("A", 8), ("B", 6), ("C", 6), ("D", 8), ("E", 6), ("E", 7), ("E", 8))
SUBSYSTEMS_PER_SYSTEM = 100


def hermitian_nodes(system) -> list[int]:
    """0-based nodes whose highest-root coefficient is 1 (none for E8)."""
    return [i for i, c in enumerate(system.highest_root) if c == 1]


class Subsystems:
    name = "subsystems"

    def __init__(self) -> None:
        self.markings: dict = {}

    def setup(self, rf) -> None:
        for family, rank in SUBSYSTEM_SYSTEMS:
            system = rf.rootsys.family_system(family, rank)
            for node in hermitian_nodes(system):
                self.markings[(family, rank, node)] = rf.hermitian.HermitianMarking(
                    system=system, nc_index=node)

    def batch(self, rf, seed: int, child: int) -> list:
        """Pi-systems w.S for S a proper subset of the extended Dynkin diagram.

        Any proper subset of {a_1..a_n, -highest root} is a Pi-system, and a
        Weyl group element keeps it one, so no rejection sampling is needed.
        Inputs are distinct across the batch.
        """
        rng = rng_for(self.name, seed, child)
        specs = list(SUBSYSTEM_SYSTEMS) * SUBSYSTEMS_PER_SYSTEM
        rng.shuffle(specs)
        seen = set()
        out = []
        for family, rank in specs:
            system = rf.rootsys.family_system(family, rank)
            cartan = system.cartan.entries
            extended = [simple_root(rank, k) for k in range(1, rank + 1)]
            extended.append(tuple(-c for c in system.highest_root))
            marks = hermitian_nodes(system)
            while True:
                nodes = rng.sample(range(rank + 1), rng.randint(1, rank))
                word = random_word(rng, rank, len(system.roots))
                gens = tuple(reflect_word(cartan, word, extended[k]) for k in nodes)
                if (family, rank, frozenset(gens)) not in seen:
                    break
            seen.add((family, rank, frozenset(gens)))
            mark = rng.choice(marks) if marks else None
            coroot = tuple(rng.randint(-3, 3) for _ in range(rank))
            out.append(((family, rank), gens, mark, coroot))
        return out

    def run(self, rf, x):
        (family, rank), gens, mark, coroot = x
        system = rf.rootsys.family_system(family, rank)
        sub = rf.pisys.generate(rf.pisys.check_pi_system(system, gens))
        basis = rf.pisys.positive_basis(sub)
        named = None
        if mark is not None:
            marking = self.markings[(family, rank, mark)]
            try:
                rebased, marks = rf.pisys.rebase_hermitian(marking, sub)
                named = str(rf.hermitian.name_real_form(system, rebased, marks))
            except (rf.errors.NotHermitianNode, rf.errors.MultipleNoncompact) as e:
                named = e
        w = rf.wdd.weights_of(rf.wdd.CorootVector(system=system, coords=coroot))
        dom, word = rf.wdd.dominate(w)
        return sub, basis, named, w, dom, word

    def check(self, rf, x, out):
        (family, rank), gens, mark, coroot = x
        sub, basis, named, w, dom, word = out
        system = rf.rootsys.family_system(family, rank)
        tag = f"{family}{rank} {list(gens)}"
        roots = sub.roots
        if not roots <= system.roots or any(tuple(-c for c in r) not in roots for r in roots):
            return f"{tag}: subsystem is not a symmetric subset of the roots"
        if not set(gens) <= roots or len(basis) != len(gens):
            return f"{tag}: subsystem misses a generator or has basis size {len(basis)}"
        if not set(basis) <= roots or any(min(b) < 0 for b in basis):
            return f"{tag}: basis {basis} is not positive inside the subsystem"
        if rf.pisys.generate(rf.pisys.check_pi_system(system, basis)).roots != roots:
            return f"{tag}: generate(positive_basis(sub)) != sub"
        gram = _gram(system)
        for b in basis:
            bg = [sum(g * v for g, v in zip(col, b)) for col in zip(*gram)]
            nb = sum(u * v for u, v in zip(bg, b))
            for r in roots:
                c = 2 * sum(u * v for u, v in zip(bg, r)) // nb
                if tuple(u - c * v for u, v in zip(r, b)) not in roots:
                    return f"{tag}: subsystem not closed under the reflection in {b}"
        if mark is not None:
            error = _naming_error_expected(gram, basis, mark)
            if error != isinstance(named, Exception):
                return f"{tag}: mark {mark + 1} named {named!r}, naming error expected: {error}"
            if not error and len(named.split("+")) != len(_components(gram, basis)):
                return f"{tag}: name {named} does not match the diagram's components"
        if any(v < 0 for v in dom.weights):
            return f"{tag}: dominate ended at non-dominant {dom.weights}"
        replay = w
        for r in word:
            replay = rf.wdd.reflect_weights(replay, r.index(1))
        if replay.weights != dom.weights:
            return f"{tag}: dominate word does not replay to its endpoint"
        if rf.wdd.coroot_of_weights(w).coords != tuple(Fraction(c) for c in coroot):
            return f"{tag}: coroot_of_weights(weights_of(h)) != h for h = {coroot}"
        return None


def _gram(system) -> list[list[int]]:
    """B = D.A, so <x, y> = x . B . y."""
    d = system.cartan.symmetrizer
    return [[d[i] * a for a in row] for i, row in enumerate(system.cartan.entries)]


def _inner(gram, x, y) -> int:
    return sum(x[i] * sum(g * yj for g, yj in zip(row, y)) for i, row in enumerate(gram) if x[i])


def _components(gram, basis) -> list[list[int]]:
    n = len(basis)
    comps, seen = [], set()
    for s in range(n):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if j not in seen and _inner(gram, basis[i], basis[j]) != 0:
                    seen.add(j)
                    stack.append(j)
        comps.append(comp)
    return comps


def _naming_error_expected(gram, basis, mark) -> bool:
    """True iff some component has zero or two or more noncompact basis roots."""
    return any(sum(1 for i in comp if basis[i][mark] != 0) != 1
               for comp in _components(gram, basis))


WORKLOADS = {w.name: w for w in (CatalogChains, WeylOrbit, Subsystems)}
