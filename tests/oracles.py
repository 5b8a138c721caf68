"""Independent reference constructions used to cross-check the library.

Nothing here calls the closure algorithm: type A and D root sets come from
explicit coordinate models, E-type sets from bounded-box enumeration of
norm-2 lattice vectors, and the exceptional counts from the standard
8-dimensional even-lattice model.  Basis extraction is cross-checked both
definitionally (one-signed integer combinations) and by brute-force
enumeration of candidate bases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def a_model_roots(n: int) -> set[tuple[int, ...]]:
    """Type A_n root set in simple-root coordinates, from the e_i - e_j model."""
    roots = set()
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            v = [0] * n
            lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
            for k in range(lo, hi):
                v[k] = sign
            roots.add(tuple(v))
    return roots


def _solve_exact(columns, target):
    n = len(target)
    k = len(columns)
    m = [[Fraction(columns[c][r]) for c in range(k)] + [Fraction(target[r])] for r in range(n)]
    row = 0
    pivots = []
    for col in range(k):
        p = next((r for r in range(row, n) if m[r][col] != 0), None)
        if p is None:
            continue
        m[row], m[p] = m[p], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append((row, col))
        row += 1
    for r in range(row, n):
        if m[r][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for r, c in pivots:
        sol[c] = m[r][k]
    return sol


def span_roots(system, gens) -> frozenset:
    """span_Z(gens) intersected with the root set: the roots with an
    integral solution over the generators.  Independent of the closure
    that ``generate`` runs."""
    out = set()
    for r in system.roots:
        sol = _solve_exact(list(gens), r)
        if sol is not None and all(x.denominator == 1 for x in sol):
            out.add(r)
    return frozenset(out)


def orbit_equivalent(system, roots_a, roots_b):
    """A word of simple roots carrying roots_a onto roots_b, or None.

    Breadth-first over the whole W-orbit of roots_a under simple
    reflections, states canonicalized as sorted tuples: the reference for
    ``weyl_equivalent``, which searches only a parabolic subgroup.  A "not
    equivalent" answer exhausts the orbit, so keep the inputs small.
    """
    a = system.cartan.entries
    n = system.rank

    def reflect(i, beta):
        c = sum(a[i][j] * beta[j] for j in range(n))
        return tuple(x - c if j == i else x for j, x in enumerate(beta))

    start = tuple(sorted(roots_a))
    goal = tuple(sorted(roots_b))
    if len(start) != len(goal):
        return None
    parents = {start: None}
    queue = [start]
    for state in queue:
        if state == goal:
            break
        for i in range(n):
            nxt = tuple(sorted(reflect(i, r) for r in state))
            if nxt not in parents:
                parents[nxt] = (state, i)
                queue.append(nxt)
    if goal not in parents:
        return None
    nodes = []
    cur = goal
    while parents[cur] is not None:
        cur, i = parents[cur]
        nodes.append(i)
    return tuple(system.simple(i) for i in reversed(nodes))


def d_model_roots(n: int) -> set[tuple[int, ...]]:
    """Type D_n root set in simple-root coordinates.

    Simple roots follow the chain-1..n-1-plus-fork-at-(n-2) numbering:
    a_i = e_i - e_{i+1} for i < n, a_n = e_{n-1} + e_n.
    """
    simples = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        simples.append(v)
    last = [0] * n
    last[n - 2] = last[n - 1] = 1
    simples.append(last)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    target = [0] * n
                    target[i], target[j] = si, sj
                    sol = _solve_exact(simples, target)
                    assert sol is not None and all(x.denominator == 1 for x in sol)
                    out.add(tuple(int(x) for x in sol))
    return out


def _adjacency(family: str, rank: int) -> list[tuple[int, int]]:
    if family == "A":
        return [(i, i + 1) for i in range(rank - 1)]
    if family == "D":
        return [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    if family == "E":
        return [(i, i + 1) for i in range(rank - 2)] + [(rank - 4, rank - 1)]
    raise ValueError(family)


def box_norm_roots(family: str, rank: int, bound: int) -> set[tuple[int, ...]]:
    """All integer vectors in the box with squared norm 2 (simply laced).

    For the simply-laced root lattices every norm-2 vector is a root, so a
    box that contains the highest root recovers the full root set.
    """
    edges = _adjacency(family, rank)
    rng = range(-bound, bound + 1)
    out = set()
    for v in itertools.product(rng, repeat=rank):
        norm = 2 * sum(x * x for x in v) - 2 * sum(v[i] * v[j] for i, j in edges)
        if norm == 2:
            out.add(v)
    return out


def e8_model_roots() -> list[tuple[Fraction, ...]]:
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 8
                    v[i], v[j] = Fraction(si), Fraction(sj)
                    roots.append(tuple(v))
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=8):
        if sum(1 for s in signs if s == -1) % 2 == 0:
            roots.append(tuple(half * s for s in signs))
    return roots


def cartan_number(cartan, symmetrizer, a, b) -> Fraction:
    """2<a,b>/<a,a> under the Gram matrix d_i A[i][j] of a given symmetrizer d."""
    n = len(cartan)
    gram = [[symmetrizer[i] * cartan[i][j] for j in range(n)] for i in range(n)]
    assert all(gram[i][j] == gram[j][i] for i in range(n) for j in range(n))

    def inner(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))

    return Fraction(2 * inner(a, b), inner(a, a))


def e7_model_count() -> int:
    """E7 roots counted inside E8 via the v0 = v1 slice."""
    return sum(1 for v in e8_model_roots() if v[0] == v[1])


def e6_model_count() -> int:
    """E6 roots counted inside E8 via the v0 = v1 = v2 slice."""
    return sum(1 for v in e8_model_roots() if v[0] == v[1] == v[2])


def is_one_signed_combination(basis, root) -> bool:
    sol = _solve_exact(list(basis), root)
    if sol is None or any(x.denominator != 1 for x in sol):
        return False
    return all(x >= 0 for x in sol) or all(x <= 0 for x in sol)


def definitional_basis_check(system, sub_roots, basis) -> bool:
    """The textbook basis property: every subsystem root is a one-signed
    integer combination of the basis, and the basis regenerates the set."""
    from rootforge import span_subsystem

    if not all(is_one_signed_combination(basis, r) for r in sub_roots):
        return False
    return span_subsystem(system, basis).roots == frozenset(sub_roots)


def brute_force_bases(system, sub_roots) -> list[tuple[tuple[int, ...], ...]]:
    """Every subset of the subsystem that satisfies the basis definition."""
    roots = sorted(sub_roots)
    rank = len(_independent_rank(roots))
    out = []
    for cand in itertools.combinations(roots, rank):
        if definitional_basis_check(system, roots, cand):
            out.append(cand)
    return out


def _independent_rank(vectors) -> list[int]:
    m = [[Fraction(x) for x in v] for v in vectors]
    rank_rows = []
    cols = len(m[0]) if m else 0
    used: list[list[Fraction]] = []
    for ri, row in enumerate(m):
        work = row[:]
        for u in used:
            piv = next((c for c in range(cols) if u[c] != 0), None)
            if piv is not None and work[piv] != 0:
                f = work[piv] / u[piv]
                work = [a - f * b for a, b in zip(work, u)]
        if any(x != 0 for x in work):
            used.append(work)
            rank_rows.append(ri)
    return rank_rows
