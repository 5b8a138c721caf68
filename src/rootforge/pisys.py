"""Dynkin Pi-systems, generated subroot systems, and Weyl equivalence.

A Pi-system is a linearly independent set of roots no two of which differ
by a root.  By Dynkin (1952) it is a base of the subroot system it
generates, so that subsystem is computed as the closure of the generators
under their own reflections, the same loop that builds a root system from
its simple roots.  The contract is span_Z(generators) intersected with the
ambient roots; the tests check the closure against an independent oracle
for that set.  The linear-independence check solves exactly over the
rationals (``rootsys.rational_solve``).

Weyl equivalence is decided by a W-class invariant, the dominant vector
lambda in the W-orbit of 2rho' (the sum of a subsystem's ambient-positive
roots).  Different invariants mean "not equivalent" at once.  Equal ones
leave a breadth-first walk of simple reflections in J = {i : <lambda,
alpha_i^vee> = 0}, which generate W_J, the stabilizer of lambda; that walk
is complete, because any conjugator can be moved into W_J.  Exploration
order is the node index order, so witness words are reproducible; they are
not shortest words, and every witness is re-applied and checked before it
is returned.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DifferenceIsRoot,
    LinearlyDependent,
    RootForgeError,
    SearchBudgetExceeded,
)
from .hermitian import HermitianMarking, RootClass, classify_root
from .rootsys import (
    Root,
    RootSystem,
    components,
    is_positive,
    rational_solve,
    reflect,
    reflection_closure,
    simple_reflect,
)

WeylWord = tuple[Root, ...]

BFS_BUDGET_ENV = "ROOTFORGE_BFS_BUDGET"
BFS_BUDGET_DEFAULT = 3_000_000


@dataclass(frozen=True)
class PiSystem:
    """A validated Pi-system: use check_pi_system to construct."""

    system: RootSystem
    generators: tuple[Root, ...]


@dataclass(frozen=True)
class SubrootSystem:
    """roots = span_Z(basis) intersected with the ambient root set.

    ``generate`` computes it as the reflection closure of the basis.
    """

    system: RootSystem
    roots: frozenset[Root]
    basis: tuple[Root, ...]


def _dependency_witness(vectors: list[Root]) -> tuple[Fraction, ...] | None:
    """A nonzero rational combination summing to zero, or None if independent."""
    k = len(vectors)
    for drop in range(k):
        rest = vectors[:drop] + vectors[drop + 1:]
        sol = rational_solve(rest, vectors[drop])
        if sol is not None:
            witness = list(sol[:drop]) + [Fraction(-1)] + list(sol[drop:])
            return tuple(witness)
    return None


def check_pi_system(system: RootSystem, generators) -> PiSystem:
    """Validate the two Pi-system conditions, with structured failures.

    Linear independence is checked first, so a set violating both
    conditions reports LinearlyDependent with its witness combination.
    """
    gens = tuple(system.require_root(g) for g in generators)
    if len(set(gens)) != len(gens):
        dup = next(g for i, g in enumerate(gens) if g in gens[:i])
        raise LinearlyDependent((dup,))
    witness = _dependency_witness(list(gens))
    if witness is not None:
        raise LinearlyDependent(witness)
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            diff = tuple(x - y for x, y in zip(a, b))
            if diff in system.roots:
                raise DifferenceIsRoot(a, b)
    return PiSystem(system=system, generators=gens)


def generate(pi: PiSystem) -> SubrootSystem:
    """The subroot system with base ``pi``: close the generators under s_g.

    ``rootsys.reflection_closure`` with each generator's Cartan row, the
    same loop that builds a root system from its simple roots.
    """
    system = pi.system
    rows = system.cartan_rows
    roots = reflection_closure([(g, rows[g]) for g in pi.generators], len(system.roots))
    # keep the ambient's own root tuples, so a subsystem stores no roots of its own
    members = {r for r in system.roots if r in roots}
    return SubrootSystem(system=system, roots=frozenset(members), basis=pi.generators)


def span_subsystem(system: RootSystem, generators) -> SubrootSystem:
    """generate() for a raw generator list, validating the Pi conditions."""
    return generate(check_pi_system(system, generators))


def positive_basis(sub: SubrootSystem) -> tuple[Root, ...]:
    """Simple roots of the subsystem with respect to ambient positivity.

    These are the ambient-positive members not expressible as a sum of two
    ambient-positive members; they form a basis and regenerate the subsystem.
    """
    if not sub.roots:
        raise RootForgeError("positive_basis of an empty subsystem")
    pos = sorted(r for r in sub.roots if is_positive(r))
    pos_set = set(pos)
    simple = []
    for r in pos:
        decomposable = any(
            tuple(x - y for x, y in zip(r, s)) in pos_set
            for s in pos
            if s != r and all(a >= b for a, b in zip(r, s))
        )
        if not decomposable:
            simple.append(r)
    return tuple(sorted(simple, key=lambda r: (sum(r), r)))


def rebase_hermitian(m: HermitianMarking, sub: SubrootSystem):
    """Positive basis plus compact/noncompact marks per basis element.

    The basis diagram never has two noncompact nodes in one connected
    component; that property is re-checked here rather than trusted.
    """
    basis = positive_basis(sub)
    marks = tuple(classify_root(m, b) for b in basis)
    system = m.system
    for comp in components(len(basis), lambda i, j: system.inner(basis[i], basis[j]) != 0):
        if sum(1 for i in comp if marks[i] is not RootClass.COMPACT) > 1:
            raise RootForgeError(
                "internal: rebased component with two noncompact roots"
            )
    return basis, marks


def apply_word(system: RootSystem, word, roots) -> frozenset[Root]:
    """Apply reflections left-to-right to a collection of roots."""
    out = {system.require_root(r) for r in roots}
    for w in word:
        out = {reflect(system, w, r) for r in out}
    return frozenset(out)


def apply_word_to_root(system: RootSystem, word, root) -> Root:
    """Apply reflections left-to-right to a single root."""
    (image,) = apply_word(system, word, (root,))
    return image


def _bfs_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BFS_BUDGET_ENV)
    if not env:
        return BFS_BUDGET_DEFAULT
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise RootForgeError(f"{BFS_BUDGET_ENV} must be a positive integer, got {env!r}")
    return value


def _dominant_pairings(system: RootSystem, roots) -> tuple[tuple[int, ...], list[int]]:
    """Dominate v = 2rho', the sum of the ambient-positive ``roots``.

    Returns the pairings c_i = <lambda, alpha_i^vee> of the dominant vector
    lambda in the W-orbit of v, and the nodes reflected, in order, to get
    there.  The pairings start at A·v; a reflection at node i updates them
    as c_k -> c_k - c_i A[k][i], so the walk never recomputes A·v.  The
    node reflected is the lowest-index negative one, as in ``wdd.dominate``.
    """
    a = system.cartan.entries
    n = system.rank
    v = [0] * n
    for r in roots:
        if is_positive(r):
            for j, x in enumerate(r):
                v[j] += x
    c = [sum(row[j] * v[j] for j in range(n) if v[j]) for row in a]
    nodes = []
    while True:
        i = next((k for k, x in enumerate(c) if x < 0), None)
        if i is None:
            return tuple(c), nodes
        ci = c[i]
        for k in range(n):
            if a[k][i]:
                c[k] -= ci * a[k][i]
        nodes.append(i)


def _reflect_set(system: RootSystem, nodes, roots) -> tuple[Root, ...]:
    """The root set after simple reflections at ``nodes``, left to right, sorted."""
    out = list(roots)
    for i in nodes:
        out = [simple_reflect(system, i, r) for r in out]
    return tuple(sorted(out))


def weyl_equivalent(
    system: RootSystem,
    a: SubrootSystem,
    b: SubrootSystem,
    budget: int | None = None,
) -> WeylWord | None:
    """A word w of simple reflections with w(a.roots) = b.roots, or None.

    Invariant: v = 2rho', the sum of a subsystem's ambient-positive roots,
    is dominated by simple reflections x_a (x_b for b) to lambda_a
    (lambda_b).  A conjugator can be composed with an element of W(b) that
    carries the image of a's positive roots to b's, so it maps 2rho'_a to
    2rho'_b; hence lambda_a != lambda_b means not equivalent.

    Search: otherwise the stabilizer of lambda is the standard parabolic
    subgroup W_J, J = {i : <lambda, alpha_i^vee> = 0} (Humphreys,
    *Reflection Groups and Coxeter Groups* §1.12), and x_b w x_a^-1 lies in
    it for a conjugator w with w(2rho'_a) = 2rho'_b.  So a breadth-first walk
    of the W_J-orbit of x_a(a.roots), over the simple reflections in J in
    node order with states canonicalized as sorted tuples, reaches
    x_b(b.roots) exactly when the two are equivalent.  The budget counts
    these states; SearchBudgetExceeded is raised past it.

    The witness is x_a, then the walk's word, then x_b reversed.  It is
    deterministic and replayed through ``apply_word`` before it is
    returned, but not in general a shortest word.
    """
    start = tuple(sorted(a.roots))
    goal = tuple(sorted(b.roots))
    if start == goal:
        return ()
    if len(start) != len(goal):
        return None
    limit = _bfs_budget(budget)
    lam, x_a = _dominant_pairings(system, start)
    lam_b, x_b = _dominant_pairings(system, goal)
    if lam != lam_b:
        return None
    parabolic = [i for i, c in enumerate(lam) if c == 0]
    start = _reflect_set(system, x_a, start)
    goal = _reflect_set(system, x_b, goal)
    parents: dict[tuple, tuple | None] = {start: None}
    queue = [(start, 0)]
    head = 0
    while goal not in parents and head < len(queue):
        state, depth = queue[head]
        head += 1
        for i in parabolic:
            nxt = tuple(sorted(simple_reflect(system, i, r) for r in state))
            if nxt in parents:
                continue
            parents[nxt] = (state, i)
            if len(parents) > limit:
                raise SearchBudgetExceeded(len(parents), depth + 1, len(queue) - head)
            if nxt == goal:
                break
            queue.append((nxt, depth + 1))
    if goal not in parents:
        return None
    rev = []
    cur = goal
    while parents[cur] is not None:
        prev, i = parents[cur]
        rev.append(i)
        cur = prev
    nodes = x_a + rev[::-1] + x_b[::-1]
    word = tuple(system.simple(i) for i in nodes)
    if apply_word(system, word, tuple(a.roots)) != b.roots:
        raise RootForgeError("internal: witness word failed verification")
    return word
