"""Dynkin Pi-systems, generated subroot systems, and Weyl equivalence.

A Pi-system is a linearly independent set of roots no two of which differ
by a root.  By Dynkin (1952) it is a base of the subroot system it
generates, so that subsystem is computed as the closure of the generators
under their own reflections, the same loop that builds a root system from
its simple roots.  The contract is span_Z(generators) intersected with the
ambient roots; the tests check the closure against an independent oracle
for that set.  The linear-independence check solves exactly over the
rationals (``rootsys.rational_solve``).

The Weyl-equivalence search is a breadth-first walk of simple reflections
acting on canonicalized root sets.  Exploration order is the node index
order, so witness words are reproducible; every witness is re-applied and
checked before it is returned.
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


def weyl_equivalent(
    system: RootSystem,
    a: SubrootSystem,
    b: SubrootSystem,
    budget: int | None = None,
) -> WeylWord | None:
    """A word w of simple reflections with w(a.roots) = b.roots, or None.

    Breadth-first over the orbit of a.roots under simple reflections; ties
    broken by node index, states canonicalized as sorted tuples.  Raises
    SearchBudgetExceeded if the orbit walk passes the configured budget.
    """
    start = tuple(sorted(a.roots))
    goal = tuple(sorted(b.roots))
    if start == goal:
        return ()
    if len(start) != len(goal):
        return None
    limit = _bfs_budget(budget)
    n = system.rank
    parents: dict[tuple, tuple | None] = {start: None}
    queue = [start]
    head = 0
    found = None
    while head < len(queue) and found is None:
        state = queue[head]
        head += 1
        for i in range(n):
            nxt = tuple(sorted(simple_reflect(system, i, r) for r in state))
            if nxt in parents:
                continue
            parents[nxt] = (state, i)
            if len(parents) > limit:
                raise SearchBudgetExceeded(len(parents))
            if nxt == goal:
                found = nxt
                break
            queue.append(nxt)
    if found is None:
        return None
    rev = []
    cur = found
    while parents[cur] is not None:
        prev, i = parents[cur]
        rev.append(i)
        cur = prev
    word = tuple(system.simple(i) for i in reversed(rev))
    if apply_word(system, word, tuple(a.roots)) != b.roots:
        raise RootForgeError("internal: witness word failed verification")
    return word
