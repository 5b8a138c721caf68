"""Property-based suites over exact algebraic invariants.

Strategies draw small systems (and E6 where it matters), random root pairs,
random Pi-systems built by greedy compatible sampling, random weight
vectors, and random Weyl words.  All suites are deterministic
(derandomized) and use exact arithmetic end to end.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from rootforge import (
    CartanMatrix,
    CorootVector,
    RootClass,
    RootSystem,
    WeightedDiagram,
    apply_word,
    build_root_system,
    check_pi_system,
    coroot_of_weights,
    dominate,
    family_system,
    generate,
    is_positive,
    positive_basis,
    rebase_hermitian,
    reflect,
    scale,
    span_subsystem,
    weights_of,
    weyl_equivalent,
)
from rootforge.errors import RootForgeError
from rootforge.hermitian import HermitianMarking
from rootforge.wdd import reflect_weights

from oracles import orbit_equivalent, span_roots

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

SMALL_POOL = [("A", 2), ("A", 3), ("A", 4), ("D", 4), ("D", 5)]
FULL_POOL = SMALL_POOL + [("E", 6)]
F4 = build_root_system(CartanMatrix(entries=(
    (2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2),
)))
G2 = build_root_system(CartanMatrix(entries=((2, -1), (-3, 2))))
SPAN_POOL = FULL_POOL + [("B", 3), ("B", 4), ("C", 3), ("C", 4), F4, G2]
ORBIT_POOL = SPAN_POOL + [("A", 5), ("D", 6)]


def _system(draw, pool):
    entry = draw(st.sampled_from(pool))
    if isinstance(entry, RootSystem):  # built from an explicit Cartan matrix
        return entry
    return family_system(*entry)


@st.composite
def system_and_root_pair(draw):
    sys = _system(draw, FULL_POOL)
    roots = sorted(sys.roots)
    a = draw(st.sampled_from(roots))
    b = draw(st.sampled_from(roots))
    return sys, a, b


def greedy_pi_system(sys, seed_roots, size):
    """Grow a Pi-system by keeping only compatible, independent roots."""
    chosen = []
    for r in seed_roots:
        if len(chosen) == size:
            break
        candidate = chosen + [r]
        try:
            check_pi_system(sys, candidate)
        except RootForgeError:
            continue
        chosen = candidate
    return chosen


@st.composite
def system_and_pi(draw, pool=FULL_POOL, max_size=4):
    sys = _system(draw, pool)
    roots = sorted(sys.roots)
    size = draw(st.integers(min_value=1, max_value=min(max_size, sys.rank)))
    picks = draw(
        st.lists(st.sampled_from(roots), min_size=size, max_size=4 * size)
    )
    chosen = greedy_pi_system(sys, picks, size)
    if not chosen:
        chosen = [roots[draw(st.integers(min_value=0, max_value=len(roots) - 1))]]
    return sys, tuple(chosen)


@st.composite
def weights_case(draw):
    sys = _system(draw, FULL_POOL)
    vals = draw(
        st.lists(
            st.integers(min_value=-8, max_value=8),
            min_size=sys.rank,
            max_size=sys.rank,
        )
    )
    return sys, WeightedDiagram(system=sys, weights=tuple(Fraction(v) for v in vals))


@SETTINGS
@given(system_and_root_pair())
def test_reflection_closure(case):
    sys, a, b = case
    assert reflect(sys, a, b) in sys.roots


@SETTINGS
@given(system_and_root_pair())
def test_reflection_involution(case):
    sys, a, b = case
    assert reflect(sys, a, reflect(sys, a, b)) == b


@SETTINGS
@given(system_and_pi())
def test_generate_positive_basis_identity(case):
    sys, gens = case
    sub = span_subsystem(sys, gens)
    basis = positive_basis(sub)
    assert all(is_positive(b) for b in basis)
    check_pi_system(sys, basis)
    assert span_subsystem(sys, basis).roots == sub.roots


@SETTINGS
@given(system_and_pi(pool=SPAN_POOL, max_size=6))
def test_generate_matches_span_oracle(case):
    sys, gens = case
    assert generate(check_pi_system(sys, gens)).roots == span_roots(sys, gens)


@SETTINGS
@given(system_and_pi(pool=[("E", 6), ("E", 7)], max_size=4))
def test_rebase_one_noncompact_per_component(case):
    sys, gens = case
    marking = HermitianMarking(system=sys, nc_index=0)
    sub = span_subsystem(sys, gens)
    basis, marks = rebase_hermitian(marking, sub)
    n = len(basis)
    comp = list(range(n))

    def find(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if sys.inner(basis[i], basis[j]) != 0:
                comp[find(i)] = find(j)
    counts = {}
    for i in range(n):
        if marks[i] is not RootClass.COMPACT:
            counts[find(i)] = counts.get(find(i), 0) + 1
    assert all(v == 1 for v in counts.values())


@SETTINGS
@given(weights_case())
def test_dominate_idempotent_and_nonnegative(case):
    _, w = case
    dom, word = dominate(w)
    assert all(x >= 0 for x in dom.weights)
    again, word2 = dominate(dom)
    assert again.weights == dom.weights and word2 == ()


@SETTINGS
@given(weights_case(), st.lists(st.integers(min_value=0, max_value=6), max_size=8))
def test_dominate_orbit_invariance(case, word_nodes):
    sys, w = case
    moved = w
    for i in word_nodes:
        moved = reflect_weights(moved, i % sys.rank)
    d1, _ = dominate(w)
    d2, _ = dominate(moved)
    assert d1.weights == d2.weights


@SETTINGS
@given(weights_case(), st.integers(min_value=1, max_value=5))
def test_dominate_scale_equivariance(case, k):
    _, w = case
    d1, _ = dominate(scale(w, k))
    d2, _ = dominate(w)
    assert d1.weights == scale(d2, k).weights


@SETTINGS
@given(weights_case())
def test_weight_coroot_round_trip(case):
    sys, w = case
    h = coroot_of_weights(w)
    assert weights_of(h).weights == w.weights


@SETTINGS
@given(weights_case())
def test_coroot_weight_round_trip(case):
    sys, w = case
    h = CorootVector(system=sys, coords=w.weights)
    assert coroot_of_weights(weights_of(h)).coords == h.coords


@SETTINGS
@given(system_and_pi(pool=SMALL_POOL, max_size=3),
       st.lists(st.integers(min_value=0, max_value=6), max_size=6))
def test_weyl_witness_soundness(case, word_nodes):
    from rootforge.pisys import SubrootSystem

    sys, gens = case
    a = span_subsystem(sys, gens)
    image = frozenset(a.roots)
    for i in word_nodes:
        s = sys.simple(i % sys.rank)
        image = apply_word(sys, (s,), image)
    b = SubrootSystem(system=sys, roots=image, basis=a.basis)
    word = weyl_equivalent(sys, a, b)
    assert word is not None
    assert apply_word(sys, word, tuple(a.roots)) == b.roots


@SETTINGS
@given(system_and_pi(pool=[("E", 6)], max_size=3))
def test_weyl_equivalence_reflexive_via_identity(case):
    sys, gens = case
    a = span_subsystem(sys, gens)
    assert weyl_equivalent(sys, a, a) == ()


@st.composite
def same_size_subsystems(draw):
    """Two subsystems with as many roots, each moved by a random Weyl word.

    The second is the first again (equivalent), or another Pi-system with
    as many generators and roots, which may or may not be equivalent to it.
    Roots and words come from a Random seeded by the draw, so that both
    sides move by words of their own.
    """
    from rootforge.pisys import SubrootSystem

    sys = _system(draw, ORBIT_POOL)
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    roots = sorted(sys.roots)

    def random_pi(size):
        if rnd.random() < 0.5:  # a standard parabolic subsystem
            return [sys.simple(i) for i in rnd.sample(range(sys.rank), size)]
        return greedy_pi_system(sys, rnd.sample(roots, len(roots)), size)

    gens = random_pi(rnd.randint(1, min(4, sys.rank - 1)))
    a = span_subsystem(sys, gens)
    b = a
    if draw(st.integers(min_value=0, max_value=3)):
        others = (span_subsystem(sys, random_pi(len(gens))) for _ in range(20))
        b = next((o for o in others if len(o.roots) == len(a.roots)), a)
    moved = []
    for sub in (a, b):
        image = sub.roots
        for _ in range(rnd.randint(1, 12)):
            image = apply_word(sys, (sys.simple(rnd.randrange(sys.rank)),), image)
        moved.append(SubrootSystem(system=sys, roots=image, basis=sub.basis))
    return sys, moved[0], moved[1]


@settings(SETTINGS, max_examples=600)
@given(same_size_subsystems())
def test_weyl_equivalent_matches_orbit_oracle(case):
    sys, a, b = case
    word = weyl_equivalent(sys, a, b)
    assert (word is None) == (orbit_equivalent(sys, a.roots, b.roots) is None)
    if word is not None:
        assert apply_word(sys, word, tuple(a.roots)) == b.roots
