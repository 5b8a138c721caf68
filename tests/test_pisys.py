from fractions import Fraction

import pytest

from rootforge import (
    DifferenceIsRoot,
    LinearlyDependent,
    RootClass,
    RootForgeError,
    SearchBudgetExceeded,
    apply_word,
    apply_word_to_root,
    check_pi_system,
    family_system,
    generate,
    is_positive,
    name_real_form,
    positive_basis,
    rebase_hermitian,
    span_subsystem,
    weyl_equivalent,
)

from oracles import brute_force_bases, definitional_basis_check

E6_BETA1 = (0, 1, 2, 2, 1, 1)
R3_ROOT = (0, 1, 2, 1, 0, 1)
A1 = (1, 0, 0, 0, 0, 0)
A2 = (0, 1, 0, 0, 0, 0)


class TestCheckPiSystem:
    def test_valid_bottom_system(self, e6):
        pi = check_pi_system(e6, (E6_BETA1, A1, A2))
        assert pi.generators == (E6_BETA1, A1, A2)

    def test_opposite_pair_dependent(self, e6):
        with pytest.raises(LinearlyDependent):
            check_pi_system(e6, (A1, tuple(-x for x in A1)))

    def test_sum_relation_dependent(self, e6):
        with pytest.raises(LinearlyDependent) as exc:
            check_pi_system(e6, (A1, A2, (1, 1, 0, 0, 0, 0)))
        assert exc.value.witness == (Fraction(-1), Fraction(-1), Fraction(1))

    def test_difference_is_root(self, e6):
        with pytest.raises(DifferenceIsRoot) as exc:
            check_pi_system(e6, (A1, (1, 1, 0, 0, 0, 0)))
        assert {tuple(exc.value.alpha), tuple(exc.value.beta)} == {
            A1, (1, 1, 0, 0, 0, 0)
        }

    def test_adjacent_simples_fine(self, e6):
        check_pi_system(e6, (A1, A2))


class TestGenerate:
    def test_bottom_system_is_a3(self, e6):
        sub = span_subsystem(e6, (E6_BETA1, A1, A2))
        assert len(sub.roots) == 12

    def test_empty_generators(self, e6):
        pi = check_pi_system(e6, ())
        assert generate(pi).roots == frozenset()

    def test_full_basis_regenerates_everything(self, e6):
        sub = span_subsystem(e6, e6.simple_roots)
        assert sub.roots == e6.roots

    def test_membership_requires_integrality(self, e6):
        # {a1, gamma} spans a rank-2 lattice; a2 is not in it
        sub = span_subsystem(e6, (A1, (1, 2, 3, 2, 1, 2)))
        assert A2 not in sub.roots
        assert len(sub.roots) == 4  # A1 x A1

    def test_r4_bottom_matches_r3(self, e6):
        a = span_subsystem(e6, (R3_ROOT, A1, A2))
        b = span_subsystem(e6, (A1, A2, R3_ROOT))
        assert a.roots == b.roots


class TestPositiveBasis:
    def test_sign_flip(self, e6):
        sub = span_subsystem(e6, (tuple(-x for x in A1),))
        assert positive_basis(sub) == (A1,)

    def test_r4_bottom_positive_basis(self, e6):
        sub = span_subsystem(e6, (A1, A2, R3_ROOT))
        basis = positive_basis(sub)
        assert len(basis) == 3
        assert all(is_positive(b) for b in basis)
        regenerated = span_subsystem(e6, basis)
        assert regenerated.roots == sub.roots

    def test_whole_system_gives_simples(self, e6):
        sub = span_subsystem(e6, e6.simple_roots)
        assert set(positive_basis(sub)) == set(e6.simple_roots)

    def test_definitional_oracle(self, e6):
        for gens in ((E6_BETA1, A1, A2), (A1, A2, R3_ROOT),
                     ((0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1))):
            sub = span_subsystem(e6, gens)
            basis = positive_basis(sub)
            assert definitional_basis_check(e6, sub.roots, basis)

    def test_brute_force_oracle_small(self, e6):
        # the positive basis is the unique all-positive basis of the subsystem
        sub = span_subsystem(e6, (A1, (1, 2, 3, 2, 1, 2)))
        basis = positive_basis(sub)
        all_bases = brute_force_bases(e6, sub.roots)
        positive_ones = [
            b for b in all_bases if all(is_positive(r) for r in b)
        ]
        assert [tuple(sorted(basis))] == [tuple(sorted(b)) for b in positive_ones]

    def test_negative_generators_rebased(self, e6):
        gamma = (1, 2, 3, 2, 1, 2)
        sub = span_subsystem(e6, ((-1, 0, 0, 0, 0, 0), tuple(-x for x in gamma)))
        basis = positive_basis(sub)
        assert all(is_positive(b) for b in basis)
        assert span_subsystem(e6, basis).roots == sub.roots


class TestRebaseHermitian:
    def test_bottom_system_names_su22(self, e6, e6_marked):
        sub = span_subsystem(e6, (E6_BETA1, A1, A2))
        basis, marks = rebase_hermitian(e6_marked, sub)
        assert sum(1 for m in marks if m is not RootClass.COMPACT) == 1
        assert str(name_real_form(e6, basis, marks)) == "su(2,2)"

    def test_compact_subsystem_all_compact(self, e6, e6_marked):
        sub = span_subsystem(e6, ((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)))
        basis, marks = rebase_hermitian(e6_marked, sub)
        assert all(m is RootClass.COMPACT for m in marks)

    def test_component_marks_one_noncompact(self, e6, e6_marked):
        gamma = (1, 2, 3, 2, 1, 2)
        sub = span_subsystem(e6, (A1, gamma))
        basis, marks = rebase_hermitian(e6_marked, sub)
        assert sorted(m.value for m in marks) == ["noncompact+", "noncompact+"]
        # two orthogonal components, one noncompact each
        assert e6.inner(basis[0], basis[1]) == 0


def _parabolic_pair(e6):
    """An equivalent E6 pair whose search walks its parabolic orbit: 3 states."""
    a = span_subsystem(e6, (A1, (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)))
    b = span_subsystem(e6, ((0, 0, 0, 0, 0, -1), (0, 1, 2, 1, 0, 1),
                            (-1, -1, -2, -1, -1, -1)))
    return a, b


def _conjugate(system, nodes, word):
    """span of the simple roots at 1-based ``nodes``, moved by simple reflections."""
    gens = []
    for k in nodes:
        root = system.simple(k - 1)
        for i in word:
            root = apply_word_to_root(system, (system.simple(i),), root)
        gens.append(root)
    return span_subsystem(system, gens)


class TestWeylEquivalence:
    def test_identity(self, e6):
        a = span_subsystem(e6, (E6_BETA1, A1, A2))
        assert weyl_equivalent(e6, a, a) == ()

    def test_r3_equivalent_to_r1(self, e6):
        bottom = span_subsystem(e6, (R3_ROOT, A1, A2))
        top = span_subsystem(e6, (E6_BETA1, A1, A2))
        word = weyl_equivalent(e6, bottom, top)
        assert word is not None
        assert apply_word(e6, word, tuple(bottom.roots)) == top.roots

    def test_direct_witness_accepted(self, e6):
        bottom = span_subsystem(e6, (R3_ROOT, A1, A2))
        top = span_subsystem(e6, (E6_BETA1, A1, A2))
        s45 = ((0, 0, 0, 1, 1, 0),)
        assert apply_word(e6, s45, tuple(bottom.roots)) == top.roots
        assert apply_word_to_root(e6, s45, R3_ROOT) == E6_BETA1
        assert apply_word_to_root(e6, s45, A1) == A1
        assert apply_word_to_root(e6, s45, A2) == A2

    def test_different_types_not_equivalent(self, e6):
        a3 = span_subsystem(e6, (A1, A2, (0, 0, 1, 0, 0, 0)))
        a1x3 = span_subsystem(e6, (A1, (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)))
        assert weyl_equivalent(e6, a3, a1x3) is None

    def test_budget_exceeded(self, e6):
        a, b = _parabolic_pair(e6)
        with pytest.raises(SearchBudgetExceeded) as exc:
            weyl_equivalent(e6, a, b, budget=2)
        assert exc.value.explored > 2
        assert (exc.value.explored, exc.value.depth, exc.value.frontier) == (3, 1, 1)
        assert str(exc.value) == (
            "search budget exceeded after 3 states, at depth 1 with 1 states in the frontier"
        )
        word = weyl_equivalent(e6, a, b)
        assert apply_word(e6, word, tuple(a.roots)) == b.roots

    def test_env_budget_honored(self, e6, monkeypatch):
        monkeypatch.setenv("ROOTFORGE_BFS_BUDGET", "2")
        a, b = _parabolic_pair(e6)
        with pytest.raises(SearchBudgetExceeded):
            weyl_equivalent(e6, a, b)

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_env_budget_rejected(self, e6, monkeypatch, value):
        monkeypatch.setenv("ROOTFORGE_BFS_BUDGET", value)
        bottom = span_subsystem(e6, (R3_ROOT, A1, A2))
        top = span_subsystem(e6, (E6_BETA1, A1, A2))
        with pytest.raises(RootForgeError, match="ROOTFORGE_BFS_BUDGET"):
            weyl_equivalent(e6, bottom, top)

    def test_word_is_reproducible(self, e6):
        bottom = span_subsystem(e6, (R3_ROOT, A1, A2))
        top = span_subsystem(e6, (E6_BETA1, A1, A2))
        w1 = weyl_equivalent(e6, bottom, top)
        w2 = weyl_equivalent(e6, bottom, top)
        assert w1 == w2

    @pytest.mark.parametrize("nodes_a,nodes_b", [
        ((1, 3, 5), (1, 3, 7)),              # 3A1
        ((1, 2, 3, 4, 7), (2, 3, 4, 5, 6)),  # A5
        ((1, 2, 3, 7), (1, 2, 3, 6)),        # A3+A1
    ], ids=["3A1", "A5", "A3+A1"])
    def test_e7_inequivalent_types_need_no_search(self, e7, nodes_a, nodes_b):
        # the 2rho' invariant separates them; a full orbit walk needs 336-3780 states
        a = _conjugate(e7, nodes_a, (3, 2, 6, 0))
        b = _conjugate(e7, nodes_b, (5, 4, 1))
        assert len(a.roots) == len(b.roots)
        assert weyl_equivalent(e7, a, b, budget=1) is None

    @pytest.mark.parametrize("nodes,word_a,word_b,states", [
        ((1, 3, 5, 7), (1, 3, 3, 5, 0, 5, 6, 4, 6, 1, 5, 0, 4, 1, 4, 5, 4),
         (2, 6, 6, 5, 7, 2, 2, 6, 7, 3, 2, 1, 5, 0, 6, 1), 100),
        ((2, 3, 4, 8), (4, 5, 0, 7, 3, 0, 2, 1, 5, 7, 3, 6, 1, 3, 0, 3, 6, 4, 2, 6, 2, 1, 2, 7),
         (2, 0, 0, 3, 3, 2, 2, 4, 5), 16),
    ], ids=["4A1", "A3+A1"])
    def test_e8_four_generators_small_search(self, nodes, word_a, word_b, states):
        e8 = family_system("E", 8)
        a = _conjugate(e8, nodes, word_a)
        b = _conjugate(e8, nodes, word_b)
        word = weyl_equivalent(e8, a, b, budget=states)
        assert word is not None
        assert apply_word(e8, word, tuple(a.roots)) == b.roots
