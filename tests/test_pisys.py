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
        bottom = span_subsystem(e6, (R3_ROOT, A1, A2))
        top = span_subsystem(e6, (E6_BETA1, A1, A2))
        with pytest.raises(SearchBudgetExceeded) as exc:
            weyl_equivalent(e6, bottom, top, budget=2)
        assert exc.value.explored > 2

    def test_env_budget_honored(self, e6, monkeypatch):
        monkeypatch.setenv("ROOTFORGE_BFS_BUDGET", "2")
        bottom = span_subsystem(e6, (R3_ROOT, A1, A2))
        top = span_subsystem(e6, (E6_BETA1, A1, A2))
        with pytest.raises(SearchBudgetExceeded):
            weyl_equivalent(e6, bottom, top)

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
