import time

import pytest

from rootforge import (
    CartanMatrix,
    NotARoot,
    NotFiniteType,
    build_root_system,
    cartan_integer,
    family_system,
    is_positive,
    reflect,
)
from rootforge.rootsys import _closure_bound, system_from_json

from oracles import (
    a_model_roots,
    box_norm_roots,
    cartan_number,
    d_model_roots,
    e6_model_count,
    e7_model_count,
)


class TestCartanMatrix:
    def test_family_shapes(self):
        a3 = CartanMatrix.from_family("A", 3)
        assert a3.entries == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
        e6 = CartanMatrix.from_family("E", 6)
        # chain 1..5 with node 6 attached to node 3
        assert e6.entries[5][2] == -1 and e6.entries[2][5] == -1
        assert e6.entries[5][4] == 0
        e7 = CartanMatrix.from_family("E", 7)
        assert e7.entries[6][3] == -1 and e7.entries[3][6] == -1

    def test_rejects_bad_diagonal(self):
        with pytest.raises(NotFiniteType):
            CartanMatrix(entries=((1, 0), (0, 2)))

    def test_rejects_asymmetric_zeros(self):
        with pytest.raises(NotFiniteType):
            CartanMatrix(entries=((2, -1), (0, 2)))

    def test_rejects_affine(self):
        # affine A1: determinant zero
        with pytest.raises(NotFiniteType):
            CartanMatrix(entries=((2, -2), (-2, 2)))
        with pytest.raises(NotFiniteType):
            CartanMatrix.from_family("E", 9)

    def test_e_family_needs_rank_4(self):
        for rank in (1, 2, 3):
            with pytest.raises(NotFiniteType, match="E family needs rank >= 4"):
                CartanMatrix.from_family("E", rank)
        assert len(family_system("E", 4).roots) == 20  # A4
        assert len(family_system("E", 5).roots) == 40  # D5

    def test_symmetrizer_b2(self):
        b2 = CartanMatrix.from_family("B", 2)
        d = b2.symmetrizer
        a = b2.entries
        assert d[0] * a[0][1] == d[1] * a[1][0]

    @pytest.mark.parametrize(
        "cartan,symmetrizer",
        [
            (CartanMatrix.from_family("B", 3), (2, 2, 1)),
            (CartanMatrix.from_family("C", 3), (1, 1, 2)),
            (CartanMatrix(entries=((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))),
             (2, 2, 1, 1)),
            (CartanMatrix(entries=((2, -1), (-3, 2))), (3, 1)),
        ],
        ids=["B3", "C3", "F4", "G2"],
    )
    def test_cartan_integer_every_root_pair(self, cartan, symmetrizer):
        system = build_root_system(cartan)
        for a in system.roots:
            for b in system.roots:
                expected = cartan_number(cartan.entries, symmetrizer, a, b)
                assert cartan_integer(system, a, b) == expected, (a, b)

    def test_spec_loader(self):
        assert system_from_json({"family": "A", "rank": 2}).rank == 2
        assert system_from_json({"cartan": [[2, -1], [-1, 2]]}).rank == 2


class TestClosure:
    def test_a1(self):
        sys = family_system("A", 1)
        assert sys.roots == frozenset({(1,), (-1,)})

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_a_counts_closed_form(self, n):
        assert len(family_system("A", n).roots) == n * (n + 1)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_d_counts_closed_form(self, n):
        assert len(family_system("D", n).roots) == 2 * n * (n - 1)

    def test_e_counts(self, e6, e7):
        assert len(e6.roots) == 72
        assert len(e7.roots) == 126

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_a_sets_match_coordinate_model(self, n):
        assert family_system("A", n).roots == frozenset(a_model_roots(n))

    @pytest.mark.parametrize("n", [4, 5])
    def test_d_sets_match_coordinate_model(self, n):
        assert family_system("D", n).roots == frozenset(d_model_roots(n))

    def test_e6_set_matches_box_enumeration(self, e6):
        assert e6.roots == frozenset(box_norm_roots("E", 6, 3))

    def test_d5_set_matches_box_enumeration(self):
        assert family_system("D", 5).roots == frozenset(box_norm_roots("D", 5, 2))

    def test_exceptional_counts_match_even_lattice_model(self):
        assert e6_model_count() == 72
        assert e7_model_count() == 126

    def test_highest_roots(self, e6, e7):
        assert e6.highest_root == (1, 2, 3, 2, 1, 2)
        assert e7.highest_root == (1, 2, 3, 4, 3, 2, 2)

    def test_builds_under_a_second_each(self):
        for family, rank in (("A", 5), ("D", 5), ("E", 6), ("E", 7)):
            start = time.perf_counter()
            build_root_system(CartanMatrix.from_family(family, rank))
            assert time.perf_counter() - start < 1.0

    def test_closure_bound_triggers(self):
        affine = CartanMatrix.from_family("A", 3)
        # force a tiny bound to exercise the backstop path
        with pytest.raises(NotFiniteType):
            build_root_system(affine, max_roots=3)

    def test_closure_bound_covers_every_type(self):
        # |Phi| from the closed forms, for every sum of up to three
        # irreducible components of total rank <= 16
        counts = [(m, m * (m + 1)) for m in range(1, 17)]  # A
        counts += [(m, 2 * m * m) for m in range(2, 17)]  # B, C
        counts += [(m, 2 * m * (m - 1)) for m in range(4, 17)]  # D
        counts += [(2, 12), (4, 48), (6, 72), (7, 126), (8, 240)]  # G2 F4 E6 E7 E8
        sums = {(0, 0)}
        for _ in range(3):
            sums |= {(n + m, k + c) for n, k in sums for m, c in counts if n + m <= 16}
        assert all(k <= _closure_bound(n) for n, k in sums if n)

    def test_bound_sized_systems_build(self):
        # C12 has 2n^2 roots, the most of any classical type; E8+E8 adds the
        # largest exceptional excess twice
        e8 = CartanMatrix.from_family("E", 8).entries
        blocks = tuple(row + (0,) * 8 for row in e8) + tuple((0,) * 8 + row for row in e8)
        for cartan, count in ((CartanMatrix.from_family("C", 12), 288),
                              (CartanMatrix(entries=blocks), 480)):
            assert len(build_root_system(cartan).roots) == count
            with pytest.raises(NotFiniteType):
                build_root_system(cartan, max_roots=count - 1)

    def test_negation_closure(self, e6):
        assert all(tuple(-x for x in r) in e6.roots for r in e6.roots)

    def test_no_proper_multiples(self, e6):
        for r in e6.roots:
            for k in (2, 3):
                assert tuple(k * x for x in r) not in e6.roots


class TestReflectionsAndIntegers:
    def test_reflect_self_negates(self, e6):
        alpha = (1, 0, 0, 0, 0, 0)
        assert reflect(e6, alpha, alpha) == (-1, 0, 0, 0, 0, 0)

    def test_reflection_fixes_orthogonal_simples(self, e6):
        s = (0, 0, 0, 1, 1, 0)  # a4 + a5
        assert reflect(e6, s, (1, 0, 0, 0, 0, 0)) == (1, 0, 0, 0, 0, 0)
        assert reflect(e6, s, (0, 1, 0, 0, 0, 0)) == (0, 1, 0, 0, 0, 0)

    def test_reflection_chain_step(self, e6):
        s = (0, 0, 0, 1, 1, 0)
        assert reflect(e6, s, (0, 1, 2, 1, 0, 1)) == (0, 1, 2, 2, 1, 1)

    def test_cartan_integer_diagonal(self, e6):
        assert cartan_integer(e6, (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)) == 2

    def test_cartan_integer_orthogonal(self, e6):
        assert cartan_integer(e6, (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)) == 0

    def test_cartan_integer_reflection_consistency(self, e6):
        # the value must make s_a(b) = b - c*a land on the reflected root
        a = (0, 0, 0, 1, 1, 0)
        b = (0, 1, 2, 1, 0, 1)
        c = cartan_integer(e6, a, b)
        assert c == -1
        assert tuple(x - c * y for x, y in zip(b, a)) == reflect(e6, a, b)

    def test_not_a_root_errors(self, e6):
        with pytest.raises(NotARoot):
            cartan_integer(e6, (1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0))
        with pytest.raises(NotARoot):
            reflect(e6, (1, 0, 0, 0, 0, 0), (9, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("vector", [
        (1.9, 0), ("1", 0), (1, 0, 0), (1,), ([1], 0), 5, None,
    ], ids=["float", "string", "too-long", "too-short", "nested", "int", "none"])
    def test_require_root_rejects_non_roots(self, vector):
        with pytest.raises(NotARoot):
            family_system("A", 2).require_root(vector)

    def test_require_root_gives_the_stored_tuple(self):
        from fractions import Fraction

        a2 = family_system("A", 2)
        for vector in ((1, 0), [1, 0], (1.0, 0), (Fraction(1), 0)):
            got = a2.require_root(vector)
            assert got == (1, 0) and all(type(x) is int for x in got)

    @pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6), ("E", 7)])
    def test_exhaustive_reflection_closure(self, family, rank):
        sys = family_system(family, rank)
        roots = sorted(sys.roots)
        for a in roots:
            for b in roots:
                assert reflect(sys, a, b) in sys.roots

    def test_exhaustive_integrality(self, e6):
        roots = sorted(e6.roots)
        for a in roots:
            for b in roots:
                cartan_integer(e6, a, b)  # raises if non-integral

    def test_bc_reflection_closure(self):
        for family in ("B", "C"):
            sys = family_system(family, 2)
            for a in sys.roots:
                for b in sys.roots:
                    assert reflect(sys, a, b) in sys.roots

    def test_f4_g2_buildable_from_matrices(self):
        f4 = build_root_system(CartanMatrix(entries=(
            (2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2),
        )))
        assert len(f4.roots) == 48
        g2 = build_root_system(CartanMatrix(entries=((2, -1), (-3, 2))))
        assert len(g2.roots) == 12
        for sys in (f4, g2):
            for a in sys.roots:
                for b in sys.roots:
                    assert reflect(sys, a, b) in sys.roots


class TestPositivity:
    def test_simple_positive(self):
        assert is_positive((1, 0, 0, 0, 0, 0))

    def test_negated_highest_negative(self, e6):
        assert not is_positive(tuple(-x for x in e6.highest_root))

    def test_beta1_positive(self):
        assert is_positive((0, 1, 2, 2, 1, 1))

    @pytest.mark.parametrize("family,rank", [("A", 4), ("D", 5), ("E", 6), ("E", 7)])
    def test_half_positive(self, family, rank):
        sys = family_system(family, rank)
        assert len(sys.positive_roots) * 2 == len(sys.roots)

    @pytest.mark.parametrize("family,rank", [("A", 4), ("D", 5), ("E", 6)])
    def test_ladder_property(self, family, rank):
        # every positive non-simple root covers some simple root
        sys = family_system(family, rank)
        simples = set(sys.simple_roots)
        for r in sys.positive_roots:
            if r in simples:
                continue
            assert any(
                tuple(x - s[i] for i, x in enumerate(r)) in sys.roots
                for s in simples
            )
