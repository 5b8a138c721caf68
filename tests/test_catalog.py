import time

import pytest

import rootforge.catalog as catalog_mod
from rootforge import (
    MixedLengthUnsupported,
    ParameterOutOfRange,
    TableValidationError,
    UnsupportedAmbient,
    check_pi_system,
    inclusion_chains,
    is_tight_inclusion,
    maximal_hermitian_regular_subalgebras,
    name_real_form,
    parse_real_form,
    rank_sum_bound,
    rebase_hermitian,
    sp_factor_candidates,
    span_subsystem,
    tube_rank_filter,
    weyl_equivalent,
)
from rootforge.catalog import (
    CatalogEntry,
    ambient_context,
    validate_entry,
)
from rootforge.errors import LinearlyDependent, RootForgeError
from rootforge.pisys import generate

from oracles import span_roots

# the 23 ambients whose tables verify-paper scans
SCANNED_AMBIENTS = (
    [f"su({p},{q})" for p in range(1, 8) for q in range(p, 8) if p + q <= 8]
    + [f"so*({2 * p})" for p in (4, 5, 6)]
    + ["so(6,2)", "so(8,2)", "e6(-14)", "e7(-25)"]
)

E6_BETA1 = (0, 1, 2, 2, 1, 1)
E7_BETA3 = (0, 0, 0, 1, 1, 1, 1)
R3_ROOT = (0, 1, 2, 1, 0, 1)


def names_of(rows):
    return [str(r.name) for r in rows]


class TestTables:
    def test_e6_table(self):
        rows = maximal_hermitian_regular_subalgebras("e6(-14)")
        assert names_of(rows) == [
            "su(1,5)+su(1,1)",
            "su(1,2)+su(1,2)",
            "su(2,4)",
            "so*(10)",
            "so(8,2)",
        ]

    def test_e7_table(self):
        rows = maximal_hermitian_regular_subalgebras("e7(-25)")
        assert names_of(rows) == [
            "su(1,5)+su(1,2)",
            "su(1,3)+su(1,3)",
            "su(2,6)",
            "su(3,3)",
            "so*(12)",
            "so(10,2)+su(1,1)",
            "e6(-14)",
        ]

    def test_su11_empty(self):
        assert maximal_hermitian_regular_subalgebras("su(1,1)") == []

    @pytest.mark.parametrize(
        "p,q",
        [(p, q) for p in range(1, 8) for q in range(p, 8) if p + q <= 8],
    )
    def test_su_scan(self, p, q):
        rows = maximal_hermitian_regular_subalgebras(f"su({p},{q})")
        for row in rows:
            assert str(row.ambient) == f"su({p},{q})"

    @pytest.mark.parametrize("p", [4, 5, 6])
    def test_so_star_scan(self, p):
        maximal_hermitian_regular_subalgebras(f"so*({2 * p})")

    @pytest.mark.parametrize("p", [4, 6, 8])
    def test_so_scan(self, p):
        # so(4,2) = su(2,2) canonically; its table is served by the su family
        maximal_hermitian_regular_subalgebras(f"so({p},2)")

    def test_so42_routes_to_su22(self):
        rows = maximal_hermitian_regular_subalgebras("so(4,2)")
        assert names_of(rows) == ["su(1,2)", "su(1,2)", "su(1,1)+su(1,1)"]

    def test_unsupported_ambient(self):
        with pytest.raises(UnsupportedAmbient):
            maximal_hermitian_regular_subalgebras("sp(4,R)")
        with pytest.raises(UnsupportedAmbient):
            maximal_hermitian_regular_subalgebras("su(1,5)+su(1,1)")

    @pytest.mark.parametrize("ambient", SCANNED_AMBIENTS)
    def test_generate_matches_span_oracle(self, ambient):
        system, _ = ambient_context(ambient)
        for row in maximal_hermitian_regular_subalgebras(ambient):
            pi = check_pi_system(system, row.generators)
            assert generate(pi).roots == span_roots(system, row.generators)

    def test_gamma_and_beta_vectors_are_roots(self, e6, e7):
        assert (1, 2, 3, 2, 1, 2) in e6.roots
        assert E6_BETA1 in e6.roots
        assert (0, 0, 1, 1, 1, 1) in e6.roots
        assert (1, 2, 3, 4, 3, 2, 2) in e7.roots
        assert (0, 1, 2, 3, 2, 1, 2) in e7.roots
        assert (0, 0, 1, 2, 2, 1, 1) in e7.roots
        assert E7_BETA3 in e7.roots

    def test_perturbed_row_fails_validation(self):
        system, marking = ambient_context("e6(-14)")
        rows = maximal_hermitian_regular_subalgebras("e6(-14)")
        su24 = next(r for r in rows if str(r.name) == "su(2,4)")
        f, gens = su24.components[0]
        bad = list(gens)
        bad[0] = (0, 1, 2, 1, 0, 1)  # one coefficient off: wrong chain end
        broken = CatalogEntry(
            ambient=su24.ambient,
            name=su24.name,
            components=((f, tuple(bad)),),
            source="perturbed fixture",
        )
        with pytest.raises((TableValidationError, RootForgeError)):
            validate_entry(system, marking, broken)


class TestTypoRowAudits:
    def test_e6_in_e7_row_completion(self, e7, e7_marked):
        """Brute-force the unique completion of the five printed generators."""
        fixed = [
            (1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0),
            E7_BETA3,
        ]
        target = parse_real_form("e6(-14)")
        solutions = []
        for x in sorted(e7.roots):
            if x in fixed:
                continue
            try:
                span = span_subsystem(e7, fixed + [x])
            except RootForgeError:
                continue
            if len(span.roots) != 72:
                continue
            try:
                basis, marks = rebase_hermitian(e7_marked, span)
                name = name_real_form(e7, basis, marks)
            except RootForgeError:
                continue
            if name == target:
                solutions.append(x)
        alpha2 = (0, 1, 0, 0, 0, 0, 0)
        assert alpha2 in solutions
        # the stored table row uses that completion
        rows = maximal_hermitian_regular_subalgebras("e7(-25)")
        e6row = next(r for r in rows if str(r.name) == "e6(-14)")
        assert set(e6row.generators) == set(fixed) | {alpha2}
        # every other solution generates a different copy of the same subsystem
        for x in solutions:
            assert len(span_subsystem(e7, fixed + [x]).roots) == 72

    def test_repeated_generator_is_rejected(self, e7):
        """The row as printed (a repeated node) fails validation outright."""
        with pytest.raises(LinearlyDependent):
            check_pi_system(
                e7,
                [
                    (1, 0, 0, 0, 0, 0, 0),
                    (0, 0, 1, 0, 0, 0, 0),
                    (0, 0, 0, 1, 0, 0, 0),
                    (0, 0, 0, 0, 1, 0, 0),
                    (0, 0, 0, 0, 1, 0, 0),
                    E7_BETA3,
                ],
            )

    def test_su15_su12_row_types(self, e7, e7_marked):
        """The 5 + 2 generator row names exactly the printed factors."""
        rows = maximal_hermitian_regular_subalgebras("e7(-25)")
        row = next(r for r in rows if str(r.name) == "su(1,5)+su(1,2)")
        (f1, g1), (f2, g2) = row.components
        assert (str(f1), len(g1)) == ("su(1,5)", 5)
        assert (str(f2), len(g2)) == ("su(1,2)", 2)
        sub = span_subsystem(e7, row.generators)
        basis, marks = rebase_hermitian(e7_marked, sub)
        assert str(name_real_form(e7, basis, marks)) == "su(1,5)+su(1,2)"


class TestChains:
    def test_census(self):
        start = time.perf_counter()
        chains = inclusion_chains("su(2,2)", "e6(-14)", 3)
        assert time.perf_counter() - start < 60
        routes = sorted(tuple(str(n) for n in c.names) for c in chains)
        assert routes == sorted(
            [
                ("e6(-14)", "su(2,4)", "su(2,2)"),
                ("e6(-14)", "su(2,4)", "su(2,3)", "su(2,2)"),
                ("e6(-14)", "so*(10)", "su(2,3)", "su(2,2)"),
                ("e6(-14)", "so*(10)", "so*(8)", "su(2,2)"),
                ("e6(-14)", "so(8,2)", "su(2,2)"),
                ("e6(-14)", "so(8,2)", "so(6,2)", "su(2,2)"),
            ]
        )

    def test_four_routes_exact_systems(self, e6):
        chains = inclusion_chains("su(2,2)", "e6(-14)", 3)
        by_route = {tuple(str(n) for n in c.names): c for c in chains}
        a1 = (1, 0, 0, 0, 0, 0)
        a2 = (0, 1, 0, 0, 0, 0)
        a3 = (0, 0, 1, 0, 0, 0)
        a4 = (0, 0, 0, 1, 0, 0)
        a6 = (0, 0, 0, 0, 0, 1)
        beta2 = (0, 0, 1, 1, 1, 1)
        expectations = {
            ("e6(-14)", "su(2,4)", "su(2,3)", "su(2,2)"): [
                {E6_BETA1, a1, a2, a3, a6},
                {E6_BETA1, a1, a2, a3},
                {E6_BETA1, a1, a2},
            ],
            ("e6(-14)", "so*(10)", "su(2,3)", "su(2,2)"): [
                {a1, a2, a3, a4, beta2},
                {E6_BETA1, a1, a2, a3},
                {E6_BETA1, a1, a2},
            ],
            ("e6(-14)", "so(8,2)", "su(2,2)"): [
                {a1, a2, a3, a4, a6},
                {R3_ROOT, a1, a2},
            ],
            ("e6(-14)", "so(8,2)", "so(6,2)", "su(2,2)"): [
                {a1, a2, a3, a4, a6},
                {a1, a2, a3, (0, 0, 1, 1, 0, 1)},
                {R3_ROOT, a1, a2},
            ],
        }
        for route, systems in expectations.items():
            chain = by_route[route]
            assert [set(s.generators) for s in chain.steps] == systems

    def test_bottom_coincidences(self, e6):
        # the two su(2,4)-route bottoms are the same subsystem; so are the
        # two so(8,2)-route bottoms
        chains = inclusion_chains("su(2,2)", "e6(-14)", 3)
        by_route = {tuple(str(n) for n in c.names): c for c in chains}
        r1 = by_route[("e6(-14)", "su(2,4)", "su(2,3)", "su(2,2)")]
        r2 = by_route[("e6(-14)", "so*(10)", "su(2,3)", "su(2,2)")]
        r3 = by_route[("e6(-14)", "so(8,2)", "su(2,2)")]
        r4 = by_route[("e6(-14)", "so(8,2)", "so(6,2)", "su(2,2)")]
        assert r1.subsystem(e6).roots == r2.subsystem(e6).roots
        assert r3.subsystem(e6).roots == r4.subsystem(e6).roots
        assert r1.subsystem(e6).roots != r3.subsystem(e6).roots

    def test_all_bottoms_weyl_equivalent(self, e6):
        chains = inclusion_chains("su(2,2)", "e6(-14)", 3)
        subs = [c.subsystem(e6) for c in chains]
        reference = subs[0]
        for sub in subs[1:]:
            word = weyl_equivalent(e6, sub, reference)
            assert word is not None

    def test_target_equals_ambient(self):
        chains = inclusion_chains("e6(-14)", "e6(-14)", 3)
        assert len(chains) == 1 and chains[0].steps == ()

    def test_rank_obstruction(self):
        assert inclusion_chains("e7(-25)", "e6(-14)", 3) == []

    def test_depth_validation(self):
        with pytest.raises(ParameterOutOfRange):
            inclusion_chains("su(2,2)", "e6(-14)", 0)

    def test_search_validates_each_row_once(self, monkeypatch):
        # components are everything validate_entry checks; source only labels errors
        validated = []
        original = catalog_mod.validate_entry

        def recording(system, marking, entry):
            validated.append(entry.components)
            return original(system, marking, entry)

        monkeypatch.setattr(catalog_mod, "validate_entry", recording)
        assert inclusion_chains("su(2,2)", "e7(-25)", 4)
        assert validated
        assert len(validated) == len(set(validated))

    def test_chain_generators_valid_at_top(self, e6):
        for c in inclusion_chains("su(2,2)", "e6(-14)", 3):
            for step in c.steps:
                check_pi_system(e6, step.generators)


class TestFilters:
    def test_tightness_examples(self):
        rows = maximal_hermitian_regular_subalgebras("e6(-14)")
        by_name = {str(r.name): r for r in rows}
        assert is_tight_inclusion(by_name["su(2,4)"])
        assert is_tight_inclusion(by_name["su(1,5)+su(1,1)"])
        # su(1,2)+su(1,2) also has rank 1+1 = 2 = rank(e6)
        assert is_tight_inclusion(by_name["su(1,2)+su(1,2)"])

    def test_rank_deficit_not_tight(self, e6):
        chains = inclusion_chains("su(2,2)", "e6(-14)", 3)
        assert all(is_tight_inclusion(c) for c in chains)
        sub_only = CatalogEntry(
            ambient=parse_real_form("e6(-14)"),
            name=parse_real_form("su(1,2)"),
            components=((parse_real_form("su(1,2)").components[0], ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))),),
            source="fixture",
        )
        assert not is_tight_inclusion(sub_only)

    def test_mixed_length_unsupported(self):
        fake = CatalogEntry(
            ambient=parse_real_form("e7(-25)"),
            name=parse_real_form("sp(6,R)"),
            components=((parse_real_form("sp(6,R)").components[0], ()),),
            source="fixture",
        )
        with pytest.raises(MixedLengthUnsupported):
            is_tight_inclusion(fake)

    def test_sp_factor_candidates(self):
        assert sp_factor_candidates(1) == [(1,)]
        assert sp_factor_candidates(2) == [(1,), (1, 1), (2,)]
        assert sp_factor_candidates(3) == [
            (1,), (1, 1), (1, 1, 1), (2,), (2, 1), (3,)
        ]

    def test_sp_factor_candidates_brute(self):
        import itertools

        for r in (2, 3, 4):
            expected = set()
            for length in range(1, r + 1):
                for combo in itertools.product(range(1, r + 1), repeat=length):
                    if sum(combo) <= r:
                        expected.add(tuple(sorted(combo, reverse=True)))
            assert set(sp_factor_candidates(r)) == expected

    def test_nonholomorphic_requires_big_factor(self):
        from rootforge.catalog import admits_nonholomorphic

        assert not admits_nonholomorphic((1, 1))
        assert admits_nonholomorphic((2,))

    def test_tube_rank_filter_three(self):
        got = sorted(str(n) for n in tube_rank_filter(3))
        assert got == sorted(
            ["su(1,1)", "su(2,2)", "su(3,3)", "so*(8)", "so*(12)",
             "sp(4,R)", "sp(6,R)", "so(n,2)"]
        )

    def test_tube_rank_filter_small(self):
        assert [str(n) for n in tube_rank_filter(1)] == ["su(1,1)"]
        got = sorted(str(n) for n in tube_rank_filter(2))
        assert got == sorted(["su(1,1)", "su(2,2)", "so*(8)", "sp(4,R)", "so(n,2)"])

    def test_rank_sum_bound(self):
        assert rank_sum_bound(["su(2,2)"], "e7(-25)", 2)
        assert not rank_sum_bound(["su(2,2)", "su(2,2)"], "e7(-25)", 2)
        assert rank_sum_bound([], "e7(-25)", 2)
        assert not rank_sum_bound(["su(1,1)", "su(2,2)"], "e7(-25)", 2)
        assert rank_sum_bound(["so*(12)"], "e7(-25)", 2)
        assert rank_sum_bound(["e6(-14)"], "e7(-25)", 2)
