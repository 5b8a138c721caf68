"""Tables of maximal Hermitian regular subalgebras, chains, and filters.

Each supported ambient family (su(p,q), so*(2p), so(p,2) for even p, e6(-14),
e7(-25)) carries a table of rows.  A row stores, for every simple factor of
the named subalgebra, the generator roots of its defining Pi-system indexed
by the factor's *own* node labels, expressed in ambient coordinates.  Node
label conventions per family (noncompact node is always label 1):

* su(p,q), p <= q: rank p+q-1, diagram chain in the order
  (q+1, q+2, ..., q+p-1, 1, 2, ..., q) so that node 1 sits at position p.
* so*(2p): chain 1 - ... - (p-1) with node p attached to node 2
  (node 1 is a fork end).
* so(p,2), p = 2k-2: chain 1 - ... - (k-1) with node k attached to node k-2
  (node 1 is the chain end).
* e6(-14): chain 1 - ... - 5 with node 6 attached to node 3.
* e7(-25): chain 1 - ... - 6 with node 7 attached to node 4.

Because sub-row generators are stored in the sub's own label order, chains
compose by plain positional substitution.  Every row is validated at
instantiation: generators must form a Pi-system whose pairwise Cartan
integers equal the named type's Cartan matrix, whose marks put exactly one
noncompact root per component (at label 1), and whose regenerated subsystem
rebases and renames to the row's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    MixedLengthUnsupported,
    ParameterOutOfRange,
    RootForgeError,
    TableValidationError,
    UnsupportedAmbient,
)
from .hermitian import (
    HermitianMarking,
    RealFormName,
    RootClass,
    SimpleForm,
    classify_root,
    form,
    name_real_form,
)
from .pisys import SubrootSystem, check_pi_system, generate, rebase_hermitian, span_subsystem
from .rootsys import (
    CartanMatrix,
    RootSystem,
    build_root_system,
    cartan_integer,
)

Vec = tuple[int, ...]


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def _add(*vs: Vec) -> Vec:
    return tuple(sum(col) for col in zip(*vs))


def _scaled(k: int, v: Vec) -> Vec:
    return tuple(k * x for x in v)


# --------------------------------------------------------------------------
# Ambient systems and type Cartan matrices in table labeling


def _su_chain_order(p: int, q: int) -> list[int]:
    """Diagram positions -> node labels for su(p,q), p <= q."""
    return [q + i for i in range(1, p)] + list(range(1, q + 1))


@lru_cache(maxsize=None)
def cartan_for_form(f: SimpleForm) -> CartanMatrix:
    """Cartan matrix of the complexification, in the family's labeling."""
    if f.family == "su":
        p, q = f.a, f.b
        n = p + q - 1
        order = _su_chain_order(p, q)
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for s, t in zip(order, order[1:]):
            a[s - 1][t - 1] = a[t - 1][s - 1] = -1
        return CartanMatrix(entries=tuple(tuple(row) for row in a))
    if f.family == "so*":
        p = f.a
        a = [[2 if i == j else 0 for j in range(p)] for i in range(p)]
        for i in range(p - 2):
            a[i][i + 1] = a[i + 1][i] = -1
        a[p - 1][1] = a[1][p - 1] = -1
        return CartanMatrix(entries=tuple(tuple(row) for row in a))
    if f.family == "so":
        k = (f.a + 2) // 2
        a = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
        for i in range(k - 2):
            a[i][i + 1] = a[i + 1][i] = -1
        a[k - 1][k - 3] = a[k - 3][k - 1] = -1
        return CartanMatrix(entries=tuple(tuple(row) for row in a))
    if f.family == "e6":
        return CartanMatrix.from_family("E", 6)
    if f.family == "e7":
        return CartanMatrix.from_family("E", 7)
    raise UnsupportedAmbient(f"no diagram labeling for {f}")


@lru_cache(maxsize=None)
def ambient_context(name_str: str) -> tuple[RootSystem, HermitianMarking]:
    """Root system plus Hermitian marking (at node 1) for an ambient name."""
    name = _parse_ambient(name_str)
    f = name.components[0]
    system = build_root_system(cartan_for_form(f))
    return system, HermitianMarking(system=system, nc_index=0)


def _parse_ambient(name_str: str):
    from .hermitian import parse_real_form

    name = parse_real_form(name_str)
    if not name.is_simple:
        raise UnsupportedAmbient(f"{name} is not a simple ambient")
    f = name.components[0]
    if f.family not in ("su", "so*", "so", "e6", "e7"):
        raise UnsupportedAmbient(f"no table for family {f.family!r}")
    if f.family == "so" and f.a % 2:
        raise UnsupportedAmbient("so(p,2) tables require even p")
    return name


# --------------------------------------------------------------------------
# Catalog entries


@dataclass(frozen=True)
class CatalogEntry:
    """One table row: a named subalgebra with per-factor labeled generators."""

    ambient: RealFormName
    name: RealFormName
    components: tuple[tuple[SimpleForm, tuple[Vec, ...]], ...]
    source: str

    @property
    def generators(self) -> tuple[Vec, ...]:
        return tuple(g for _, gens in self.components for g in gens)

    def subsystem(self, system: RootSystem) -> SubrootSystem:
        return span_subsystem(system, self.generators)


def _entry(ambient: RealFormName, source: str, *components) -> CatalogEntry:
    comps = tuple((f, tuple(gens)) for f, gens in components)
    return CatalogEntry(
        ambient=ambient,
        name=RealFormName(tuple(f for f, _ in comps)),
        components=comps,
        source=source,
    )


def _su_component(chain: list[Vec], marked_pos: int) -> tuple[SimpleForm, tuple[Vec, ...]]:
    """Arrange a marked chain into su-label order (noncompact = label 1).

    ``marked_pos`` is 1-based along ``chain``; the chain is flipped when the
    marked node is nearer the right end, so p <= q always holds.
    """
    n = len(chain)
    p, q = marked_pos, n + 1 - marked_pos
    if p > q:
        chain = list(reversed(chain))
        p, q = q, p
    gens: list[Vec] = [()] * n
    for pos, label in enumerate(_su_chain_order(p, q), start=1):
        gens[label - 1] = chain[pos - 1]
    return SimpleForm("su", p, q), tuple(gens)


def _dstar_component(chain: list[Vec], fork: Vec) -> tuple[SimpleForm, tuple[Vec, ...]]:
    """so*(2m) labels: chain 1..m-1 (noncompact first) plus fork at node 2."""
    m = len(chain) + 1
    return SimpleForm("so*", m), tuple(chain) + (fork,)


def _so_component(chain: list[Vec], fork: Vec) -> tuple[SimpleForm, tuple[Vec, ...]]:
    """so(2m-2,2) labels: chain 1..m-1 (noncompact first) plus fork at m-2."""
    m = len(chain) + 1
    return SimpleForm("so", 2 * m - 2, 2), tuple(chain) + (fork,)


def _e6_component(chain: list[Vec], fork: Vec) -> tuple[SimpleForm, tuple[Vec, ...]]:
    return SimpleForm("e6"), tuple(chain) + (fork,)


# --------------------------------------------------------------------------
# Tables.  S maps node labels (1-based) to ambient-coordinate vectors.


def _su_table(ambient: RealFormName, s: dict[int, Vec], p: int, q: int) -> list[CatalogEntry]:
    rows: list[CatalogEntry] = []
    gamma = _add(*(s[i] for i in range(1, p + q)))

    for l in range(1, p):  # su(l,q)
        chain = [s[p + q - l + i] for i in range(1, l)] + [s[j] for j in range(1, q + 1)]
        rows.append(_entry(ambient, f"su(l,q) l={l}", _su_component(chain, l)))
    for t in range(p, q):  # su(p,s)
        chain = [s[q + i] for i in range(1, p)] + [s[j] for j in range(1, t + 1)]
        rows.append(_entry(ambient, f"su(p,s) s={t}", _su_component(chain, p)))
    for t in range(1, p):  # su(s,p)
        chain = [s[t + 1 - i] for i in range(1, t + 1)] + [s[p + q - i] for i in range(1, p)]
        rows.append(_entry(ambient, f"su(s,p) s={t}", _su_component(chain, t)))

    def second_block(l: int, t: int) -> list[Vec]:
        left = [_neg(s[p + q - l - i]) for i in range(1, p - l)]
        right = [_neg(s[q + 1 - i]) for i in range(1, q - t)]
        return left + [gamma] + right

    for l in range(1, p):  # su(l,s)+su(p-l,q-s)
        for t in range(l, q):
            if p - l > q - t:
                continue
            chain1 = [s[p + q - l + i] for i in range(1, l)] + [s[j] for j in range(1, t + 1)]
            rows.append(
                _entry(
                    ambient,
                    f"su(l,s)+su(p-l,q-s) l={l} s={t}",
                    _su_component(chain1, l),
                    _su_component(second_block(l, t), p - l),
                )
            )
    for t in range(1, p):  # su(s,l)+su(p-l,q-s)
        for l in range(t + 1, p):
            if q - t < 1 or p - l < 1:
                continue
            chain1 = [s[t + 1 - i] for i in range(1, t + 1)] + [
                s[p + q - i] for i in range(1, l)
            ]
            rows.append(
                _entry(
                    ambient,
                    f"su(s,l)+su(p-l,q-s) s={t} l={l}",
                    _su_component(chain1, t),
                    _su_component(second_block(l, t), p - l),
                )
            )
    return rows


def _dstar_table(ambient: RealFormName, s: dict[int, Vec], p: int) -> list[CatalogEntry]:
    rows: list[CatalogEntry] = []
    gamma = _add(s[1], *(_scaled(2, s[i]) for i in range(2, p - 1)), s[p - 1], s[p])
    beta = _add(*(s[i] for i in range(2, p + 1)))

    for l in range(1, p // 2 + 1):  # su(l,p-l)
        if l == 1:
            chain = [s[j] for j in range(1, p)]
        else:
            chain = (
                [_neg(s[p - l + 1 + i]) for i in range(1, l - 1)]
                + [beta]
                + [s[j] for j in range(1, p - l + 1)]
            )
        rows.append(_entry(ambient, f"su(l,p-l) l={l}", _su_component(chain, l)))

    lo = max(3, p // 2)
    for l in range(lo, p - 2):  # so*(2l)+so*(2(p-l)), both factors D>=3
        if p - l < 3:
            continue
        chain1 = [s[j] for j in range(1, l)]
        chain2 = [gamma] + [_neg(s[p - i]) for i in range(2, p - l)]
        rows.append(
            _entry(
                ambient,
                f"so*(2l)+so*(2(p-l)) l={l}",
                _dstar_component(chain1, s[p]),
                _dstar_component(chain2, _neg(s[p - 1])),
            )
        )

    chain = [s[j] for j in range(1, p - 1)]  # so*(2(p-1))
    rows.append(_entry(ambient, "so*(2(p-1))", _dstar_component(chain, s[p])))
    return rows


def _so_table(ambient: RealFormName, s: dict[int, Vec], k: int) -> list[CatalogEntry]:
    rows: list[CatalogEntry] = []
    gamma = _add(s[1], *(_scaled(2, s[i]) for i in range(2, k - 1)), s[k - 1], s[k])
    beta1 = _add(s[2], *(_scaled(2, s[i]) for i in range(3, k - 1)), s[k - 1], s[k])
    beta2 = _add(s[k - 2], s[k - 1], s[k])

    rows.append(
        _entry(
            ambient,
            "su(1,1)+su(1,1)",
            _su_component([s[1]], 1),
            _su_component([gamma], 1),
        )
    )
    chain = [s[j] for j in range(1, k - 1)] + [s[k]]
    rows.append(_entry(ambient, "su(1,k-1)", _su_component(chain, 1)))
    rows.append(_entry(ambient, "su(2,2)", _su_component([beta1, s[1], s[2]], 2)))
    # At k = 4 this row coincides with the su(2,2) one (beta1 = beta2 in D4);
    # the caller's (name, generator-set) dedup merges them.
    rows.append(
        _entry(ambient, "so(p-2,2)", _so_component([s[j] for j in range(1, k - 1)], beta2))
    )
    return rows


def _e6_table(ambient: RealFormName, s: dict[int, Vec]) -> list[CatalogEntry]:
    gamma = _add(s[1], _scaled(2, s[2]), _scaled(3, s[3]), _scaled(2, s[4]), s[5], _scaled(2, s[6]))
    beta1 = _add(s[2], _scaled(2, s[3]), _scaled(2, s[4]), s[5], s[6])
    beta2 = _add(s[3], s[4], s[5], s[6])
    return [
        _entry(
            ambient,
            "su(1,5)+su(1,1)",
            _su_component([s[j] for j in range(1, 6)], 1),
            _su_component([gamma], 1),
        ),
        _entry(
            ambient,
            "su(1,2)+su(1,2)",
            _su_component([s[1], s[2]], 1),
            _su_component([gamma, _neg(s[6])], 1),
        ),
        _entry(
            ambient,
            "su(2,4)",
            _su_component([beta1, s[1], s[2], s[3], s[6]], 2),
        ),
        _entry(
            ambient,
            "so*(10)",
            _dstar_component([s[1], s[2], s[3], s[4]], beta2),
        ),
        _entry(
            ambient,
            "so(8,2)",
            _so_component([s[1], s[2], s[3], s[4]], s[6]),
        ),
    ]


def _e7_table(ambient: RealFormName, s: dict[int, Vec]) -> list[CatalogEntry]:
    gamma = _add(
        s[1], _scaled(2, s[2]), _scaled(3, s[3]), _scaled(4, s[4]),
        _scaled(3, s[5]), _scaled(2, s[6]), _scaled(2, s[7]),
    )
    beta1 = _add(s[2], _scaled(2, s[3]), _scaled(3, s[4]), _scaled(2, s[5]), s[6], _scaled(2, s[7]))
    beta2 = _add(s[3], _scaled(2, s[4]), _scaled(2, s[5]), s[6], s[7])
    beta3 = _add(s[4], s[5], s[6], s[7])
    return [
        _entry(
            ambient,
            "su(1,5)+su(1,2)",
            _su_component([s[1], s[2], s[3], s[4], s[7]], 1),
            _su_component([gamma, _neg(s[6])], 1),
        ),
        _entry(
            ambient,
            "su(1,3)+su(1,3)",
            _su_component([s[1], s[2], s[3]], 1),
            _su_component([gamma, _neg(s[6]), _neg(s[5])], 1),
        ),
        _entry(
            ambient,
            "su(2,6)",
            _su_component([beta1] + [s[j] for j in range(1, 7)], 2),
        ),
        _entry(
            ambient,
            "su(3,3)",
            _su_component([_neg(s[7]), beta1, s[1], s[2], s[3]], 3),
        ),
        _entry(
            ambient,
            "so*(12)",
            _dstar_component([s[1], s[2], s[3], s[4], s[7]], beta2),
        ),
        _entry(
            ambient,
            "so(10,2)+su(1,1)",
            _so_component([s[1], s[2], s[3], s[4], s[5]], s[7]),
            _su_component([gamma], 1),
        ),
        _entry(
            ambient,
            "e6(-14)",
            _e6_component([s[1], s[2], s[3], s[4], s[5]], beta3),
        ),
    ]


# --------------------------------------------------------------------------
# Instantiation and validation


def _table_for(name: RealFormName, s: dict[int, Vec]) -> list[CatalogEntry]:
    f = name.components[0]
    if f.family == "su":
        return _su_table(name, s, f.a, f.b)
    if f.family == "so*":
        if f.a < 4:
            raise UnsupportedAmbient("so*(2p) tables require p >= 4")
        return _dstar_table(name, s, f.a)
    if f.family == "so":
        if f.a % 2 or f.a < 6:
            raise UnsupportedAmbient("so(p,2) tables require even p >= 6")
        return _so_table(name, s, (f.a + 2) // 2)
    if f.family == "e6":
        return _e6_table(name, s)
    if f.family == "e7":
        return _e7_table(name, s)
    raise UnsupportedAmbient(str(name))


def rows_for(name: RealFormName, s: dict[int, Vec] | None = None) -> list[CatalogEntry]:
    """Table rows of a simple ambient, generators in the coordinates of ``s``."""
    if not name.is_simple:
        raise UnsupportedAmbient(f"{name} is not a simple ambient")
    if s is None:
        s = _simple_labels(ambient_context(str(name))[0])
    return _table_for(name, s)


def _simple_labels(system: RootSystem) -> dict[int, Vec]:
    """Node label -> simple root: the table coordinates of the ambient itself."""
    return dict(enumerate(system.simple_roots, start=1))


def validate_entry(system: RootSystem, marking: HermitianMarking, entry: CatalogEntry) -> None:
    """Check every structural invariant of a table row; raise on failure."""
    gens = entry.generators
    try:
        pi = check_pi_system(system, gens)
    except RootForgeError as e:
        raise TableValidationError(f"{entry.source}: {e}") from e
    for f, fgens in entry.components:
        expected = cartan_for_form(f).entries
        m = len(fgens)
        for i in range(m):
            for j in range(m):
                got = cartan_integer(system, fgens[i], fgens[j])
                if got != expected[i][j]:
                    raise TableValidationError(
                        f"{entry.source}: Cartan integer ({i},{j}) is {got}, "
                        f"expected {expected[i][j]} for {f}"
                    )
        for i, g in enumerate(fgens):
            cls = classify_root(marking, g)
            if (i == 0) != (cls is not RootClass.COMPACT):
                raise TableValidationError(
                    f"{entry.source}: node {i + 1} of {f} has mark {cls.value}"
                )
    sub = generate(pi)
    counts = [f.facts.root_count for f in entry.name.components]
    if None in counts:
        raise RootForgeError(f"no root count for {entry.name}")
    expected_count = sum(counts)
    if len(sub.roots) != expected_count:
        raise TableValidationError(
            f"{entry.source}: generated {len(sub.roots)} roots, expected {expected_count}"
        )
    basis, marks = rebase_hermitian(marking, sub)
    derived = name_real_form(system, basis, marks)
    if derived != entry.name:
        raise TableValidationError(
            f"{entry.source}: rebased basis names {derived}, row says {entry.name}"
        )


def maximal_hermitian_regular_subalgebras(ambient) -> list[CatalogEntry]:
    """All table rows of the ambient, instantiated and validated."""
    name = _coerce_name(ambient)
    if not name.is_simple:
        raise UnsupportedAmbient(f"{name} is not a simple ambient")
    name = _table_name(name.components[0])
    system, marking = ambient_context(str(name))
    return _validated_rows(system, marking, rows_for(name, _simple_labels(system)), set())


def _table_name(f: SimpleForm) -> RealFormName:
    """Route a form isomorphic to some su(p,q) (sp(2,R), so(4,2), ...) to its su table."""
    key = f.canonical_key()
    if key[0] == "A":
        f = SimpleForm("su", key[1], key[2])
    return RealFormName((f,))


def _validated_rows(
    system: RootSystem, marking: HermitianMarking, rows, checked: set
) -> list[CatalogEntry]:
    """Rows deduplicated on (name, generator set), each validated.

    ``checked`` holds the ``components`` already validated against this
    system; they are everything validate_entry checks (``source`` only
    labels its errors), so each is validated once.
    """
    out = []
    seen = set()
    for row in rows:
        sig = (row.name.canonical_key(), frozenset(row.generators))
        if sig in seen:
            continue
        seen.add(sig)
        if row.components not in checked:
            validate_entry(system, marking, row)
            checked.add(row.components)
        out.append(row)
    return out


def _coerce_name(ambient) -> RealFormName:
    if isinstance(ambient, RealFormName):
        return ambient
    from .hermitian import parse_real_form

    return parse_real_form(str(ambient))


# --------------------------------------------------------------------------
# Inclusion chains


@dataclass(frozen=True)
class ChainStep:
    """One link: the named subalgebra with generators in outermost coordinates."""

    name: RealFormName
    generators: tuple[Vec, ...]
    source: str


@dataclass(frozen=True)
class InclusionChain:
    """Nested catalog steps from the ambient down to the target."""

    ambient: RealFormName
    steps: tuple[ChainStep, ...]

    @property
    def names(self) -> tuple[RealFormName, ...]:
        return (self.ambient,) + tuple(s.name for s in self.steps)

    @property
    def composed_generators(self) -> tuple[Vec, ...]:
        return self.steps[-1].generators if self.steps else ()

    def subsystem(self, system: RootSystem) -> SubrootSystem:
        return span_subsystem(system, self.composed_generators or system.simple_roots)


def inclusion_chains(target, ambient, max_depth: int) -> list[InclusionChain]:
    """All table chains from ambient down to target within max_depth steps.

    Inner Pi-systems are re-expressed in ambient coordinates by positional
    substitution of labeled generators.  Chains are deduplicated on
    (name sequence, generated bottom subsystem).
    """
    target_name = _coerce_name(target)
    ambient_name = _coerce_name(ambient)
    if max_depth < 1:
        raise ParameterOutOfRange("max_depth must be >= 1")
    if target_name == ambient_name:
        return [InclusionChain(ambient=ambient_name, steps=())]
    system, marking = ambient_context(str(ambient_name))
    results: list[InclusionChain] = []
    seen: set = set()
    checked: set = set()

    def expand(current_name: RealFormName, labels: dict[int, Vec], steps: tuple[ChainStep, ...], depth: int):
        if depth >= max_depth:
            return
        try:
            rows = rows_for(current_name, labels)
        except UnsupportedAmbient:
            return
        for row in _validated_rows(system, marking, rows, checked):
            step = ChainStep(name=row.name, generators=row.generators, source=row.source)
            chain_steps = steps + (step,)
            if row.name == target_name:
                chain = InclusionChain(ambient=ambient_name, steps=chain_steps)
                key = (
                    tuple(n.canonical_key() for n in chain.names),
                    chain.subsystem(system).roots,
                )
                if key not in seen:
                    seen.add(key)
                    results.append(chain)
            if row.name.is_simple:
                sub_labels = dict(enumerate(row.components[0][1], start=1))
                expand(_table_name(row.name.components[0]), sub_labels, chain_steps, depth + 1)

    expand(ambient_name, _simple_labels(system), (), 0)
    return results


# --------------------------------------------------------------------------
# Tightness, factor candidates, tube/rank filters


def _simply_laced(name: RealFormName) -> bool:
    return all(c.embeds_in_simply_laced for c in name.components)


def is_tight_inclusion(obj) -> bool:
    """Rank-equality criterion, valid when all roots share one length."""
    if isinstance(obj, CatalogEntry):
        sub, amb = obj.name, obj.ambient
    elif isinstance(obj, InclusionChain):
        amb = obj.ambient
        sub = obj.steps[-1].name if obj.steps else obj.ambient
    else:
        raise RootForgeError("expected a CatalogEntry or InclusionChain")
    if not (_simply_laced(sub) and _simply_laced(amb)):
        raise MixedLengthUnsupported(
            f"tightness criterion needs equal root lengths: {sub} in {amb}"
        )
    return sub.real_rank == amb.real_rank


def sp_factor_candidates(real_rank: int) -> list[tuple[int, ...]]:
    """All multisets {n_i}, n_i >= 1, with sum <= real_rank (descending tuples)."""
    if real_rank < 1:
        raise ParameterOutOfRange("real rank must be >= 1")
    out: set[tuple[int, ...]] = set()

    def rec(remaining: int, cap: int, acc: tuple[int, ...]):
        if acc:
            out.add(acc)
        for n in range(min(cap, remaining), 0, -1):
            rec(remaining - n, n, acc + (n,))

    rec(real_rank, real_rank, ())
    return sorted(out)


def admits_nonholomorphic(candidate: tuple[int, ...]) -> bool:
    """A factor list admits a nonholomorphic tight map iff some n_i >= 2."""
    return any(n >= 2 for n in candidate)


def tube_rank_filter(max_rank: int) -> list[RealFormName]:
    """Simple tube-type Hermitian names of real rank <= max_rank.

    Enumerates the classical families, with so(n,2) reported once as a
    parameterized family.  su(1,1) is included (rank one).
    """
    if max_rank < 1:
        raise ParameterOutOfRange("max_rank must be >= 1")
    out: list[RealFormName] = [form("su", 1, 1)]
    for p in range(2, max_rank + 1):
        out.append(form("su", p, p))
    for p in range(4, 2 * max_rank + 1, 2):
        out.append(form("so*", p))
    for n in range(2, max_rank + 1):
        out.append(form("sp", n))
    if max_rank >= 2:
        out.append(form("so_family"))
    return out


def rank_sum_bound(components, ambient, min_component_rank: int) -> bool:
    """True iff ranks sum within the ambient and each meets the minimum."""
    ambient_name = _coerce_name(ambient)
    comps = [_coerce_name(c) for c in components]
    total = sum(c.real_rank for c in comps)
    if total > ambient_name.real_rank:
        return False
    return all(c.real_rank >= min_component_rank for c in comps)
