"""Hermitian markings and symbolic real-form names.

A Hermitian marking singles out one simple root as noncompact.  The central
element Z of the maximal compact subalgebra is never materialized: for an
irreducible Hermitian system the marked coefficient of every root lies in
{-1, 0, 1}, and a root is compact exactly when that coefficient is 0.  The
marking constructor checks this invariant and rejects markings that violate
it (for example the branch node of E7, where the highest root has
coefficient 4).

Real forms are symbolic records carrying rank and tube-type attributes, not
constructions of the algebras themselves.  Name equality identifies the
standard low-rank isomorphisms (su(2,2) = so(4,2), su(1,3) = so*(6),
so*(8) = so(6,2), sp(2,R) = su(1,1) = so(1,2), sp(4,R) = so(3,2)).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .errors import (
    InvalidMarking,
    MultipleNoncompact,
    NotHermitianNode,
    RootForgeError,
)
from .rootsys import RootSystem, cartan_integer, components


class RootClass(enum.Enum):
    COMPACT = "compact"
    NONCOMPACT_POSITIVE = "noncompact+"
    NONCOMPACT_NEGATIVE = "noncompact-"


@dataclass(frozen=True)
class HermitianMarking:
    """A root system with a distinguished noncompact simple root."""

    system: RootSystem
    nc_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.nc_index < self.system.rank:
            raise InvalidMarking(f"nc_index {self.nc_index} out of range")
        for r in self.system.roots:
            if r[self.nc_index] not in (-1, 0, 1):
                raise InvalidMarking(
                    f"root {r} has marked coefficient {r[self.nc_index]}; "
                    "marking is not Hermitian"
                )


def classify_root(m: HermitianMarking, root) -> RootClass:
    r = m.system.require_root(root)
    c = r[m.nc_index]
    if c == 0:
        return RootClass.COMPACT
    return RootClass.NONCOMPACT_POSITIVE if c == 1 else RootClass.NONCOMPACT_NEGATIVE


# --------------------------------------------------------------------------
# Symbolic real-form names


@dataclass(frozen=True)
class FamilyFacts:
    """Per-family facts of a simple Hermitian form."""

    real_rank: int
    tube_type: bool
    embeds_in_simply_laced: bool
    root_count: int | None  # roots of the complexification; None for so(n,2)


# One entry per canonical-key tag, called with the key's parameters.
# so(p,2) counts the D_k roots of the table's even-p labeling, k = (p+2)//2.
_FAMILY_FACTS = {
    "A": lambda p, q: FamilyFacts(p, p == q, True, (p + q - 1) * (p + q)),
    "C": lambda n: FamilyFacts(n, True, False, 2 * n * n),
    "Dstar": lambda p: FamilyFacts(p // 2, p % 2 == 0, True, 2 * p * (p - 1)),
    "D4": lambda: FamilyFacts(2, True, True, 24),
    "SO": lambda p: FamilyFacts(2, True, p % 2 == 0, 2 * ((p + 2) // 2) * (p // 2)),
    "E6": lambda: FamilyFacts(2, False, True, 72),
    "E7": lambda: FamilyFacts(3, True, True, 126),
    "SOFAM": lambda: FamilyFacts(2, True, False, None),
}


@dataclass(frozen=True)
class SimpleForm:
    """One simple Hermitian factor: su(p,q), so*(2p), so(p,2), sp(2n,R), e6, e7.

    ``family`` is one of 'su', 'so*', 'so', 'sp', 'e6', 'e7', 'so_family'
    (the last prints as the parameterized family so(n,2)).
    """

    family: str
    a: int = 0
    b: int = 0

    def __post_init__(self) -> None:
        if self.family == "su":
            if self.a < 1 or self.b < 1:
                raise RootForgeError("su parameters must be positive")
            if self.a > self.b:
                a0, b0 = self.a, self.b
                object.__setattr__(self, "a", b0)
                object.__setattr__(self, "b", a0)
        elif self.family == "so*":
            if self.a < 3:
                raise RootForgeError("so*(2p) requires p >= 3")
        elif self.family == "so":
            if self.a < 1 or self.b != 2:
                raise RootForgeError("so form must be so(p,2), p >= 1")
            if self.a == 2:
                raise RootForgeError("so(2,2) is not simple")
        elif self.family == "sp":
            if self.a < 1:
                raise RootForgeError("sp(2n,R) requires n >= 1")
        elif self.family in ("e6", "e7", "so_family"):
            pass
        else:
            raise RootForgeError(f"unknown family {self.family!r}")

    def canonical_key(self) -> tuple:
        f, p, q = self.family, self.a, self.b
        if f == "su":
            lo, hi = min(p, q), max(p, q)
            return ("A", lo, hi)
        if f == "sp":
            return ("A", 1, 1) if p == 1 else ("C", p)
        if f == "so*":
            if p == 3:
                return ("A", 1, 3)
            if p == 4:
                return ("D4",)
            return ("Dstar", p)
        if f == "so":
            if p == 1:
                return ("A", 1, 1)
            if p == 3:
                return ("C", 2)
            if p == 4:
                return ("A", 2, 2)
            if p == 6:
                return ("D4",)
            return ("SO", p)
        if f == "e6":
            return ("E6",)
        if f == "e7":
            return ("E7",)
        return ("SOFAM",)

    @property
    def facts(self) -> FamilyFacts:
        tag, *params = self.canonical_key()
        return _FAMILY_FACTS[tag](*params)

    @property
    def real_rank(self) -> int:
        return self.facts.real_rank

    @property
    def tube_type(self) -> bool:
        return self.facts.tube_type

    @property
    def embeds_in_simply_laced(self) -> bool:
        """False for forms with two root lengths (so(odd,2), sp, so(3,2)),
        which cannot occur as regular subalgebras of simply-laced systems."""
        return self.facts.embeds_in_simply_laced

    def __str__(self) -> str:
        f = self.family
        if f == "su":
            return f"su({self.a},{self.b})"
        if f == "so*":
            return f"so*({2 * self.a})"
        if f == "so":
            return f"so({self.a},2)"
        if f == "sp":
            return f"sp({2 * self.a},R)"
        if f == "e6":
            return "e6(-14)"
        if f == "e7":
            return "e7(-25)"
        return "so(n,2)"


class RealFormName:
    """A direct sum of simple Hermitian factors.

    Display keeps the construction order; equality and hashing use sorted
    canonical keys so the standard low-rank isomorphisms are identified.
    """

    __slots__ = ("components",)

    def __init__(self, components) -> None:
        comps = tuple(components)
        if not comps:
            raise RootForgeError("real form needs at least one component")
        for c in comps:
            if not isinstance(c, SimpleForm):
                raise RootForgeError("components must be SimpleForm values")
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RealFormName is immutable")

    @property
    def is_simple(self) -> bool:
        return len(self.components) == 1

    def canonical_key(self) -> tuple:
        return tuple(sorted(c.canonical_key() for c in self.components))

    @property
    def real_rank(self) -> int:
        return sum(c.real_rank for c in self.components)

    @property
    def tube_type(self) -> bool:
        return all(c.tube_type for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealFormName):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __str__(self) -> str:
        return "+".join(str(c) for c in self.components)

    def __repr__(self) -> str:
        return f"RealFormName({self})"


def form(family: str, a: int = 0, b: int = 0) -> RealFormName:
    return RealFormName((SimpleForm(family, a, b),))


_SIMPLE_RE = re.compile(
    r"""^(?:
        su\((?P<p>\d+),(?P<q>\d+)\) |
        so\*\((?P<dstar>\d+)\) |
        so\((?P<so_p>\d+),2\) |
        so\(n,2\) |
        sp\((?P<sp>\d+),R\) |
        e6\(-14\) |
        e7\(-25\)
    )$""",
    re.VERBOSE,
)


def parse_real_form(text: str) -> RealFormName:
    """Parse the canonical string form, sums joined by '+'."""
    comps = []
    for part in text.replace(" ", "").split("+"):
        m = _SIMPLE_RE.match(part)
        if not m:
            raise RootForgeError(f"cannot parse real form {part!r}")
        if part.startswith("su("):
            comps.append(SimpleForm("su", int(m.group("p")), int(m.group("q"))))
        elif part.startswith("so*("):
            d = int(m.group("dstar"))
            if d % 2:
                raise RootForgeError("so*(2p) needs an even argument")
            comps.append(SimpleForm("so*", d // 2))
        elif part == "so(n,2)":
            comps.append(SimpleForm("so_family"))
        elif part.startswith("so("):
            comps.append(SimpleForm("so", int(m.group("so_p")), 2))
        elif part.startswith("sp("):
            d = int(m.group("sp"))
            if d % 2:
                raise RootForgeError("sp(2n,R) needs an even argument")
            comps.append(SimpleForm("sp", d // 2))
        elif part == "e6(-14)":
            comps.append(SimpleForm("e6"))
        else:
            comps.append(SimpleForm("e7"))
    return RealFormName(comps)


# --------------------------------------------------------------------------
# Naming a marked basis


def name_real_form(system: RootSystem, basis, marks) -> RealFormName:
    """Name the real form defined by a marked Dynkin basis.

    ``basis`` is a list of roots forming a finite-type diagram (pairwise
    Cartan integers <= 0), ``marks`` the classify_root value per element.
    Each connected component must contain exactly one noncompact root.
    """
    basis = [system.require_root(b) for b in basis]
    marks = list(marks)
    if len(marks) != len(basis):
        raise RootForgeError("one mark per basis element required")
    n = len(basis)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if system.inner(basis[i], basis[j]) != 0:
                adj[i][j] = adj[j][i] = True
    comps = [sorted(c) for c in components(n, lambda i, j: adj[i][j])]
    forms = []
    for comp in comps:
        nc = [i for i in comp if marks[i] is not RootClass.COMPACT]
        if len(nc) > 1:
            raise MultipleNoncompact(
                f"component {[basis[i] for i in comp]} has {len(nc)} noncompact nodes"
            )
        if not nc:
            raise NotHermitianNode(
                f"component {[basis[i] for i in comp]} has no noncompact node"
            )
        forms.append(_name_component(system, basis, adj, comp, nc[0]))
    return RealFormName(forms)


def _name_component(system, basis, adj, comp, marked) -> SimpleForm:
    n = len(comp)
    if n == 1:
        return SimpleForm("su", 1, 1)
    deg = {i: sum(1 for j in comp if adj[i][j]) for i in comp}
    multi = [
        (i, j)
        for i in comp
        for j in comp
        if i < j and adj[i][j]
        and cartan_integer(system, basis[i], basis[j])
        * cartan_integer(system, basis[j], basis[i]) >= 2
    ]
    branch = [i for i in comp if deg[i] >= 3]
    if len(branch) > 1 or any(deg[i] > 3 for i in comp):
        raise NotHermitianNode("diagram is not of finite type A/D/E/B/C")

    if multi:
        return _name_multiedge(system, basis, adj, comp, deg, marked, multi)

    if not branch:
        # type A: walk the chain from one end
        chain = _chain_order(adj, comp)
        pos = chain.index(marked) + 1
        return SimpleForm("su", min(pos, n + 1 - pos), max(pos, n + 1 - pos))

    b = branch[0]
    arms = []
    for first in (j for j in comp if adj[b][j]):
        arm = [first]
        prev, cur = b, first
        while True:
            nxt = [j for j in comp if adj[cur][j] and j != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            arm.append(cur)
        arms.append(arm)
    lengths = sorted(len(a) for a in arms)
    if lengths[0] == 1 and lengths[1] == 1:
        # type D_n, n = len(comp)
        if n == 4:
            # all three arms have length 1; any outer node is Hermitian
            if marked == b:
                raise NotHermitianNode("branch node of D4 is not Hermitian")
            return SimpleForm("so", 6, 2)
        long_arm = max(arms, key=len)
        fork_ends = [a[0] for a in arms if len(a) == 1]
        if marked == long_arm[-1]:
            return SimpleForm("so", 2 * n - 2, 2)
        if marked in fork_ends:
            return SimpleForm("so*", n)
        raise NotHermitianNode("interior D-node cannot carry a Hermitian structure")
    if lengths == [1, 2, 2]:
        two_arm_ends = [a[-1] for a in arms if len(a) == 2]
        if marked in two_arm_ends:
            return SimpleForm("e6")
        raise NotHermitianNode("only the ends of the length-2 arms of E6 are Hermitian")
    if lengths == [1, 2, 3]:
        three_arm = max(arms, key=len)
        if marked == three_arm[-1]:
            return SimpleForm("e7")
        raise NotHermitianNode("only the end of the length-3 arm of E7 is Hermitian")
    if lengths == [1, 2, 4]:
        raise NotHermitianNode("E8 carries no Hermitian structure")
    raise NotHermitianNode("diagram is not of finite type")


def _name_multiedge(system, basis, adj, comp, deg, marked, multi) -> SimpleForm:
    if len(multi) != 1 or any(deg[i] >= 3 for i in comp):
        raise NotHermitianNode("F4/G2-type diagrams carry no Hermitian structure")
    chain = _chain_order(adj, comp)
    n = len(chain)
    ends = {chain[0], chain[-1]}
    norms = {k: system.inner(basis[k], basis[k]) for k in comp}
    long_norm = max(norms.values())
    longs = [k for k in comp if norms[k] == long_norm]
    shorts = [k for k in comp if norms[k] != long_norm]
    if len(longs) == 1 and longs[0] in ends:
        # type C_n: unique long root at a chain end
        if marked == longs[0]:
            return SimpleForm("sp", n)
        raise NotHermitianNode("only the long end of C_n is Hermitian")
    if len(shorts) == 1 and shorts[0] in ends:
        # type B_n: unique short root at a chain end; marked long end -> so(2n-1,2)
        far_end = chain[0] if chain[-1] == shorts[0] else chain[-1]
        if marked == far_end:
            return SimpleForm("so", 2 * n - 1, 2)
        raise NotHermitianNode("only the long end of B_n is Hermitian")
    raise NotHermitianNode("diagram is not of finite type")


def _chain_order(adj, comp) -> list[int]:
    deg = {i: sum(1 for j in comp if adj[i][j]) for i in comp}
    start = min(i for i in comp if deg[i] <= 1)
    order = [start]
    prev = None
    cur = start
    while len(order) < len(comp):
        nxt = [j for j in comp if adj[cur][j] and j != prev]
        if not nxt:
            raise NotHermitianNode("disconnected component in chain walk")
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order


def real_rank(name: RealFormName) -> int:
    return name.real_rank


def is_tube_type(name: RealFormName) -> bool:
    return name.tube_type
