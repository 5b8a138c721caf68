"""Finite root systems from Cartan matrices, with exact integer arithmetic.

Roots are stored as integer coefficient vectors over the simple roots, so a
root is just a ``tuple[int, ...]`` of length ``rank``.  The bilinear form is
the Gram matrix B = D·A, D the minimal positive integer symmetrizer of the
Cartan matrix A, computed once and kept.  Every Cartan number is read from
one table, ``RootSystem.cartan_rows``, and one loop, ``reflection_closure``,
builds both root systems and the subsystems of Pi-systems.  No floating
point is used anywhere.

Node numbering conventions for the built-in families (``from_family``):

* A_n: the chain 1 - 2 - ... - n.
* B_n / C_n: the chain 1 - ... - n with the double edge between n-1 and n
  (B: node n short, C: node n long).
* D_n: the chain 1 - ... - (n-1) with node n attached to node n-2.
* E_n: the chain 1 - ... - (n-1) with node n attached to node n-3
  (for E6: branch at 3; for E7: branch at 4).

Systems are immutable after construction and all operations are pure, so
values may be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import NotARoot, NotFiniteType, RootForgeError

Root = tuple[int, ...]

_FAMILIES = ("A", "B", "C", "D", "E")


def strict_int(x) -> int:
    """``x`` as an int; ValueError unless it already has an integer value.

    ``int()`` alone truncates 1.9, parses "1" and overflows on 1e400 (JSON
    reads it as infinity); input files and the command line must not pass
    any of those through.
    """
    try:
        value = int(x)
    except (OverflowError, TypeError, ValueError):
        value = None
    if value is None or value != x:
        raise ValueError(f"not an integer: {x!r}")
    return value


def _as_matrix(entries) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(strict_int(x) for x in row) for row in entries)


@dataclass(frozen=True)
class CartanMatrix:
    """An integer Cartan matrix A with A[i][j] = 2<a_i,a_j>/<a_i,a_i>.

    The matrix must be symmetrizable with positive definite symmetrization;
    anything else (affine or indefinite) is rejected at construction.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        entries = _as_matrix(self.entries)
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise NotFiniteType("Cartan matrix must be square and nonempty")
        for i in range(n):
            if entries[i][i] != 2:
                raise NotFiniteType(f"diagonal entry A[{i}][{i}] must be 2")
            for j in range(n):
                if i == j:
                    continue
                if entries[i][j] not in (0, -1, -2, -3):
                    raise NotFiniteType(f"off-diagonal A[{i}][{j}] out of range")
                if (entries[i][j] == 0) != (entries[j][i] == 0):
                    raise NotFiniteType(f"zero pattern asymmetric at ({i},{j})")
        # Computing B also proves finiteness (positive definite B).
        object.__setattr__(self, "_gram", _gram(entries))

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def symmetrizer(self) -> tuple[int, ...]:
        """d_i = <a_i, a_i>/2, read off the diagonal of B."""
        return tuple(self.gram[i][i] // 2 for i in range(self.rank))

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """B = D·A: B[i][j] = <a_i, a_j>, symmetric and positive definite."""
        return self._gram  # type: ignore[attr-defined]

    @classmethod
    def from_family(cls, family: str, rank: int) -> "CartanMatrix":
        """Build the Cartan matrix of a classical or exceptional family."""
        family = family.upper()
        if family not in _FAMILIES:
            raise NotFiniteType(f"unknown family {family!r}")
        if rank < 1:
            raise NotFiniteType("rank must be positive")
        n = rank
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

        def join(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
            a[i][j] = aij
            a[j][i] = aji

        if family == "A" or (family in "BC" and n == 1):
            for i in range(n - 1):
                join(i, i + 1)
        elif family == "B":
            for i in range(n - 2):
                join(i, i + 1)
            join(n - 2, n - 1, -1, -2)
        elif family == "C":
            for i in range(n - 2):
                join(i, i + 1)
            join(n - 2, n - 1, -2, -1)
        elif family == "D":
            if n == 1:
                pass
            elif n == 2:
                pass  # A1 x A1, no edges
            else:
                for i in range(n - 2):
                    join(i, i + 1)
                join(n - 3, n - 1)
        else:  # E
            if n < 4:
                raise NotFiniteType("E family needs rank >= 4")
            for i in range(n - 2):
                join(i, i + 1)
            join(n - 4, n - 1)
        return cls(entries=tuple(tuple(row) for row in a))


def components(n: int, adjacent) -> list[list[int]]:
    """Connected components of the graph on nodes 0..n-1.

    ``adjacent(i, j)`` is the edge test.  Components come in order of their
    smallest node; each lists its nodes in discovery order, so every node
    after the first is adjacent to an earlier one.
    """
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for i in comp:
            for j in range(n):
                if not seen[j] and adjacent(i, j):
                    seen[j] = True
                    comp.append(j)
        out.append(comp)
    return out


def rational_solve(columns, target) -> tuple[Fraction, ...] | None:
    """Solve sum x_k columns[k] = target exactly; None when inconsistent.

    Columns are integer vectors; target entries are ints or Fractions.
    This is the one Gaussian elimination of the package.  It runs
    fraction-free (Bareiss) Gauss-Jordan on integers: after each pivot every
    entry is a minor of the scaled input, so the division by the previous
    pivot is exact.  When the columns are linearly dependent, free unknowns
    are set to 0.
    """
    n = len(target)
    k = len(columns)
    # ints and Fractions both carry numerator and denominator
    scale = math.lcm(*(t.denominator for t in target))
    m = [
        [int(columns[c][r]) for c in range(k)]
        + [target[r].numerator * (scale // target[r].denominator)]
        for r in range(n)
    ]
    pivots: list[tuple[int, int]] = []
    row = 0
    prev = 1
    for col in range(k):
        p = next((r for r in range(row, n) if m[r][col]), None)
        if p is None:
            continue
        m[row], m[p] = m[p], m[row]
        pivot_row = m[row]
        pv = pivot_row[col]
        for r in range(n):
            if r != row:
                f = m[r][col]
                m[r] = [(pv * a - f * b) // prev for a, b in zip(m[r], pivot_row)]
        pivots.append((row, col))
        prev = pv
        row += 1
    if any(m[r][k] for r in range(row, n)):
        return None
    sol = [Fraction(0)] * k
    for r, c in pivots:
        sol[c] = Fraction(m[r][k], m[r][c] * scale)
    return tuple(sol)


def _gram(a: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """B = D·A for the minimal positive integers d with d_i A[i][j] = d_j A[j][i].

    Raises NotFiniteType when no consistent symmetrizer exists or when the
    symmetrized matrix fails to be positive definite.
    """
    n = len(a)
    d = [Fraction(0)] * n
    for comp in components(n, lambda i, j: a[i][j] != 0):
        d[comp[0]] = Fraction(1)
        for j in comp[1:]:
            i = next(i for i in comp if d[i] and a[i][j])
            d[j] = d[i] * Fraction(a[i][j], a[j][i])
        # clear denominators and common factors within the component
        denom = math.lcm(*(d[i].denominator for i in comp))
        g = math.gcd(*(int(d[i] * denom) for i in comp))
        for i in comp:
            d[i] = d[i] * denom / g
    b = tuple(tuple(int(d[i]) * x for x in a[i]) for i in range(n))
    if any(b[i][j] != b[j][i] for i in range(n) for j in range(i)):
        raise NotFiniteType("Cartan matrix is not symmetrizable")
    if not _positive_definite(b):
        raise NotFiniteType("symmetrized Cartan matrix is not positive definite")
    return b


def _positive_definite(b) -> bool:
    """Sylvester's test on a symmetric integer matrix, one pivot at a time.

    The k-th pivot B[k][k] - b_k . B_{<k}^{-1} b_k is the ratio of the k-th
    and (k-1)-th leading principal minors; all of them must be positive.
    Each earlier pivot being positive makes B_{<k} invertible.
    """
    for k in range(len(b)):
        bk = b[k][:k]
        x = rational_solve([row[:k] for row in b[:k]], bk)
        if b[k][k] - sum(xi * bi for xi, bi in zip(x, bk)) <= 0:
            return False
    return True


@dataclass(frozen=True)
class RootSystem:
    """A finite root system: the closure of the simple roots under reflection.

    ``roots`` contains coefficient vectors over the simple roots.  The set is
    closed under negation and under every reflection s_a, a in roots.
    """

    cartan: CartanMatrix
    roots: frozenset[Root]

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(sorted(r for r in self.roots if is_positive(r)))

    @cached_property
    def simple_roots(self) -> tuple[Root, ...]:
        n = self.rank
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    def simple(self, i: int) -> Root:
        return self.simple_roots[i]

    @cached_property
    def highest_root(self) -> Root:
        return max(self.positive_roots, key=lambda r: (sum(r), r))

    def __contains__(self, v) -> bool:
        return tuple(v) in self.roots

    @cached_property
    def _stored(self) -> dict[Root, Root]:
        return {r: r for r in self.roots}

    def require_root(self, v) -> Root:
        """The stored root equal to ``v``; NotARoot for anything else.

        One dict lookup, no per-coordinate conversion: integer-valued
        entries (1.0, Fraction(2)) compare equal to the stored ints and give
        the stored tuple, while 1.9, "1" and unhashable entries match no
        root, as ``strict_int`` rejects them.
        """
        try:
            r = self._stored.get(tuple(v))
        except TypeError:  # not iterable, or an unhashable entry
            r = None
        if r is None:
            raise NotARoot(f"{v!r} is not a root of this system")
        return r

    def inner(self, x, y) -> int:
        """<x, y> under the stored Gram matrix B = D·A; exact."""
        total = 0
        for xi, row in zip(x, self.cartan.gram):
            if xi:
                total += xi * sum(b * yj for b, yj in zip(row, y) if yj)
        return total

    @cached_property
    def cartan_rows(self) -> dict[Root, tuple[int, ...]]:
        """Each root g -> its row (<alpha_j, g^vee>)_j = (2<alpha_j, g>/<g, g>)_j.

        <beta, g^vee> is the row dotted with beta; alpha_i's row is row i of A.
        """
        gram = self.cartan.gram
        rows = {}
        for g in self.roots:
            bg = [sum(b * x for b, x in zip(row, g) if x) for row in gram]
            norm = sum(x * y for x, y in zip(g, bg))
            if any(2 * v % norm for v in bg):
                raise NotARoot(f"non-integral Cartan number for {g}")
            rows[g] = tuple(2 * v // norm for v in bg)
        return rows


def reflection_closure(pairs, max_roots: int) -> set[Root]:
    """Close the roots g of ``pairs`` under their own reflections s_g.

    Each pair is a root g with its Cartan row (<alpha_j, g^vee>)_j, so
    s_g(beta) = beta - (row . beta) g; only the nonzero coordinates of g
    change.  Raises NotFiniteType once the closure passes ``max_roots``.
    """
    moves = [(row, [(j, x) for j, x in enumerate(g) if x]) for g, row in pairs]
    frontier = [g for g, _ in pairs]
    roots = set(frontier)
    while frontier:
        beta = frontier.pop()
        for row, support in moves:
            c = sum(x * b for x, b in zip(row, beta) if b)
            if c == 0:
                continue
            img = list(beta)
            for j, x in support:
                img[j] -= c * x
            new = tuple(img)
            if new not in roots:
                roots.add(new)
                frontier.append(new)
                if len(roots) > max_roots:
                    raise NotFiniteType(
                        f"reflection closure exceeded {max_roots} roots; "
                        "matrix is not of finite type"
                    )
    return roots


def _closure_bound(rank: int) -> int:
    """2n^2 + 240, at least |Phi| for every finite root system of rank n.

    A component of rank m has at most 2m^2 roots (A_m: m(m+1), B_m and C_m:
    2m^2, D_m: 2m(m-1), E6: 72), except G2, F4, E7 and E8, which exceed 2m^2
    by e = 4, 16, 28 and 112 <= 2m^2.  Ranks m_1 + ... + m_k = n give
    2n^2 = sum 2m_i^2 + 4 sum_{i<j} m_i m_j.  Let c be the component of
    largest excess; e grows with m, so every other exceptional component j
    has m_j <= m_c and e_j <= 2m_j^2 <= 4 m_c m_j, a cross term of 2n^2.
    Hence |Phi| <= 2n^2 + e_c <= 2n^2 + 112.
    """
    return 2 * rank * rank + 240


def build_root_system(cartan: CartanMatrix, max_roots: int | None = None) -> RootSystem:
    """Close the simple roots, with the rows of A, under simple reflections.

    Every root is W-conjugate to a simple root, and s_i(alpha_i) = -alpha_i,
    so the closure is the whole root set.  ``max_roots`` is a backstop,
    ``_closure_bound(rank)`` by default: the CartanMatrix constructor
    already rejects affine and indefinite types.
    """
    if max_roots is None:
        max_roots = _closure_bound(cartan.rank)
    simples = [tuple(int(j == i) for j in range(cartan.rank)) for i in range(cartan.rank)]
    roots = reflection_closure(list(zip(simples, cartan.entries)), max_roots)
    return RootSystem(cartan=cartan, roots=frozenset(roots))


def is_positive(root) -> bool:
    """True iff the root has all coefficients >= 0 (and is nonzero)."""
    any_pos = False
    for x in root:
        if x < 0:
            return False
        if x > 0:
            any_pos = True
    return any_pos


def cartan_integer(sys: RootSystem, alpha, beta) -> int:
    """a_{alpha,beta} = 2<alpha,beta>/<alpha,alpha> = <beta, alpha^vee>, an integer."""
    a = sys.require_root(alpha)
    b = sys.require_root(beta)
    return sum(x * y for x, y in zip(sys.cartan_rows[a], b) if y)


def reflect(sys: RootSystem, alpha, beta) -> Root:
    """s_alpha(beta) = beta - a_{alpha,beta}·alpha; stays inside the root set."""
    a = sys.require_root(alpha)
    b = sys.require_root(beta)
    c = sum(x * y for x, y in zip(sys.cartan_rows[a], b) if y)
    img = tuple(bx - c * ax for ax, bx in zip(a, b))
    if img not in sys.roots:
        raise NotARoot(f"reflection left the root set at {img}")
    return img


def simple_reflect(sys: RootSystem, i: int, beta: Root) -> Root:
    """Fast path for s_{alpha_i}; no membership checks."""
    c = sum(x * b for x, b in zip(sys.cartan.entries[i], beta) if b)
    if c == 0:
        return beta
    img = list(beta)
    img[i] -= c
    return tuple(img)


@lru_cache(maxsize=None)
def family_system(family: str, rank: int) -> RootSystem:
    """Cached root system for a named family; systems are immutable."""
    return build_root_system(CartanMatrix.from_family(family, rank))


def system_from_json(data) -> CartanMatrix:
    """Read the structured-text schema: {"family": .., "rank": ..} or {"cartan": [[..]]}."""
    try:
        if "cartan" in data:
            return CartanMatrix(entries=_as_matrix(data["cartan"]))
        if "family" in data and "rank" in data:
            return CartanMatrix.from_family(str(data["family"]), strict_int(data["rank"]))
    except (TypeError, ValueError) as e:
        raise RootForgeError(f"malformed system description: {e}") from None
    raise RootForgeError('system description needs "cartan", or "family" and "rank"')
