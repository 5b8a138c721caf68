"""Finite root systems from Cartan matrices, with exact integer arithmetic.

Roots are stored as integer coefficient vectors over the simple roots, so a
root is just a ``tuple[int, ...]`` of length ``rank``.  The bilinear form is
B = D·A where D is the minimal positive integer symmetrizer of the Cartan
matrix A; every inner product is an exact integer and every Cartan integer
an exact ratio of integers.  No floating point is used anywhere.

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

CLOSURE_BOUND_DEFAULT = 10_000

_FAMILIES = ("A", "B", "C", "D", "E")


def _as_matrix(entries) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in entries)


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
        # Computing the symmetrizer also proves finiteness (positive definite B).
        object.__setattr__(self, "_symmetrizer", _symmetrizer(entries))

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def symmetrizer(self) -> tuple[int, ...]:
        return self._symmetrizer  # type: ignore[attr-defined]

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
            if n < 3:
                raise NotFiniteType("E family needs rank >= 3")
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


def _symmetrizer(a: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Minimal positive integers d with d_i A[i][j] = d_j A[j][i].

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
    dd = tuple(int(x) for x in d)
    b = [[dd[i] * a[i][j] for j in range(n)] for i in range(n)]
    if any(b[i][j] != b[j][i] for i in range(n) for j in range(i)):
        raise NotFiniteType("Cartan matrix is not symmetrizable")
    if not _positive_definite(b):
        raise NotFiniteType("symmetrized Cartan matrix is not positive definite")
    return dd


def _positive_definite(b: list[list[int]]) -> bool:
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

    def require_root(self, v) -> Root:
        r = tuple(int(x) for x in v)
        if r not in self.roots:
            raise NotARoot(f"{r} is not a root of this system")
        return r

    def inner(self, x, y) -> int:
        """<x, y> under B = D·A; exact, integer for integer vectors."""
        a = self.cartan.entries
        d = self.cartan.symmetrizer
        n = self.rank
        total = 0
        for i in range(n):
            xi = x[i]
            if not xi:
                continue
            di = d[i]
            row = a[i]
            total += xi * di * sum(row[j] * y[j] for j in range(n) if y[j])
        return total


def build_root_system(cartan: CartanMatrix, max_roots: int = CLOSURE_BOUND_DEFAULT) -> RootSystem:
    """Close the simple roots under simple reflections.

    For finite type this produces the full root set; if the closure exceeds
    ``max_roots`` the matrix is affine or indefinite and NotFiniteType is
    raised.  (Construction of the CartanMatrix already rejects those, so the
    bound is a backstop for hand-built matrices.)
    """
    n = cartan.rank
    a = cartan.entries
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots: set[Root] = set(simples)
    frontier: list[Root] = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            c = sum(a[i][j] * beta[j] for j in range(n) if beta[j])
            if c == 0:
                continue
            img = list(beta)
            img[i] -= c
            new = tuple(img)
            if new not in roots:
                roots.add(new)
                frontier.append(new)
                if len(roots) > max_roots:
                    raise NotFiniteType(
                        f"reflection closure exceeded {max_roots} roots; "
                        "matrix is not of finite type"
                    )
    roots.update(tuple(-x for x in r) for r in set(roots))
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
    """a_{alpha,beta} = 2<alpha,beta>/<alpha,alpha>, always an integer for roots."""
    a = sys.require_root(alpha)
    b = sys.require_root(beta)
    num = 2 * sys.inner(a, b)
    den = sys.inner(a, a)
    q, r = divmod(num, den)
    if r:
        raise NotARoot(f"non-integral Cartan number for {a}, {b}")
    return q


def reflect(sys: RootSystem, alpha, beta) -> Root:
    """s_alpha(beta) = beta - a_{alpha,beta}·alpha; stays inside the root set."""
    a = sys.require_root(alpha)
    b = sys.require_root(beta)
    c = cartan_integer(sys, a, b)
    img = tuple(bx - c * ax for ax, bx in zip(a, b))
    if img not in sys.roots:
        raise NotARoot(f"reflection left the root set at {img}")
    return img


def simple_reflect(sys: RootSystem, i: int, beta: Root) -> Root:
    """Fast path for s_{alpha_i}; no membership checks."""
    a = sys.cartan.entries[i]
    n = sys.rank
    c = sum(a[j] * beta[j] for j in range(n) if beta[j])
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
            return CartanMatrix.from_family(str(data["family"]), int(data["rank"]))
    except (TypeError, ValueError) as e:
        raise RootForgeError(f"malformed system description: {e}") from None
    raise RootForgeError('system description needs "cartan", or "family" and "rank"')
