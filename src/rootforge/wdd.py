"""Weighted Dynkin diagrams of Cartan elements.

An element H of the real Cartan form is stored by its exact rational
coordinates c over the simple coroots H_j; its weighted diagram is the
vector of values w_i = a_i(H) on the simple roots.  Since
a_i(H_j) = 2<a_i,a_j>/<a_j,a_j>, the two coordinate systems are related by
the transpose Cartan matrix, an exact linear bijection.

Reflection at node i acts on weights by w_i -> -w_i and
w_j -> w_j - w_i * a(j,i) for j != i, where a(j,i) = a_j(H_i).
Dominantization reflects at the lowest-index negative entry until all
entries are nonnegative; the endpoint is the unique dominant representative
of the Weyl orbit, so the strategy does not affect the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IncompleteEmbedding, NonTraceless, RootForgeError
from .rootsys import Root, RootSystem, family_system, rational_solve


def _fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class CorootVector:
    """H = sum_j coords[j] * H_j over the simple coroots."""

    system: RootSystem
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = _fractions(self.coords)
        if len(coords) != self.system.rank:
            raise RootForgeError("coroot vector length must equal the rank")
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True)
class WeightedDiagram:
    """weights[i] = a_i(H) for the diagram's underlying Cartan element."""

    system: RootSystem
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        weights = _fractions(self.weights)
        if len(weights) != self.system.rank:
            raise RootForgeError("weight vector length must equal the rank")
        object.__setattr__(self, "weights", weights)

    def is_dominant(self) -> bool:
        return all(w >= 0 for w in self.weights)


def weights_of(h: CorootVector) -> WeightedDiagram:
    """w_i = sum_j c_j * a_i(H_j); exact."""
    a = h.system.cartan.entries
    n = h.system.rank
    w = tuple(
        sum((h.coords[j] * a[j][i] for j in range(n)), Fraction(0)) for i in range(n)
    )
    return WeightedDiagram(system=h.system, weights=w)


def coroot_of_weights(w: WeightedDiagram) -> CorootVector:
    """Exact inverse of weights_of: solve A^T c = w.

    Column j of A^T is row j of A; a finite-type Cartan matrix is
    invertible, so the solution exists and is unique.
    """
    coords = rational_solve(w.system.cartan.entries, w.weights)
    return CorootVector(system=w.system, coords=coords)


def reflect_weights(w: WeightedDiagram, i: int) -> WeightedDiagram:
    """Simple reflection at node i acting on a weight vector."""
    a = w.system.cartan.entries
    n = w.system.rank
    wi = w.weights[i]
    new = tuple(
        -wi if j == i else w.weights[j] - wi * a[i][j] for j in range(n)
    )
    return WeightedDiagram(system=w.system, weights=new)


def dominate(w: WeightedDiagram) -> tuple[WeightedDiagram, tuple[Root, ...]]:
    """Dominant representative plus the word of simple reflections used.

    Applying the returned word left-to-right to ``w`` gives the dominant
    diagram; reflections are involutions, so the reversed word carries it
    back.
    """
    current = w
    word: list[Root] = []
    while True:
        i = next((k for k, x in enumerate(current.weights) if x < 0), None)
        if i is None:
            return current, tuple(word)
        current = reflect_weights(current, i)
        word.append(w.system.simple(i))


def scale(w: WeightedDiagram, k: int) -> WeightedDiagram:
    if k <= 0:
        raise RootForgeError("scale factor must be a positive integer")
    return WeightedDiagram(system=w.system, weights=tuple(x * k for x in w.weights))


def sl2_admissible(w: WeightedDiagram) -> bool:
    """Necessary condition for w to come from an sl2 homomorphism:
    every entry of the dominant representative lies in {0, 1, 2}."""
    dom, _ = dominate(w)
    return all(x in (0, 1, 2) for x in dom.weights)


def decompose_diagonal(diag, system: RootSystem | None = None) -> CorootVector:
    """Express diag(d) over the positional simple coroots of type A.

    The i-th positional coroot is diag(0,..,1,-1,..,0); the coordinates are
    the partial sums of d.  Requires sum(d) = 0.  By default the result
    lives in the A_{len(d)-1} system.
    """
    d = [Fraction(x) for x in diag]
    if sum(d) != 0:
        raise NonTraceless(f"diagonal {diag} does not sum to zero")
    if len(d) < 2:
        raise RootForgeError("diagonal needs at least two entries")
    if system is None:
        system = family_system("A", len(d) - 1)
    if system.rank != len(d) - 1:
        raise RootForgeError("system rank must be len(diag) - 1")
    partial = []
    acc = Fraction(0)
    for x in d[:-1]:
        acc += x
        partial.append(acc)
    return CorootVector(system=system, coords=tuple(partial))


def coroot_vector(system: RootSystem, beta) -> CorootVector:
    """The coroot of a root, in simple-coroot coordinates.

    beta-check = 2*beta/<beta,beta>; coordinatewise this rescales each
    coefficient by <a_i,a_i>/<beta,beta>, the identity in simply-laced
    systems.
    """
    b = system.require_root(beta)
    nb = system.inner(b, b)
    d = system.cartan.symmetrizer
    coords = tuple(Fraction(b[i] * 2 * d[i], nb) for i in range(system.rank))
    return CorootVector(system=system, coords=coords)


def push_coroot(embedding, h) -> CorootVector:
    """Extend an embedding of simple coroots linearly: sum_j h_j * embedding[j].

    ``embedding`` maps each sub simple-coroot index to an ambient
    CorootVector; ``h`` is a sub CorootVector or a plain coordinate sequence.
    """
    coords = h.coords if isinstance(h, CorootVector) else _fractions(h)
    images: list[CorootVector] = []
    for j in range(len(coords)):
        try:
            img = embedding[j]
        except (IndexError, KeyError):
            raise IncompleteEmbedding(f"no image for sub coroot {j}") from None
        images.append(img)
    if not images:
        raise IncompleteEmbedding("empty embedding")
    system = images[0].system
    n = system.rank
    out = [Fraction(0)] * n
    for c, img in zip(coords, images):
        if img.system is not system:
            raise IncompleteEmbedding("embedding images live in different systems")
        for i in range(n):
            out[i] += c * img.coords[i]
    return CorootVector(system=system, coords=tuple(out))


def embedding_from_basis(system: RootSystem, basis) -> list[CorootVector]:
    """Coroot embedding read off a regular subalgebra's Pi-system basis."""
    return [coroot_vector(system, b) for b in basis]


def format_weights(w: WeightedDiagram, branch: bool | None = None) -> str:
    """Render weights as chain entries, then ';' and the branch entry.

    The branch node is the last one for the built-in D/E numbering; pass
    branch=False to force a flat comma layout.
    """
    vals = [str(int(x)) if x.denominator == 1 else str(x) for x in w.weights]
    if branch is None:
        a = w.system.cartan.entries
        n = w.system.rank
        last_edges = [j for j in range(n - 1) if a[n - 1][j] != 0]
        branch = n >= 3 and last_edges != [n - 2]
    if branch and len(vals) >= 2:
        return ",".join(vals[:-1]) + ";" + vals[-1]
    return ",".join(vals)
