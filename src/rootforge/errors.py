"""Exception hierarchy for rootforge.

Every failure mode of the library raises a subclass of RootForgeError so
callers (and the CLI) can distinguish usage errors from verification
failures.
"""

from __future__ import annotations


class RootForgeError(Exception):
    """Base class for all rootforge errors."""


class NotFiniteType(RootForgeError):
    """The Cartan matrix does not define a finite root system."""


class NotARoot(RootForgeError):
    """A vector claimed to be a root is not in the system's root set."""


class InvalidMarking(RootForgeError):
    """The marked simple root does not induce a Hermitian structure."""


class NotHermitianNode(RootForgeError):
    """The marked node of a diagram cannot carry a Hermitian structure."""


class MultipleNoncompact(RootForgeError):
    """A diagram component has more than one noncompact node."""


class LinearlyDependent(RootForgeError):
    """Generators are linearly dependent; carries a witness combination."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(f"linearly dependent generators, witness {self.witness}")


class DifferenceIsRoot(RootForgeError):
    """Two generators differ by a root; carries the offending pair."""

    def __init__(self, alpha, beta):
        self.alpha = tuple(alpha)
        self.beta = tuple(beta)
        super().__init__(f"difference of {self.alpha} and {self.beta} is a root")


class SearchBudgetExceeded(RootForgeError):
    """Weyl orbit search exceeded its state budget.

    ``explored`` counts the states seen, ``depth`` is the breadth-first
    depth of the last one, and ``frontier`` counts the states queued but not
    yet expanded when the search stopped.
    """

    def __init__(self, explored: int, depth: int, frontier: int):
        self.explored = explored
        self.depth = depth
        self.frontier = frontier
        super().__init__(
            f"search budget exceeded after {explored} states, "
            f"at depth {depth} with {frontier} states in the frontier"
        )


class NonTraceless(RootForgeError):
    """Diagonal entries do not sum to zero."""


class IncompleteEmbedding(RootForgeError):
    """A coroot embedding is missing an image for some simple coroot."""


class UnsupportedAmbient(RootForgeError):
    """No catalog table exists for the requested ambient real form."""


class ParameterOutOfRange(RootForgeError):
    """Catalog parameters outside the valid range for the family."""


class MixedLengthUnsupported(RootForgeError):
    """Tightness criterion requires all roots of equal length."""


class TableValidationError(RootForgeError):
    """A catalog row failed one of its structural invariants."""
