"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter violates a documented precondition (bad prime, bad range)."""


class NoSquareRootError(ArithmeticError):
    """Requested a modular square root of a non-residue."""


class InvalidWordError(ValueError):
    """A generator word is not reduced (contains an adjacent inverse pair)."""


class WordLengthError(ValueError):
    """A word or enumeration request exceeds the configured length cap."""


class SingularMatrixError(ArithmeticError):
    """A 2x2 residue matrix is not invertible (determinant not a unit)."""


class InvalidMorphismError(ValueError):
    """Maps passed as a graph morphism do not commute with the structure maps;
    vertex is the source vertex where the check failed (-1: map lengths)."""

    def __init__(self, message, vertex=-1):
        super().__init__(message)
        self.vertex = vertex


class GraphConstructionError(ValueError):
    """Edge data violates the Serre-graph axioms (e.g. an involution fixed point)."""


class VerificationError(RuntimeError):
    """An internal consistency check failed; indicates a bug, never expected."""


class ConvergenceError(RuntimeError):
    """Iterative eigensolver did not reach the requested residual tolerance."""
