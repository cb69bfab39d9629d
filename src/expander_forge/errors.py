"""Exception types shared across the package: one per failing exit code."""


class InvalidParameterError(ValueError):
    """An input violates a documented precondition: a bad prime or range, a
    non-residue, an unreduced word, a length over its cap, a singular
    matrix or edge data that is not a Serre graph.  The CLI exits 2."""


class VerificationError(RuntimeError):
    """A check of the program's own output failed, or a solve did not
    converge; indicates a bug, never expected.  The CLI exits 4."""
