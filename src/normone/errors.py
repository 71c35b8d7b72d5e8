"""Exception types shared across the package.

The CLI maps these onto exit codes, so raising the right class matters:
parse and usage errors -> 2, cap overruns -> 3, anything else -> 4.
"""


class NormOneError(Exception):
    """Base class for all errors raised by this package."""


class SpecParseError(NormOneError):
    """A group spec or cycle string could not be parsed."""


class CapExceeded(NormOneError):
    """A configurable size cap (group order, coset count, ...) was hit."""


class UsageError(NormOneError):
    """Input that parses but names nothing to compute, e.g. index 1."""


class NotASubgroupError(NormOneError):
    """Claimed subgroup generators do not lie in the parent group."""


class InternalCheckError(NormOneError):
    """A self-check failed; indicates a bug, not bad user input."""
