"""Exception types shared across the package."""


class SignforgeError(Exception):
    """Base class for all package errors."""


class ParseError(SignforgeError):
    """Malformed .sg or .rot input."""


class UnknownVertexError(SignforgeError):
    """A vertex token that does not belong to the graph."""


class NotACycleError(SignforgeError):
    """An edge sequence that is not a cycle of the host graph."""


class GuardExceeded(SignforgeError):
    """A size guard refused the computation (override with SIGNFORGE_GUARD_OVERRIDE=1)."""


class CycleCapExceeded(GuardExceeded):
    """Cycle enumeration hit the configured cap."""


class PreconditionError(SignforgeError):
    """An operation was called on inputs violating its stated precondition."""


class EmbeddingError(SignforgeError):
    """A malformed rotation system, or an Euler-formula violation."""


class TheoremViolation(SignforgeError):
    """A computed instance contradicts a proved statement (a counterexample
    or, far likelier, a bug)."""
