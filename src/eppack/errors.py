"""Exception types shared across the toolkit."""


class EPError(Exception):
    """Base class for all toolkit errors."""


class UnknownIdentifier(EPError):
    pass


class WouldCreateLoop(EPError):
    pass


class InvalidParameter(EPError):
    pass


class BudgetExceeded(EPError):
    """An exact search hit its node/enumeration cap; never a wrong answer."""


class InvalidFamily(EPError):
    pass


class InvalidDecomposition(EPError):
    pass


class InvalidPartition(EPError):
    pass


class OracleFailure(EPError):
    pass


class CeilingViolated(EPError):
    """The caller-supplied ceiling is contradicted by the observed parameter."""


class PreconditionViolated(EPError):
    pass


class RoutingFailed(EPError):
    """Routing could not complete although preconditions held; a bug signal."""


class InvariantViolated(EPError):
    """A result broke a guarantee of the construction that made it; a bug signal."""
