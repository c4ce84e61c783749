"""Typed errors shared across the package."""


class HyperlabError(Exception):
    """Base class for all errors raised by this package."""


class ArityError(HyperlabError, ValueError):
    """An operation received the wrong number of arguments."""


class UnknownElementError(HyperlabError, ValueError):
    """An argument is not an element of the carrier."""


class EmptyArgumentError(HyperlabError, ValueError):
    """A set-valued operation received an empty argument set."""


class TableError(HyperlabError, ValueError):
    """A stored operation table is malformed (non-total, conflicting, empty value)."""


class LoadError(HyperlabError):
    """A structure document could not be parsed or validated."""


class UnknownFixtureError(HyperlabError, ValueError):
    """No built-in structure is registered under the requested name."""


class IdentityRequired(HyperlabError):
    """The check needs a scalar identity but the structure declares none."""


class DisjointnessViolated(HyperlabError):
    """The ideal and the multiplicative set overlap, so the predicate is undefined."""


class NotProper(HyperlabError):
    """The subset equals the whole carrier where a proper one is required."""


class NotAnIdeal(HyperlabError):
    """The designated subset fails the hyperideal check."""


class NotMultiplicative(HyperlabError):
    """The designated subset is not closed under the n-ary operation."""


class CapacityError(HyperlabError):
    """An exhaustive scan would exceed the configured budget."""
