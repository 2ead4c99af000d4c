"""Exception hierarchy shared by all ncmatch modules."""


def quoted(value) -> str:
    """``ascii(value)``, cut to its first 40 characters when longer, so a
    message that echoes outside input stays short."""
    text = ascii(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


class NcmatchError(Exception):
    """Base class for every error raised by this package."""


class InvalidInstance(NcmatchError):
    """An instance violates a structural invariant (duplicates, colors, ...)."""


class SharedEndpoint(NcmatchError):
    """Two segments handed to a crossing test share an endpoint."""


class NotConvex(NcmatchError):
    """An operation needs convex position but some point is not a hull vertex."""


class Degenerate(NcmatchError):
    """A point is collinear with a directed edge where a strict side is needed."""


class RationalTooLarge(NcmatchError):
    """A rational has more digits than the interpreter converts to a string,
    or the common denominator of an instance's angles or coordinates is
    past the cap."""


class RankOutOfRange(NcmatchError):
    """A rank fell outside [0, universe)."""


class InvalidDyck(NcmatchError):
    """A bit string is not a valid balanced word."""


class Not231Avoiding(NcmatchError):
    """A permutation contains a 231 pattern where an avoiding one is required."""


class CapExceeded(NcmatchError):
    """A brute-force operation was asked to exceed its configured size cap."""


class TapeExhausted(NcmatchError):
    """An advice read ran past the written portion of the tape."""


class TruncatedCode(NcmatchError):
    """The tape ended in the middle of a self-delimiting codeword."""


class IllegalMatch(NcmatchError):
    """A player tried to match a point that is not available."""


class DuplicateX(NcmatchError):
    """Two points share an x-coordinate where global distinctness is required."""


class NotPerfect(NcmatchError):
    """A matching expected to be perfect is not."""


class CrossingDetected(NcmatchError):
    """A matching expected to be non-crossing has intersecting edges."""


class BadSubset(NcmatchError):
    """An interval subset does not satisfy the family's constraints."""


class DomainError(NcmatchError):
    """A real-valued argument lies outside the function's domain."""
