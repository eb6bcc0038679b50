"""Exception hierarchy shared by all modules.

CLI exit codes: InadmissibleError -> 2, InternalInvariantError (and
subclasses) -> 4.
"""


class SteinitzcalcError(Exception):
    """Base class for all library errors."""


class InadmissibleError(SteinitzcalcError):
    """Input rejected: bad discriminant, malformed group tree, bad action,
    parity/coprimality violation, enumeration cap exceeded, and so on."""


class InternalInvariantError(SteinitzcalcError):
    """A property that is supposed to hold by theory failed at run time."""


class TraceMismatchError(InternalInvariantError):
    """Replaying a recorded computation did not reproduce its result."""
