"""Exception types shared across the package."""


class ShiftcodeError(Exception):
    """Base class for all package errors."""


class EmptySftError(ShiftcodeError):
    """No admissible word survives pruning; the subshift is empty."""


class NotMixingError(ShiftcodeError):
    """The adjacency matrix is not primitive."""


class CoverageError(ShiftcodeError):
    """A word does not cover the coordinate range an operation needs."""


class NoConnectorError(ShiftcodeError):
    """No admissible connecting word of the requested length exists."""


class NoReturnError(ShiftcodeError):
    """No orbit return was found within the search bound."""

    def __init__(self, bound):
        super().__init__(f"no return within search bound {bound}")
        self.bound = bound


class ParameterError(ShiftcodeError):
    """A parameter precondition or required inequality failed."""


class ReducibleChainError(ShiftcodeError):
    """The transition matrix is reducible; names two non-communicating states."""


class MarkerSearchError(ShiftcodeError):
    """Marker search exhausted its budget; carries the best candidate seen."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NoMarkerExistsError(ShiftcodeError):
    """Every candidate window coincides; no self-distinguishing word exists."""


class DegreeError(ShiftcodeError):
    """A marriage-relation degree precondition failed; names the vertex."""

    def __init__(self, message, vertex=None):
        super().__init__(message)
        self.vertex = vertex


class CapacityError(ShiftcodeError):
    """More boys than girls; carries both exact counts."""

    def __init__(self, message, n_boys=None, n_girls=None):
        super().__init__(message)
        self.n_boys = n_boys
        self.n_girls = n_girls


class UnmatchedBoyError(ShiftcodeError):
    """A boy block has no entry in the Hall-mode matching table."""


class NoGirlsError(ShiftcodeError):
    """The girl set came out empty."""


class CertificationError(ShiftcodeError):
    """Numeric root classification could not be certified at the tolerance."""


class EncodingCollisionError(ShiftcodeError):
    """Filler rewriting could not remove a spurious marker occurrence."""
