"""Exception taxonomy shared by all modules."""


class QdResponseError(Exception):
    """Base class for every error raised by this package."""


def _or_raise(found):
    """``found``; raised instead where it is the error its point raises."""
    if isinstance(found, Exception):
        raise found
    return found


# -- parameter validation -------------------------------------------------

class NonPositiveRate(QdResponseError):
    """A decay rate or frequency that must be strictly positive is not."""


class NegativeAmplitude(QdResponseError):
    """A coupling or drive amplitude that must be non-negative is negative."""


class NonFinite(QdResponseError):
    """A value is NaN or infinite."""


class BadConfig(QdResponseError):
    """Malformed parameter file, unknown key, or inconsistent configuration."""


# -- steady-state solver ---------------------------------------------------

class NoRealRoot(QdResponseError):
    """The inversion polynomial is zero, has no roots, or keeps no real root
    that is a fixed point."""


class RootResidual(QdResponseError):
    """A polished root violates the residual bound; coefficients are corrupt."""


class NoConvergence(QdResponseError):
    """The eigenvalues of a steady branch's Jacobian did not converge."""


class InvalidGrid(QdResponseError):
    """Sweep grid is empty, too short, or not strictly monotone."""


# -- sideband response -----------------------------------------------------

class SingularSystem(QdResponseError):
    """Sideband linear system is singular; parameters sit on a resonance pole."""


class PoleHit(QdResponseError):
    """A closed-form denominator vanishes at the requested point."""


class ZeroPump(QdResponseError):
    """Nonlinear response requested where 3 ep0^2 is not a positive normal float."""


# -- time-domain oracle ----------------------------------------------------

class BoundViolation(QdResponseError):
    """Population inversion left the two-level bound during integration."""


class NotSettled(QdResponseError):
    """Trajectory has not reached steady state within the analysed window."""


class ZeroDelta(QdResponseError):
    """Demodulation at zero signal-pump detuning is undefined."""


class TooFewPoints(QdResponseError):
    """Not enough samples for the requested analysis."""


# -- command line ----------------------------------------------------------

class UnknownFigure(QdResponseError):
    """Requested preset id is not in the catalog."""


class WriteFailure(QdResponseError):
    """An output artifact could not be written."""
