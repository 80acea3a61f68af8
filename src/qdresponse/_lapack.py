"""``np.linalg.eigvals`` and ``np.linalg.inv`` without numpy's Python
wrapper: each calls the gufunc ``numpy.linalg`` calls, with its signature,
finiteness check and error state, so it gives the same bits and
``LinAlgError``.  On one 7x7 matrix the wrapper costs as much as LAPACK."""
import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


def _no_convergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


def eigvals(stack: np.ndarray) -> np.ndarray:
    """The complex eigenvalues of each matrix of a float64 (..., n, n) stack."""
    if not np.isfinite(stack).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    with np.errstate(call=_no_convergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.eigvals(stack, signature="d->D")


def inv(a: np.ndarray) -> np.ndarray:
    """The inverse of each matrix of a complex128 or float64 (..., n, n)
    stack, in the stack's own arithmetic, as numpy takes it: a complex LU
    rounds a real matrix differently."""
    with np.errstate(call=_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.inv(a, signature="D->D" if a.dtype.kind == "c" else "d->d")
