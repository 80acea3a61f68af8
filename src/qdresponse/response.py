"""First-order sideband response and derived spectra.

Two backends compute the same quantities and cross-check each other:

* ``LINEAR_SOLVE`` evaluates, at the signal detuning, the resolvent of the
  branch's mean-field Jacobian in complex amplitudes
  (``sideband_generator``).  It is the ground truth.  It
  linearizes about the branch as it was solved: ``p`` supplies only
  ``delta0``, ``ep0`` (chi3 normalization), ``kappa_c0`` (output coupling)
  and ``es0``.
* ``CLOSED_FORM`` evaluates the transcribed closed-form susceptibilities.  By
  default the entries of ``data/formula_ledger.json`` are applied, which make
  the closed forms agree with the linear solve to machine precision; with
  ``corrected=False`` the legacy transcription is evaluated verbatim.

The transmitted signal is normalized so that the uncoupled cavity reduces to
the standard one-port expression |1 - 2 kappa / (kappa + i(delta_c - delta))|
(ledger entry ``signal-output-normalization``).
"""
from __future__ import annotations

import cmath
import contextlib
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import wraps
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import _lapack
from .errors import NonFinite, PoleHit, SingularSystem, ZeroPump, _or_raise
from .model import Params
from .steady import SteadyBranch, coherence_amplitudes

__all__ = [
    "Backend",
    "SidebandAmplitudes",
    "ResponsePoint",
    "sideband_generator",
    "certify_detuning",
    "solve_unit_grid",
    "solve_sidebands",
    "chi1_closed_form",
    "chi3_closed_form",
    "transmission_point",
    "load_formula_ledger",
]

_POLE_TOL = 1e-14
#: The smallest positive normal float: a chi3 normalization below it is
#: not normal.
_MIN_NORMAL = sys.float_info.min
_EYE = np.eye(7)
#: Real state (w, Re s, Im s, Re a, Im a, q, dq/dt) to complex amplitudes
#: (a, conj a, s, conj s, w, q, dq/dt).
_TO_COMPLEX = np.array([[0, 0, 0, 1, 1j, 0, 0], [0, 0, 0, 1, -1j, 0, 0],
                        [0, 1, 1j, 0, 0, 0, 0], [0, 1, -1j, 0, 0, 0, 0],
                        [1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0],
                        [0, 0, 0, 0, 0, 0, 1]])
_FROM_COMPLEX = _lapack.inv(_TO_COMPLEX)
#: rcond below which the sideband system counts as singular
#: (``SingularSystem``).
SINGULAR_RCOND = 1e-14
#: rcond that ``certify_detuning`` and ``_solve_alone`` certify; the factor 100
#: covers the rounding of the computed eigenpairs or inverse and of the SVD.
_CERTIFIED_RCOND = 100.0 * SINGULAR_RCOND


class Backend(Enum):
    LINEAR_SOLVE = "linear_solve"
    CLOSED_FORM = "closed_form"


#: ``Backend.LINEAR_SOLVE`` as a plain global, read once per row: on CPython
#: 3.11 a member read through its class runs ``EnumType.__getattr__``'s hook.
_LINEAR_SOLVE = Backend.LINEAR_SOLVE


@dataclass(frozen=True)
class SidebandAmplitudes:
    """Complex first-order amplitudes of the driven mean fields.

    The two remaining components of the ansatz are redundant by reality of
    the inversion and displacement: sigmaz_minus = conj(sigmaz_plus) and
    q_minus = conj(q_plus), so they are not stored.
    """

    a_plus: complex
    a_minus: complex
    sigma_plus: complex
    sigma_minus: complex
    sigmaz_plus: complex
    q_plus: complex


class ResponsePoint(NamedTuple):
    """Derived observables at one detuning, normalized per unit signal."""

    chi1: complex
    chi3: complex
    a_out_plus: complex
    T: float
    T2: float


def _frobenius_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm as a Python float; an overflow gives inf or
    nan, never a warning."""
    return float(np.vdot(a, a).real)


def sideband_generator(branch: SteadyBranch) -> np.ndarray:
    """The branch's ``jacobian`` in the complex amplitudes: K = T J T^-1."""
    return _TO_COMPLEX @ branch.jacobian @ _FROM_COMPLEX


def certify_detuning(K: np.ndarray) -> float:
    """The |delta| up to which -K - i delta I is certified well conditioned.

    With K = V diag(lam) V^-1, sigma_min(-K - i delta I) >= min |Re lam| /
    cond_F(V) and sigma_max <= ||K||_F + |delta|.  So for |delta| up to
    ``min |Re lam| / (_CERTIFIED_RCOND cond_F(V)) - ||K||_F`` the rcond of
    the system is at least ``_CERTIFIED_RCOND``, a hundred times
    ``SINGULAR_RCOND``.  The bound is negative where an eigenvalue sits on
    or near the imaginary axis (marginal branches, branches next to a fold
    or Hopf point), and ``-inf`` where V is singular or its condition number
    is not finite.  It costs about four uncertified rows (``_solve_alone``);
    with its stacked solve it pays from about six rows of one branch on.
    V is inverted by ``_lapack.inv``, with ``np.linalg.inv``'s bits.
    """
    lam, V = np.linalg.eig(K)
    try:
        V_inv = _lapack.inv(V)
    except np.linalg.LinAlgError:
        return -math.inf
    cond = math.sqrt(_frobenius_sq(V) * _frobenius_sq(V_inv))
    if not math.isfinite(cond):
        return -math.inf
    gap = min(map(abs, lam.real.tolist()))
    return gap / (_CERTIFIED_RCOND * cond) - math.sqrt(_frobenius_sq(K))


def _sideband_matrix(K: np.ndarray, delta):
    """The sideband system -K - i delta I at ``delta``: a float, or an
    (n, 1, 1) array for a stack of n systems.  Both evaluate the same
    operations in the same order, so they give the same bits."""
    return -K - 1j * delta * _EYE


def _solve_alone(K: np.ndarray, delta) -> list | NonFinite | SingularSystem:
    """``solve_unit_grid``'s entry at one detuning (``NonFinite`` before any
    matrix is built).  As rcond_2 >= 1 / (||M||_F ||M^-1||_F), a row whose
    inverse bounds it by ``_CERTIFIED_RCOND`` takes the inverse's column 0 (a
    solve's LU and pivots, by ``_lapack.inv``: ``np.linalg.inv``'s bits
    without its wrapper); the SVD test and a solve decide every other."""
    if not math.isfinite(delta):
        return NonFinite(f"sideband detuning delta0={delta!r} is not finite")
    M = _sideband_matrix(K, delta)
    with contextlib.suppress(np.linalg.LinAlgError):  # an exactly singular pivot
        M_inv = _lapack.inv(M)
        if _frobenius_sq(M) * _frobenius_sq(M_inv) <= _CERTIFIED_RCOND ** -2:
            return M_inv[:, 0].tolist()
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] < SINGULAR_RCOND * sv[0]:
        return SingularSystem(f"sideband system is singular at delta0={delta!r} "
                              f"(rcond {sv[-1] / sv[0]:.2e})")
    return np.linalg.solve(M, _EYE[0]).tolist()


def solve_unit_grid(K: np.ndarray, deltas, safe_detuning: float) -> list:
    """(a+, conj(a-), s+, conj(s-), w+, q+, dq+/dt) per unit signal at each
    detuning of ``deltas``, 7 Python ``complex`` solving (-K - i delta I) x =
    e0 for the ``sideband_generator`` K; or, where the rcond of that system
    is below ``SINGULAR_RCOND``, its ``SingularSystem``, and at a non-finite
    detuning ``NonFinite``.

    Rows within ``safe_detuning`` (``certify_detuning(K)`` proves their
    rcond) skip the SVD and share one stacked ``np.linalg.solve`` (right-hand
    side (n, 7, 1), read alike by numpy 1.x and 2.x), whose LAPACK call per
    system is a single solve's.  Every other row is answered alone by
    ``_solve_alone``: certified by its own inverse, else by the SVD test.
    So each row has a lone solve's bits and error; a ``safe_detuning`` of
    ``-inf`` stacks none.
    """
    certified = [abs(d) <= safe_detuning for d in deltas]  # False for a NaN
    stacked = iter(())
    if any(certified):
        ds = np.array([d for d, c in zip(deltas, certified) if c])[:, None, None]
        x = np.linalg.solve(_sideband_matrix(K, ds),
                            np.broadcast_to(_EYE[:, :1], (len(ds), 7, 1)))
        stacked = iter(x[:, :, 0].tolist())
    return [next(stacked) if c else _solve_alone(K, d)
            for d, c in zip(deltas, certified)]


def _solve_unit(K: np.ndarray, delta) -> list:
    """``solve_unit_grid``'s uncertified row at ``delta``, its error raised."""
    return _or_raise(_solve_alone(K, delta))


def solve_sidebands(p: Params, branch: SteadyBranch) -> SidebandAmplitudes:
    """Sideband amplitudes for signal amplitude ``p.es0``.

    The system is solved once per unit signal and scaled, so the amplitudes
    are exactly linear in the signal amplitude.
    """
    a, a_m, s, s_m, w, q, _ = (v * p.es0 for v in
                               _solve_unit(sideband_generator(branch), p.delta0))
    return SidebandAmplitudes(a, a_m.conjugate(), s, s_m.conjugate(), w, q)


# -- closed forms ------------------------------------------------------------

def _guard(name: str, value: complex, scale: float):
    if abs(value) < _POLE_TOL * max(1.0, scale):
        raise PoleHit(f"{name} vanishes at delta0; closed form undefined here")
    return value


def _chi3_norm(p: Params) -> float:
    """3 ep0^2, chi3's normalization, where it is a positive, finite, normal
    float (ep0 up to about 7.7e153), else 0.0: chi3 is undefined there."""
    try:
        norm = 3.0 * p.ep0 ** 2
    except OverflowError:
        return 0.0
    return norm if _MIN_NORMAL <= norm < math.inf else 0.0


def _overflow_is_non_finite(form):
    """``form``, raising ``NonFinite`` where its arithmetic overflows or its
    result is not finite."""
    @wraps(form)
    def checked(*args, **kwargs):
        try:
            value = form(*args, **kwargs)
        except OverflowError:
            raise NonFinite(f"{form.__name__} overflows at these parameters") from None
        if not cmath.isfinite(value):
            raise NonFinite(f"{form.__name__} is not finite at these parameters")
        return value
    return checked


def _common_scale(p: Params) -> float:
    return 1.0 + abs(p.delta_p0) + abs(p.delta_c0) + abs(p.delta0) + \
        p.kappa_c0 + p.g0 ** 2 + 2.0 * p.omega_k0 * p.eta


@_overflow_is_non_finite
def chi1_closed_form(p: Params, branch: SteadyBranch,
                     corrected: bool = True) -> complex:
    """Closed-form linear susceptibility at the branch.

    ``corrected=False`` evaluates the legacy transcription verbatim: the two
    imaginary terms of the numerator bracket carry the opposite sign and the
    legacy cavity-field amplitudes are used (ledger entries
    ``chi1-bracket-imaginary-signs`` and ``steady-field-amplitude``).
    """
    w0 = branch.w0
    g0, d0, eta, wk = p.g0, p.delta0, p.eta, p.omega_k0
    scale = _common_scale(p)
    c1, c2, f1, f2 = coherence_amplitudes(p, w0,
                                          legacy_field_amplitude=not corrected)
    zeta1 = wk * wk / _guard("zeta1 denominator",
                             wk * wk - 1j * d0 * p.gamma_q0 - d0 * d0,
                             wk * wk + abs(d0) * p.gamma_q0 + d0 * d0)
    A1 = _guard("A1", 1j * p.delta_c0 + p.kappa_c0 - 1j * d0, scale)
    B1 = _guard("B1", -1j * p.delta_c0 + p.kappa_c0 - 1j * d0, scale)
    M1 = _guard("M1", (p.delta_p0 - 1j - d0 - 2.0 * wk * eta * w0)
                + 2j * g0 * g0 * w0 / A1, scale)
    N1 = _guard("N1", (p.delta_p0 + 1j + d0 - 2.0 * wk * eta * w0)
                - 2j * g0 * g0 * w0 / B1, scale)
    phi1 = _guard("Phi1", (p.gamma1_ratio - 1j * d0)
                  + 2.0 * g0**2 * c2 * wk * eta * zeta1 * c1 / (A1 * M1)
                  + 2.0 * g0**3 * c2 * f1 / (A1 * M1)
                  + 2j * g0 * f1 * wk * eta * zeta1 * c2 / N1
                  + 2j * g0**2 * f1 * f2 / N1
                  + 2.0 * g0**2 * c1 * c2 * wk * eta * zeta1 / (B1 * N1)
                  + 2.0 * g0**3 * c1 * f2 / (B1 * N1)
                  - 2j * g0 * f2 * wk * eta * zeta1 * c1 / M1
                  - 2j * g0**2 * f1 * f2 / M1, scale)
    if corrected:
        bracket = -(2.0 * g0**3 * c2 * w0 + 1j * g0 * c2 * A1 * M1
                    - 2j * g0**2 * f2 * A1 * w0)
    else:
        bracket = -(2.0 * g0**3 * c2 * w0 - 1j * g0 * c2 * A1 * M1
                    + 2j * g0**2 * f2 * A1 * w0)
    return (2.0 * wk * eta * zeta1 * c1 + 2.0 * g0 * f1) * bracket \
        / (phi1 * A1**2 * M1**2) + 2.0 * g0 * w0 / (A1 * M1)


@_overflow_is_non_finite
def chi3_closed_form(p: Params, branch: SteadyBranch,
                     corrected: bool = True) -> complex:
    """Closed-form nonlinear susceptibility at the branch.

    ``corrected=False`` keeps the legacy denominator (one extra factor of the
    pulsation resonance) and omits the pump normalization (ledger entry
    ``chi3-normalization``).
    """
    norm = _chi3_norm(p)
    if not norm:
        raise ZeroPump("chi3 is normalized by 3 ep0^2, which is not a "
                       "positive, finite, normal float here")
    w0 = branch.w0
    g0, d0, eta, wk = p.g0, p.delta0, p.eta, p.omega_k0
    scale = _common_scale(p)
    c1, c2, f1, f2 = coherence_amplitudes(p, w0,
                                          legacy_field_amplitude=not corrected)
    zeta2 = wk * wk / _guard("zeta2 denominator",
                             wk * wk + 1j * d0 * p.gamma_q0 - d0 * d0,
                             wk * wk + abs(d0) * p.gamma_q0 + d0 * d0)
    A2 = _guard("A2", -1j * p.delta_c0 + p.kappa_c0 + 1j * d0, scale)
    B2 = _guard("B2", 1j * p.delta_c0 + p.kappa_c0 + 1j * d0, scale)
    M2 = _guard("M2", (p.delta_p0 + 1j - d0 - 2.0 * wk * eta * w0)
                - 2j * g0 * g0 * w0 / A2, scale)
    N2 = _guard("N2", (p.delta_p0 - 1j + d0 - 2.0 * wk * eta * w0)
                + 2j * g0 * g0 * w0 / B2, scale)
    phi2 = _guard("Phi2", (p.gamma1_ratio + 1j * d0)
                  + 2.0 * g0**2 * c2 * wk * eta * zeta2 * c1 / (A2 * M2)
                  + 2.0 * g0**3 * c1 * f2 / (A2 * M2)
                  - 2j * g0 * f2 * wk * eta * zeta2 * c1 / N2
                  - 2j * g0**2 * f1 * f2 / N2
                  + 2.0 * g0**2 * c1 * c2 * wk * eta * zeta2 / (B2 * N2)
                  + 2.0 * g0**3 * c2 * f1 / (B2 * N2)
                  + 2j * g0 * f1 * wk * eta * zeta2 * c2 / M2
                  + 2j * g0**2 * f1 * f2 / M2, scale)
    bracket = -(2.0 * g0**3 * c1 * w0 - 1j * g0 * c1 * A2 * M2
                + 2j * g0**2 * f1 * A2 * w0)
    lead = 2.0 * wk * eta * zeta2 * c1 + 2.0 * g0 * f1
    if corrected:
        return lead * bracket / (phi2 * A2**2 * M2 * N2) / norm
    return lead * bracket / (phi2 * A2**2 * M2**2 * N2)


# -- transmission ------------------------------------------------------------

def transmission_point(p: Params, branch: SteadyBranch,
                       backend: Backend = Backend.LINEAR_SOLVE, *,
                       unit=None) -> ResponsePoint:
    """chi1, chi3, signal output amplitude and transmission at one detuning.

    All quantities are per unit signal amplitude.  The real part of the output
    amplitude is the absorption quadrature, the imaginary part the dispersion.
    chi3 is normalized by 3 ep0^2, so it is NaN where that is not a positive,
    finite, normal float: at a zero, an underflowing or an overflowing pump.

    ``unit`` is the caller's ``solve_unit_grid`` entry at ``p.delta0``, whose
    error is raised here; only the ``LINEAR_SOLVE`` backend takes it.
    """
    norm = _chi3_norm(p)
    if backend is _LINEAR_SOLVE:
        x = _solve_unit(sideband_generator(branch), p.delta0) if unit is None \
            else _or_raise(unit)
        chi1, a_plus = x[2], x[0]
        chi3 = x[3].conjugate() / norm if norm else complex("nan")
    elif unit is not None:
        raise ValueError("a pre-solved unit vector needs the linear-solve backend")
    else:
        chi1 = chi1_closed_form(p, branch)
        chi3 = chi3_closed_form(p, branch) if norm else complex("nan")
        A1 = 1j * p.delta_c0 + p.kappa_c0 - 1j * p.delta0
        a_plus = (1.0 - 1j * p.g0 * chi1) / A1
    root = math.sqrt(2.0 * p.kappa_c0)
    a_out_plus = root * a_plus
    T = abs(1.0 - root * a_out_plus)
    # the NamedTuple's own __new__, without its Python frame
    return tuple.__new__(ResponsePoint, (chi1, chi3, a_out_plus, T, T * T))


def load_formula_ledger() -> list[dict]:
    """Machine-readable list of deviations from the legacy closed forms."""
    text = resources.files("qdresponse.data").joinpath(
        "formula_ledger.json").read_text(encoding="utf-8")
    return json.loads(text)
