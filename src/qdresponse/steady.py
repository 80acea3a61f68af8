"""Pump-only steady state: inversion cubic, branch fields, stability, hysteresis.

The population inversion of the driven dot obeys a real cubic equation.  The
cubic is never expanded symbolically: the cleared rational expression is
evaluated at four sample points and interpolated, which makes the construction
immune to algebra slips and lets a test compare the polynomial against direct
pointwise evaluation.

Two transcriptions of the coefficient set exist (see ``data/formula_ledger.json``).
The default one is self-consistent with the mean-field dynamics: its roots are
fixed points of the time-domain equations to machine precision.  The legacy
transcription (``legacy_field_amplitude=True``) uses the inversion instead of
the pump amplitude in the cavity-field numerator and is kept only as a
documented reference; its roots are not fixed points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDenominator,
    InvalidGrid,
    NonRealCoefficients,
    NoRealRoot,
    RootResidual,
)
from .model import Params, SweepAxis, apply_axis
from .records import Flag, SpectrumRecord

__all__ = [
    "Stability",
    "SteadyBranch",
    "InversionPolynomial",
    "HysteresisResult",
    "coherence_amplitudes",
    "cleared_inversion_expression",
    "build_inversion_polynomial",
    "inversion_roots",
    "steady_fields",
    "solve_steady_branches",
    "mean_field_jacobian",
    "classify_stability",
    "certify_detuning",
    "hysteresis_sweep",
]

#: |Im(root)| below this (relative to max(1, |Re|)) counts as a real root.
REAL_ROOT_TOL = 1e-8
#: Stability margin on Jacobian eigenvalue real parts.
STABILITY_TOL = 1e-9
#: Residual bound on the monic cubic for every returned root.
RESIDUAL_BOUND = 1e-10
#: rcond below which the sideband system counts as singular
#: (``response.SingularSystem``).
SINGULAR_RCOND = 1e-14
#: rcond that ``certify_detuning`` certifies; the factor 100
#: covers the rounding of the computed eigenpairs and of the SVD.
_CERTIFIED_RCOND = 100.0 * SINGULAR_RCOND

_PHYSICAL_LO = -1.0
_PHYSICAL_HI = 0.0

#: Real state (w, Re s, Im s, Re a, Im a, q, dq/dt) to complex amplitudes
#: (a, conj a, s, conj s, w, q, dq/dt).
_TO_COMPLEX = np.array([[0, 0, 0, 1, 1j, 0, 0], [0, 0, 0, 1, -1j, 0, 0],
                        [0, 1, 1j, 0, 0, 0, 0], [0, 1, -1j, 0, 0, 0, 0],
                        [1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0],
                        [0, 0, 0, 0, 0, 0, 1]])
_FROM_COMPLEX = np.linalg.inv(_TO_COMPLEX)


class Stability(Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


@dataclass(frozen=True)
class SteadyBranch:
    """One steady-state solution of the pump-driven system.

    ``jacobian`` is ``mean_field_jacobian(p, w0)`` at the solving parameters:
    the one linearization behind both the stability label and the sideband
    response.  ``safe_detuning`` is set by ``certify_detuning``; for
    |delta0| up to it the sideband system is certified well conditioned
    (``-inf``, no certificate, until then).  Neither takes part in ``==``,
    ``hash`` or ``repr``.
    """

    w0: float
    a0: complex
    sigma0: complex
    q0: float
    residual: float
    stability: Stability
    physical: bool
    jacobian: np.ndarray = field(compare=False, repr=False)
    safe_detuning: float = field(default=-math.inf, compare=False, repr=False)

    @cached_property
    def sideband_generator(self) -> np.ndarray:
        """``jacobian`` in the complex amplitudes: K = T J T^-1."""
        return _TO_COMPLEX @ self.jacobian @ _FROM_COMPLEX


@dataclass(frozen=True)
class InversionPolynomial:
    """Real cubic c3 w^3 + c2 w^2 + c1 w + c0 for the population inversion."""

    c3: float
    c2: float
    c1: float
    c0: float

    def coefficients(self) -> np.ndarray:
        return np.array([self.c3, self.c2, self.c1, self.c0])

    def __call__(self, w: float) -> float:
        return ((self.c3 * w + self.c2) * w + self.c1) * w + self.c0


# -- coefficient set --------------------------------------------------------

def _denominators(p: Params, w: complex) -> tuple[complex, complex]:
    shift = p.delta_p0 - 2.0 * p.omega_k0 * p.eta * w
    d1 = (1j * p.delta_c0 + p.kappa_c0) * (shift - 1j) + 2j * p.g0 * p.g0 * w
    d2 = (-1j * p.delta_c0 + p.kappa_c0) * (shift + 1j) - 2j * p.g0 * p.g0 * w
    return d1, d2


def coherence_amplitudes(p: Params, w: complex, legacy_field_amplitude: bool = False):
    """Steady coherence (C1, C2) and cavity field (D1, D2) at inversion ``w``.

    C2 = conj(C1) and D2 = conj(D1) for real ``w``.  With the default
    transcription D1 is exactly the steady cavity amplitude obtained from the
    field equation; the legacy transcription replaces the pump amplitude in
    its numerator by ``w``.
    """
    d1, d2 = _denominators(p, w)
    c1 = 2.0 * p.g0 * w * p.ep0 / d1
    c2 = 2.0 * p.g0 * w * p.ep0 / d2
    drive = w if legacy_field_amplitude else p.ep0
    a1 = (drive - 1j * p.g0 * c1) / (1j * p.delta_c0 + p.kappa_c0)
    a2 = (drive + 1j * p.g0 * c2) / (-1j * p.delta_c0 + p.kappa_c0)
    return c1, c2, a1, a2


def cleared_inversion_expression(p: Params, w: complex,
                                 legacy_field_amplitude: bool = False) -> complex:
    """Inversion equation with both coefficient denominators cleared.

    This is a polynomial of degree <= 3 in ``w``; for real ``w`` its value is
    real up to rounding.
    """
    d1, d2 = _denominators(p, w)
    c1, c2, a1, a2 = coherence_amplitudes(p, w, legacy_field_amplitude)
    expr = -p.gamma1_ratio * (w + 1.0) - 1j * p.g0 * (a1 * c2 - a2 * c1)
    return expr * d1 * d2


_SAMPLES = (-2.0, -1.0, 0.0, 1.0)
_VANDER_INV = np.linalg.inv(np.vander(np.array(_SAMPLES), 4))


def build_inversion_polynomial(p: Params,
                               legacy_field_amplitude: bool = False) -> InversionPolynomial:
    """Interpolate the cleared inversion expression into a real cubic.

    Four distinct real sample points are evaluated and fitted exactly; sample
    points that land on a coefficient pole are shifted and retried.  A
    non-negligible imaginary residue in the fitted coefficients signals a sign
    convention bug and raises ``NonRealCoefficients``.
    """
    samples = list(_SAMPLES)
    vinv = _VANDER_INV
    for attempt in range(8):
        ok = True
        for x in samples:
            d1, d2 = _denominators(p, x)
            scale = (1.0 + abs(p.delta_c0) + p.kappa_c0) * (
                1.0 + abs(p.delta_p0) + 2.0 * p.omega_k0 * p.eta * abs(x)
            ) + 2.0 * p.g0 * p.g0 * abs(x)
            if abs(d1) < 1e-13 * scale or abs(d2) < 1e-13 * scale:
                ok = False
                break
        if ok:
            break
        samples = [x + 0.37 * (attempt + 1) for x in samples]
        vinv = np.linalg.inv(np.vander(np.array(samples), 4))
    else:
        raise DegenerateDenominator(
            "could not place sample points away from coefficient poles")

    values = np.array([cleared_inversion_expression(p, x, legacy_field_amplitude)
                       for x in samples])
    coeffs = vinv @ values
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        raise NonRealCoefficients("inversion expression is identically zero")
    if float(np.max(np.abs(coeffs.imag))) > 1e-12 * scale:
        raise NonRealCoefficients(
            f"imaginary residue {np.max(np.abs(coeffs.imag)) / scale:.3e} "
            "exceeds 1e-12 of the coefficient scale")
    c3, c2, c1, c0 = (float(v) for v in coeffs.real)
    return InversionPolynomial(c3, c2, c1, c0)


# -- root extraction ---------------------------------------------------------

def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a polynomial given by descending coefficients (len >= 2)."""
    n = len(coeffs) - 1
    if n == 1:
        return np.array([-coeffs[1] / coeffs[0]])
    comp = np.zeros((n, n))
    comp[0, :] = -coeffs[1:] / coeffs[0]
    comp[1:, :-1] = np.eye(n - 1)
    return np.linalg.eigvals(comp)


def _polished_roots(poly: InversionPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """All roots (complex) of the trimmed monic polynomial plus monic coeffs."""
    c = poly.coefficients()
    top = float(np.max(np.abs(c)))
    if top == 0.0:
        raise NoRealRoot("zero polynomial")
    cn = c / top
    k = 0
    while k < 3 and abs(cn[k]) < 1e-12:
        k += 1
    cn = cn[k:]
    if len(cn) == 1:
        raise NoRealRoot("inversion polynomial has no roots")
    monic = cn / cn[0]
    roots = _companion_roots(monic)
    # one newton step per root; skip near-double roots where p' ~ 0
    dmonic = np.polyder(monic)
    for i, r in enumerate(roots):
        fv = np.polyval(monic, r)
        dv = np.polyval(dmonic, r)
        if abs(dv) > 1e-9:
            roots[i] = r - fv / dv
    return roots, monic


def inversion_roots(p: Params,
                    legacy_field_amplitude: bool = False) -> tuple[list[float], list[float], list[complex]]:
    """Real roots of the inversion cubic, their monic residuals, complex rest."""
    poly = build_inversion_polynomial(p, legacy_field_amplitude)
    roots, monic = _polished_roots(poly)
    real, resid, cplx = [], [], []
    for r in roots:
        if abs(r.imag) <= REAL_ROOT_TOL * max(1.0, abs(r.real)):
            real.append(float(r.real))
            resid.append(float(abs(np.polyval(monic, r.real))))
        else:
            cplx.append(complex(r))
    order = np.argsort(real)
    return [real[i] for i in order], [resid[i] for i in order], cplx


# -- branch assembly ---------------------------------------------------------

def steady_fields(p: Params, w0: float) -> tuple[complex, complex, float]:
    """(sigma0, a0, q0) reconstructed from the coefficient set at ``w0``.

    q0 = -2 eta omega_k0 w0: the displacement sign convention is pinned to the
    coefficient set (ledger entry ``phonon-displacement-sign``).
    """
    c1, _, a1, _ = coherence_amplitudes(p, w0)
    q0 = -2.0 * p.eta * p.omega_k0 * w0
    return c1, a1, q0


def _steady_rhs_scaled(p: Params, w0: float, sigma0: complex, a0: complex,
                       q0: float) -> float:
    """Largest per-equation residual of the mean-field fixed-point equations,
    each scaled by the magnitude of its additive terms."""
    g0, g1 = p.g0, p.gamma1_ratio
    t1 = -g1 * (w0 + 1.0)
    t2 = 2.0 * g0 * (a0 * sigma0.conjugate()).imag
    r_w = abs(t1 + t2) / (abs(t1) + abs(t2) + 1.0)
    ts = -(1.0 + 1j * (p.delta_p0 + q0)) * sigma0
    td = 2j * g0 * a0 * w0
    r_s = abs(ts + td) / (abs(ts) + abs(td) + 1.0)
    ta = -(1j * p.delta_c0 + p.kappa_c0) * a0
    tg = -1j * g0 * sigma0
    r_a = abs(ta + tg + p.ep0) / (abs(ta) + abs(tg) + p.ep0 + 1.0)
    tq = p.omega_k0 ** 2 * q0
    tw = 2.0 * p.eta * p.omega_k0 ** 3 * w0
    r_q = abs(tq + tw) / (abs(tq) + abs(tw) + 1.0)
    vals = (r_w, r_s, r_a, r_q)
    if any(v != v for v in vals):  # NaN from a pole-cancellation root
        return float("inf")
    return max(vals)


def mean_field_jacobian(p: Params, w0: float) -> np.ndarray:
    """Jacobian of the 7-dim real mean-field system about the branch at ``w0``.

    State ordering: (w, Re sigma, Im sigma, Re a, Im a, q, dq/dt).
    """
    sigma0, a0, q0 = steady_fields(p, w0)
    x0, y0 = sigma0.real, sigma0.imag
    u0, v0 = a0.real, a0.imag
    g0 = p.g0
    dpq = p.delta_p0 + q0
    wk2 = p.omega_k0 ** 2
    return np.array([
        [-p.gamma1_ratio, 2*g0*v0, -2*g0*u0, -2*g0*y0, 2*g0*x0, 0.0, 0.0],
        [-2*g0*v0, -1.0, dpq, 0.0, -2*g0*w0, y0, 0.0],
        [2*g0*u0, -dpq, -1.0, 2*g0*w0, 0.0, -x0, 0.0],
        [0.0, 0.0, g0, -p.kappa_c0, p.delta_c0, 0.0, 0.0],
        [0.0, -g0, 0.0, -p.delta_c0, -p.kappa_c0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [-2.0*p.eta*p.omega_k0**3, 0.0, 0.0, 0.0, 0.0, -wk2, -p.gamma_q0],
    ])


def classify_stability(branch: SteadyBranch) -> SteadyBranch:
    """Label the branch from the real parts of its Jacobian's eigenvalues."""
    ev = np.linalg.eigvals(branch.jacobian)
    top = float(np.max(ev.real))
    if top < -STABILITY_TOL:
        label = Stability.STABLE
    elif top > STABILITY_TOL:
        label = Stability.UNSTABLE
    else:
        label = Stability.MARGINAL
    return replace(branch, stability=label)


def _frobenius_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm as a Python float; an overflow gives inf or
    nan, never a warning."""
    return float(np.vdot(a, a).real)


def certify_detuning(branch: SteadyBranch) -> SteadyBranch:
    """The branch with ``safe_detuning`` set from one eigendecomposition of
    its Jacobian.

    With K = V diag(lam) V^-1 (V = T V_J, the eigenvectors in complex
    amplitudes), sigma_min(-K - i delta I) >= min |Re lam| / cond_F(V) and
    sigma_max <= ||K||_F + |delta|.  So for |delta| up to
    ``min |Re lam| / (_CERTIFIED_RCOND cond_F(V)) - ||K||_F`` the rcond of
    the system is at least ``_CERTIFIED_RCOND``, a hundred times
    ``SINGULAR_RCOND``.  The bound is negative where an eigenvalue sits on
    or near the imaginary axis (marginal branches, branches next to a fold
    or Hopf point); a singular V leaves the branch uncertified.  It costs
    about two SVDs, so it pays only on a branch that serves many detunings.
    """
    lam, vecs = np.linalg.eig(branch.jacobian)
    V = _TO_COMPLEX @ vecs
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return branch
    cond = math.sqrt(_frobenius_sq(V) * _frobenius_sq(V_inv))
    if not math.isfinite(cond):
        return branch
    gap = min(map(abs, lam.real.tolist()))
    return replace(branch, safe_detuning=gap / (_CERTIFIED_RCOND * cond)
                   - math.sqrt(_frobenius_sq(branch.sideband_generator)))


def solve_steady_branches(p: Params) -> list[SteadyBranch]:
    """All steady-state branches, sorted by w0 ascending.

    Complex cubic roots are discarded; real roots that are pole-cancellation
    artifacts of denominator clearing (possible only at degenerate corners
    such as zero pump) are filtered by checking the mean-field fixed-point
    residual.  Roots outside [-1, 0] are returned but marked non-physical.
    """
    real, resid, _ = inversion_roots(p)
    branches = []
    for w0, res in zip(real, resid):
        if res >= RESIDUAL_BOUND:
            raise RootResidual(
                f"monic residual {res:.3e} at root {w0!r} exceeds {RESIDUAL_BOUND}")
        sigma0, a0, q0 = steady_fields(p, w0)
        if _steady_rhs_scaled(p, w0, sigma0, a0, q0) > 1e-6:
            continue
        branches.append(SteadyBranch(
            w0=w0, a0=a0, sigma0=sigma0, q0=q0, residual=res,
            stability=Stability.MARGINAL,
            physical=_PHYSICAL_LO <= w0 <= _PHYSICAL_HI,
            jacobian=mean_field_jacobian(p, w0),
        ))
    if not branches:
        raise NoRealRoot("all real roots rejected as pole-cancellation artifacts")
    return [classify_stability(b) for b in branches]


# -- hysteresis --------------------------------------------------------------

@dataclass(frozen=True)
class HysteresisResult:
    """Continuation traces for both sweep directions plus jump locations."""

    up: list[SpectrumRecord]
    down: list[SpectrumRecord]
    turning_up: float | None
    turning_down: float | None


def _check_grid(grid, minimum=2):
    xs = [float(x) for x in grid]
    if len(xs) < minimum:
        raise InvalidGrid(f"grid needs at least {minimum} points, got {len(xs)}")
    if not all(math.isfinite(x) for x in xs):
        raise InvalidGrid("grid values must be finite")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise InvalidGrid("grid must be strictly ascending")
    return xs


def _continuation(p: Params, axis: SweepAxis, xs, start_high: bool):
    prev_w = None
    turning = None
    rows = []
    for x in xs:
        px = apply_axis(p, axis, x)
        try:
            real, resid, cplx = inversion_roots(px)
            branches = solve_steady_branches(px)
        except NoRealRoot:
            rows.append(SpectrumRecord(x, -1, float("nan"), float("nan"),
                                       0.0, frozenset({Flag.POLE_SKIPPED})))
            continue
        stable = [b for b in branches if b.stability is Stability.STABLE]
        if not stable:
            rows.append(SpectrumRecord(x, -1, float("nan"), float("nan"),
                                       0.0, frozenset({Flag.POLE_SKIPPED})))
            continue
        if prev_w is None:
            sel = max(stable, key=lambda b: b.w0) if start_high else \
                min(stable, key=lambda b: b.w0)
        else:
            # nearest stable branch; ties resolved toward lower w0
            sel = min(stable, key=lambda b: (abs(b.w0 - prev_w), b.w0))
            # the followed branch vanished (annihilated into a complex pair or
            # lost stability) when some other root remnant sits closer to the
            # previous state than the branch selected for continuation
            remnants = [r for r in real if r != sel.w0]
            remnants += [z.real for z in cplx]
            if remnants and turning is None:
                nearest = min(abs(r - prev_w) for r in remnants)
                if nearest < abs(sel.w0 - prev_w):
                    turning = x
        branch_id = branches.index(sel)
        flags = set()
        if not sel.physical:
            flags.add(Flag.NON_PHYSICAL)
        rows.append(SpectrumRecord(x, branch_id, sel.w0, sel.w0, 0.0,
                                   frozenset(flags)))
        prev_w = sel.w0
    return rows, turning


def hysteresis_sweep(p: Params, axis: SweepAxis, grid) -> HysteresisResult:
    """Continuation sweep up and down an ascending grid.

    The up trace follows the stable branch nearest the previous point,
    starting from the lowest-inversion stable branch; the down trace runs the
    reversed grid starting from the highest one.  When the followed branch
    vanishes (annihilating into a complex pair at a fold, or losing stability
    just before one) the trace jumps to the nearest remaining stable branch
    and the grid point is recorded as a turning point.
    """
    if axis not in (SweepAxis.EP0, SweepAxis.DELTA_P0):
        raise InvalidGrid(f"hysteresis axis must be ep0 or delta_p0, got {axis}")
    xs = _check_grid(grid)
    up, turning_up = _continuation(p, axis, xs, start_high=False)
    down, turning_down = _continuation(p, axis, xs[::-1], start_high=True)
    return HysteresisResult(up=up, down=down, turning_up=turning_up,
                            turning_down=turning_down)
