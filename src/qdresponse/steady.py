"""Pump-only steady state: inversion cubic, branch fields, stability, hysteresis.

The population inversion of the driven dot obeys a real cubic equation.  The
cubic is never expanded symbolically: the cleared rational expression is
evaluated at four sample points and interpolated, which makes the construction
immune to algebra slips and lets a test compare the polynomial against direct
pointwise evaluation.  Along a steady grid each coefficient is a polynomial of
degree 1 or 2 in the swept value or its square, so a grid's cubics are
interpolated from two or three such builds (``_grid_cubics``).

Two transcriptions of the coefficient set exist (see ``data/formula_ledger.json``).
The default one is self-consistent with the mean-field dynamics: its roots are
fixed points of the time-domain equations to machine precision.  The legacy
transcription (``build_inversion_polynomial(p, legacy_field_amplitude=True)``)
uses the inversion instead of the pump amplitude in the cavity-field numerator
and is kept only as a documented reference; its roots are not fixed points.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DegenerateDenominator,
    InvalidGrid,
    NonFinite,
    NonRealCoefficients,
    NoRealRoot,
    QdResponseError,
    RootResidual,
    _or_raise,
)
from .model import Params, SweepAxis, apply_axis, checked_grid, validate_params
from .records import Flag, SpectrumRecord

__all__ = [
    "Stability",
    "SteadyBranch",
    "HysteresisResult",
    "coherence_amplitudes",
    "cleared_inversion_expression",
    "build_inversion_polynomial",
    "inversion_roots",
    "grid_roots",
    "steady_fields",
    "solve_steady_branches",
    "mean_field_jacobian",
    "classify_stability",
    "row_flags",
    "hysteresis_sweep",
]

#: |Im(root)| below this (relative to max(1, |Re|)) counts as a real root.
REAL_ROOT_TOL = 1e-8
#: Stability margin on Jacobian eigenvalue real parts.
STABILITY_TOL = 1e-9
#: Residual bound on the monic cubic for every returned root, raised to the
#: evaluation noise floor where that is larger (see ``inversion_roots``).
RESIDUAL_BOUND = 1e-10
_EPS = np.finfo(float).eps

_PHYSICAL_LO = -1.0
_PHYSICAL_HI = 0.0


class Stability(Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


@dataclass(frozen=True)
class SteadyBranch:
    """One steady-state solution of the pump-driven system.

    ``jacobian`` is ``mean_field_jacobian(p, w0)`` at the solving parameters:
    the one linearization behind both the stability label and the sideband
    response (``response.sideband_generator``).  It takes no part in ``==``,
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


def row_flags(branch: SteadyBranch) -> frozenset:
    """The flags of a sweep or hysteresis row that reports ``branch``."""
    return frozenset({Flag.UNSTABLE, Flag.NON_PHYSICAL}
                     if branch.stability is not Stability.STABLE else
                     set() if branch.physical else {Flag.NON_PHYSICAL})


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
    return _amplitudes(p, w, *_denominators(p, w), legacy_field_amplitude)


def _amplitudes(p: Params, w: complex, d1: complex, d2: complex,
                legacy_field_amplitude: bool):
    """``coherence_amplitudes`` given ``_denominators(p, w)``."""
    c1 = 2.0 * p.g0 * w * p.ep0 / d1
    c2 = 2.0 * p.g0 * w * p.ep0 / d2
    drive = w if legacy_field_amplitude else p.ep0
    a1 = (drive - 1j * p.g0 * c1) / (1j * p.delta_c0 + p.kappa_c0)
    a2 = (drive + 1j * p.g0 * c2) / (-1j * p.delta_c0 + p.kappa_c0)
    return c1, c2, a1, a2


def cleared_inversion_expression(p: Params, w: complex) -> complex:
    """Inversion equation with both coefficient denominators cleared.

    This is a polynomial of degree <= 3 in ``w``; for real ``w`` its value is
    real up to rounding.
    """
    return _cleared(p, w, *_denominators(p, w), legacy_field_amplitude=False)


def _cleared(p: Params, w: complex, d1: complex, d2: complex,
             legacy_field_amplitude: bool) -> complex:
    """``cleared_inversion_expression`` given ``_denominators(p, w)``."""
    c1, c2, a1, a2 = _amplitudes(p, w, d1, d2, legacy_field_amplitude)
    expr = -p.gamma1_ratio * (w + 1.0) - 1j * p.g0 * (a1 * c2 - a2 * c1)
    return expr * d1 * d2


_SAMPLES = (-2.0, -1.0, 0.0, 1.0)
_VANDER_INV = np.linalg.inv(np.vander(np.array(_SAMPLES), 4))


def build_inversion_polynomial(p: Params,
                               legacy_field_amplitude: bool = False) -> np.ndarray:
    """Interpolate the cleared inversion expression into a real cubic, the
    float array (c3, c2, c1, c0) of c3 w^3 + c2 w^2 + c1 w + c0.

    Four distinct real sample points are evaluated and fitted exactly; sample
    points that land on a coefficient pole are shifted and retried.  Each
    sample's two denominators are computed once, for the pole check and the
    cleared expression.  A
    non-negligible imaginary residue in the fitted coefficients signals a sign
    convention bug and raises ``NonRealCoefficients``; a sample value or
    coefficient that overflows raises ``NonFinite``.
    """
    samples = list(_SAMPLES)
    vinv = _VANDER_INV
    try:
        lead = 1.0 + abs(p.delta_c0) + p.kappa_c0
        base = 1.0 + abs(p.delta_p0)
        slope = 2.0 * p.omega_k0 * p.eta
        coupling = 2.0 * p.g0 * p.g0
        for attempt in range(8):
            dens = []
            for x in samples:
                d1, d2 = _denominators(p, x)
                scale = lead * (base + slope * abs(x)) + coupling * abs(x)
                if abs(d1) < 1e-13 * scale or abs(d2) < 1e-13 * scale:
                    break
                dens.append((d1, d2))
            if len(dens) == len(samples):
                break
            samples = [x + 0.37 * (attempt + 1) for x in samples]
            vinv = np.linalg.inv(np.vander(np.array(samples), 4))
        else:
            raise DegenerateDenominator(
                "could not place sample points away from coefficient poles")

        values = [_cleared(p, x, d1, d2, legacy_field_amplitude)
                  for x, (d1, d2) in zip(samples, dens)]
    except ArithmeticError:  # abs() of an overflowing complex value
        values = [cmath.inf]
    scale = math.inf
    if all(map(cmath.isfinite, values)):
        coeffs = vinv @ np.array(values)
        scale = float(np.abs(coeffs).max())
    if not math.isfinite(scale):
        raise NonFinite("the inversion cubic overflows at these parameters")
    if scale == 0.0:
        raise NonRealCoefficients("inversion expression is identically zero")
    residue = float(np.abs(coeffs.imag).max())
    if residue > 1e-12 * scale:
        raise NonRealCoefficients(
            f"imaginary residue {residue / scale:.3e} "
            "exceeds 1e-12 of the coefficient scale")
    return coeffs.real


# -- root extraction ---------------------------------------------------------

def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of the polynomials given by descending coefficients along the
    last axis (length >= 2); a stack of companions takes one ``eigvals``."""
    n = coeffs.shape[-1] - 1
    if n == 1:
        return -coeffs[..., 1:] / coeffs[..., :1]
    comp = np.zeros(coeffs.shape[:-1] + (n, n))
    comp[..., 0, :] = -coeffs[..., 1:] / coeffs[..., :1]
    for j in range(1, n):
        comp[..., j, j - 1] = 1.0
    return np.linalg.eigvals(comp)


def _value_and_slope(monic: np.ndarray, x: np.ndarray):
    """(f, f') at each row of ``x`` of the polynomial f whose descending
    coefficients are the same row of ``monic``, in one pass: each in the
    operation order of ``np.polyval`` on f's and on f''s coefficients.

    The coefficient columns are cast to the dtype of ``x`` once, as each
    mixed-dtype product would cast them.  ``np.polyval`` starts from
    ``0 * x + c[0]``, which is exactly ``c[0]`` (``c[0] + 0j`` for complex
    ``x``) at a finite ``x``; the pass starts there.
    """
    n = monic.shape[1] - 1
    cols = monic.T.astype(x.dtype)[:, :, None]
    slopes = (monic[:, :-1] * np.arange(n, 0, -1)).T.astype(x.dtype)[:, :, None]
    f, df = cols[0], slopes[0]
    for k in range(1, n):
        f = f * x + cols[k]
        df = df * x + slopes[k]
    return f * x + cols[n], df


def _polished_root_sets(polys) -> list:
    """(roots, monic) of each polynomial: its trimmed monic form and all its
    roots (complex), polished; or the ``NoRealRoot`` the polynomial raises.

    The trimmed monic polynomials are stacked by degree: one ``eigvals``
    and one array Newton step per stack, elementwise the operations of a
    single polynomial, so each polynomial's roots have the bits it gets in
    a stack of one.  Rows whose eigenvalues are all real are polished as a
    float array, as ``eigvals`` of that companion alone returns them.
    """
    out = [None] * len(polys)
    stacks = {}
    for i, c in enumerate(polys):
        top = max(map(abs, c.tolist()))
        if top == 0.0:
            out[i] = NoRealRoot("zero polynomial")
            continue
        cn = c / top
        k = 0
        while k < 3 and abs(cn[k]) < 1e-12:
            k += 1
        if k == 3:
            out[i] = NoRealRoot("inversion polynomial has no roots")
            continue
        at, monics = stacks.setdefault(3 - k, ([], []))
        at.append(i)
        monics.append(cn[k:] / cn[k])
    for at, monics in stacks.values():
        monic = np.array(monics)
        roots = _companion_roots(monic)
        parts = [(at, monic, roots)]
        # a lone companion's eigvals are complex only if some root is
        if roots.dtype.kind == "c" and len(at) > 1:
            real = ~roots.imag.any(axis=1)
            if real.any():
                at = np.array(at)
                parts = [(at[real].tolist(), monic[real], roots.real[real]),
                         (at[~real].tolist(), monic[~real], roots[~real])]
        for at, monic, roots in parts:
            # one newton step per root; skip near-double roots where p' ~ 0
            fv, dv = _value_and_slope(monic, roots)
            step = np.abs(dv) > 1e-9
            np.subtract(roots, np.divide(fv, dv, out=fv, where=step),
                        out=roots, where=step)
            for i, r, m in zip(at, roots, monic):
                out[i] = (r, m)
    return out


def _horner(coeffs, x: float) -> float:
    """The polynomial with descending ``coeffs`` at ``x``, in the operation
    order of ``np.polyval``."""
    value = 0.0
    for c in coeffs:
        value = value * x + c
    return value


def _split_roots(roots: np.ndarray, monic: np.ndarray):
    """(real, resid, cplx) of polished roots; see ``inversion_roots``."""
    real, cplx = [], []
    for r in roots.tolist():
        if abs(r.imag) <= REAL_ROOT_TOL * max(1.0, abs(r.real)):
            real.append(r.real)
        else:
            cplx.append(r)
    real.sort()
    m = monic.tolist()
    resid = []
    for w0 in real:
        res = abs(_horner(m, w0))
        if res >= RESIDUAL_BOUND:
            bound = max(RESIDUAL_BOUND, 8.0 * _EPS * _horner(map(abs, m), abs(w0)))
            if res >= bound:
                raise RootResidual(
                    f"monic residual {res:.3e} at root {w0!r} exceeds {bound:.3e}")
        resid.append(res)
    return real, resid, cplx


def _cubic(p: Params):
    """``build_inversion_polynomial(p)``, or the error it raises."""
    try:
        return build_inversion_polynomial(p)
    except QdResponseError as exc:  # raised at its turn
        return exc


def _root_sets(cubics) -> list:
    """``inversion_roots`` given each point's cubic or the error its build
    raised: the roots of all the cubics are extracted and polished in one
    stacked step per degree (``_polished_root_sets``)."""
    out = list(cubics)
    at = [i for i, c in enumerate(out) if not isinstance(c, Exception)]
    for i, found in zip(at, _polished_root_sets([out[i] for i in at])):
        if not isinstance(found, Exception):
            try:
                found = _split_roots(*found)
            except RootResidual as exc:
                found = exc
        out[i] = found
    return out


def inversion_roots(ps) -> list:
    """Each point of ``ps``'s real roots of the inversion cubic, their monic
    residuals and the complex rest, (real, resid, cplx), or the error the
    point raises; a lone point is a stack of one.

    Each cubic is built alone; the roots of all of them come from one
    stacked step (``_root_sets``).  An entry that is an exception is raised
    by the caller at that point's turn, so a list fails where and how a
    per-point loop would.

    A point is ``RootResidual`` when a real root's monic residual reaches
    ``RESIDUAL_BOUND`` and also the rounding noise of evaluating the monic
    polynomial there, 8 eps sum_k |m_k| |w0|^k: with monic coefficients up
    to 1e13 an absolute bound alone rejects roots accurate to the last bit.
    """
    return _root_sets([_cubic(p) for p in ps])


#: Each steady axis's (power, degree): along the axis every coefficient of
#: the cubic is a polynomial of that degree in u = x**power.  The cleared
#: expression is -gamma1_ratio (w + 1) d1 d2 plus ep0**2 g0**2 times a sum
#: of terms linear in d1, d2 or g0**2, and the denominators d1 and d2 are
#: affine in delta_p0 and in g0**2.
_AXIS_BASIS = {SweepAxis.EP0: (2, 1), SweepAxis.DELTA_P0: (1, 2), SweepAxis.G0: (2, 2)}


def _grid_cubics(ps, axis: SweepAxis, xs) -> list:
    """Each point's cubic along ``axis``, or the error its build raises,
    from ``degree + 1`` node builds: the first and the last point, and for
    degree 2 the point nearest the middle of the grid in u, which keeps
    every Lagrange weight within [-2, 2] on any monotone grid.

    A point's coefficients are the Lagrange interpolation in u of the node
    cubics, in one array expression: its own build up to rounding, and a
    node's row is its build.  A grid of at most ``degree + 1`` points, or
    one where a node's build raises, builds every point alone, and so does
    a row whose interpolated coefficients are not all finite: each error is
    the one its own point's build raises.
    """
    power, degree = _AXIS_BASIS[axis]
    n = len(ps)
    if n <= degree + 1:
        return [_cubic(p) for p in ps]
    with np.errstate(all="ignore"):  # an overflowing u leaves its rows non-finite
        u = np.array(xs) ** power
        middle = 1 + int(np.argmin(abs(u[1:-1] - (u[0] + u[-1]) / 2)))
    nodes = [0, middle, n - 1] if degree == 2 else [0, n - 1]
    basis = [_cubic(ps[k]) for k in nodes]
    if any(isinstance(c, Exception) for c in basis):
        return [_cubic(p) for p in ps]
    with np.errstate(all="ignore"):
        cubics = 0.0
        for j, c in zip(nodes, basis):
            weight = 1.0
            for k in nodes:
                if k != j:
                    weight = weight * (u - u[k]) / (u[j] - u[k])
            cubics = cubics + weight[:, None] * c
    finite = np.isfinite(cubics).all(axis=1).tolist()
    return [c if ok else _cubic(p) for p, c, ok in zip(ps, cubics, finite)]


def grid_roots(p: Params, axis: SweepAxis, xs) -> list:
    """(x, params, entry) for each point of ``xs`` (a checked grid) along
    ``axis`` from ``p``: the entry is the point's (real, resid, cplx,
    branches), its roots as ``inversion_roots`` gives them and its branches
    as ``solve_steady_branches`` gives them, or the error the point raises.

    The grid's cubics come from a few node builds (``_grid_cubics``), so a
    point's roots may differ from a lone solve's by rounding.  Each point's
    roots and branches are computed once, in one stacked step per stage
    over the whole grid (``_root_sets``, ``_branch_sets``); callers share
    the entries.  The grid's two ends must pass ``validate_params``; every
    parameter rule is a bound, so the points between them do too.  A point
    that does not raises ``InvalidGrid`` naming the axis.
    """
    ps = [apply_axis(p, axis, x) for x in xs]
    for end in (ps[0], ps[-1]):
        try:
            validate_params(end)
        except QdResponseError as exc:
            raise InvalidGrid(f"{axis.value} grid reaches an invalid point: "
                              f"{exc}") from None
    root_sets = _root_sets(_grid_cubics(ps, axis, xs))
    return list(zip(xs, ps, _branch_sets(ps, root_sets)))


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
    r_w = abs(t1 + t2) / (g1 * (abs(w0) + 1.0) + abs(t2) + 1.0)
    ts = -(1.0 + 1j * (p.delta_p0 + q0)) * sigma0
    td = 2j * g0 * a0 * w0
    r_s = abs(ts + td) / ((1.0 + abs(p.delta_p0) + abs(q0)) * abs(sigma0) + abs(td) + 1.0)
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
    jacobian = np.empty((7, 7))
    jacobian.reshape(49)[:] = _jacobian_entries(p, w0, *steady_fields(p, w0))
    return jacobian


def _jacobian_entries(p: Params, w0: float, sigma0: complex, a0: complex,
                      q0: float) -> tuple:
    """The 49 entries, row by row, of ``mean_field_jacobian`` given the
    branch's ``steady_fields``."""
    x0, y0 = sigma0.real, sigma0.imag
    u0, v0 = a0.real, a0.imag
    g0 = p.g0
    dpq = p.delta_p0 + q0
    wk2 = p.omega_k0 ** 2
    return (
        -p.gamma1_ratio, 2*g0*v0, -2*g0*u0, -2*g0*y0, 2*g0*x0, 0.0, 0.0,
        -2*g0*v0, -1.0, dpq, 0.0, -2*g0*w0, y0, 0.0,
        2*g0*u0, -dpq, -1.0, 2*g0*w0, 0.0, -x0, 0.0,
        0.0, 0.0, g0, -p.kappa_c0, p.delta_c0, 0.0, 0.0,
        0.0, -g0, 0.0, -p.delta_c0, -p.kappa_c0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
        -2.0*p.eta*p.omega_k0**3, 0.0, 0.0, 0.0, 0.0, -wk2, -p.gamma_q0,
    )


def classify_stability(jacobians) -> list[Stability]:
    """The label of each Jacobian of a stack from the real parts of its
    eigenvalues, in one ``eigvals``; a non-finite one raises ``LinAlgError``.

    ``eigvals`` of a stack gives each matrix the real parts it gets alone,
    so a label does not depend on the rest of the stack; a lone matrix is a
    stack of one.
    """
    tops = np.linalg.eigvals(jacobians).real.max(axis=-1)
    return [Stability.STABLE if top < -STABILITY_TOL
            else Stability.UNSTABLE if top > STABILITY_TOL
            else Stability.MARGINAL for top in tops.tolist()]


def _branch_sets(ps, root_sets) -> list:
    """Each ``inversion_roots`` entry of ``ps`` with the point's branches
    appended, (real, resid, cplx, branches), or the error the point raises.

    Every real root that passes the fixed-point check gets its Jacobian from
    the same ``steady_fields``, written into one (n, 7, 7) stack for the
    kept roots of all points; the stack is labelled in one
    ``classify_stability``, and each branch's ``jacobian`` is its row.
    Errors stay with their point, to be raised at its turn: an
    ``ArithmeticError`` in a point's fields or Jacobians is its
    ``NonFinite``, and a stack that holds a non-finite Jacobian is labelled
    matrix by matrix, each failing point keeping its own ``LinAlgError``.
    """
    out = list(root_sets)
    size = sum(len(found[0]) for found in root_sets
               if not isinstance(found, Exception))
    stack = np.empty((size, 7, 7))
    entries = stack.reshape(size, 49)
    kept = []  # (point index, w0, residual, sigma0, a0, q0) per stack row
    for i, (p, found) in enumerate(zip(ps, root_sets)):
        if isinstance(found, Exception):
            continue
        start = len(kept)
        try:
            for w0, res in zip(found[0], found[1]):
                sigma0, a0, q0 = steady_fields(p, w0)
                if _steady_rhs_scaled(p, w0, sigma0, a0, q0) > 1e-6:
                    continue
                entries[len(kept)] = _jacobian_entries(p, w0, sigma0, a0, q0)
                kept.append((i, w0, res, sigma0, a0, q0))
        except ArithmeticError:
            del kept[start:]
            out[i] = NonFinite("a steady branch overflows at these parameters")
    stack = stack[:len(kept)]
    try:
        labels = classify_stability(stack) if kept else []
    except np.linalg.LinAlgError:
        labels = []
        for k, (i, *_) in enumerate(kept):
            try:
                labels += classify_stability(stack[k:k + 1])
            except np.linalg.LinAlgError as exc:
                labels.append(None)
                out[i] = exc
    branches = [[] for _ in ps]
    for (i, w0, res, sigma0, a0, q0), label, jacobian in zip(kept, labels, stack):
        branches[i].append(SteadyBranch(
            w0=w0, a0=a0, sigma0=sigma0, q0=q0, residual=res, stability=label,
            physical=_PHYSICAL_LO <= w0 <= _PHYSICAL_HI, jacobian=jacobian))
    for i, found in enumerate(out):
        if not isinstance(found, Exception):
            out[i] = (*found, branches[i]) if branches[i] else NoRealRoot(
                "all real roots rejected as pole-cancellation artifacts")
    return out


def solve_steady_branches(p: Params, *, roots=None) -> list[SteadyBranch]:
    """All steady-state branches, sorted by w0 ascending.

    ``roots`` is the point's ``grid_roots`` entry when the caller holds one:
    its branch list is returned as it is, shared by every caller of the
    entry, or its error raised.  Otherwise both stages run on this one
    point as a stack of one, ``_branch_sets([p], inversion_roots([p]))``.

    Complex cubic roots are discarded; real roots that are pole-cancellation
    artifacts of denominator clearing (possible only at degenerate corners
    such as zero pump) are filtered by checking the mean-field fixed-point
    residual.  Roots outside [-1, 0] are returned but marked non-physical.
    """
    if roots is None:
        roots = _branch_sets([p], inversion_roots([p]))[0]
    return _or_raise(roots)[3]


# -- hysteresis --------------------------------------------------------------

@dataclass(frozen=True)
class HysteresisResult:
    """Continuation traces for both sweep directions plus jump locations."""

    up: list[SpectrumRecord]
    down: list[SpectrumRecord]
    turning_up: float | None
    turning_down: float | None


def _continuation(points, start_high: bool):
    """One trace over ``points``, ``grid_roots`` triples in sweep order."""
    prev_w = None
    turning = None
    rows = []
    for x, px, found in points:
        try:
            branches = solve_steady_branches(px, roots=found)
        except NoRealRoot:
            branches = []
        stable = [b for b in branches if b.stability is Stability.STABLE]
        if not stable:
            rows.append(SpectrumRecord(x, -1, float("nan"), float("nan"),
                                       0.0, frozenset({Flag.POLE_SKIPPED})))
            continue
        real, _, cplx, _ = found
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
        rows.append(SpectrumRecord(x, branches.index(sel), sel.w0, sel.w0, 0.0,
                                   row_flags(sel)))
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

    Each grid point's roots and branches are computed once (``grid_roots``)
    and both traces share them.  A point that raises a typed error other
    than ``NoRealRoot`` raises it at its turn in the up trace.
    """
    if axis not in (SweepAxis.EP0, SweepAxis.DELTA_P0):
        raise InvalidGrid(f"hysteresis axis must be ep0 or delta_p0, got {axis.value}")
    points = grid_roots(p, axis, checked_grid(grid, minimum=2, ascending=True))
    up, turning_up = _continuation(points, start_high=False)
    down, turning_down = _continuation(points[::-1], start_high=True)
    return HysteresisResult(up=up, down=down, turning_up=turning_up,
                            turning_down=turning_down)
