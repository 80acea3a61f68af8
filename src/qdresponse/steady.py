"""Pump-only steady state: inversion cubic, branch fields, stability, hysteresis.

The population inversion of the driven dot obeys a real cubic equation, the
inversion equation with its coefficient denominators cleared.  Its
coefficients come from the exact expansion C(w) = -gamma1 (w + 1) |d1(w)|^2
- 4 g0^2 ep0^2 w (``_closed_form``), right to rounding; a test compares them
against exact rationals and against pointwise evaluation of the cleared
expression (``cleared_inversion_expression``).  Each point builds its own
cubic in Python floats (``_cubic``), on a grid as alone.  A lone point's
roots come from the closed form on Python floats (``_polished_roots``), a
grid's from one array pass over its cubics beside it (``_roots_pass``),
which does each point's float operations in their lone order.  A real
root's fields, fixed-point check and Jacobian are written once
(``_branch_row``), on Python floats for a lone point and on a grid's
columns in one array pass.  So each point gets the bits it gets alone.

Two transcriptions of the coefficient set exist (see ``data/formula_ledger.json``).
The default one is self-consistent with the mean-field dynamics: its roots are
fixed points of the time-domain equations to machine precision.  The legacy
transcription (``build_inversion_polynomial(p, legacy_field_amplitude=True)``)
uses the inversion instead of the pump amplitude in the cavity-field numerator
and is kept only as a documented reference; its roots are not fixed points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

import numpy as np

from .errors import (
    InvalidGrid,
    NoConvergence,
    NonFinite,
    NoRealRoot,
    QdResponseError,
    RootResidual,
    _or_raise,
)
from .model import Params, SweepAxis, _filled, apply_axis, checked_grid, validate_params
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
#: A real root one of whose scaled fixed-point residuals (``_branch_row``)
#: exceeds this is a pole-cancellation artifact, not a branch.
_FIXED_POINT_BOUND = 1e-6


class Stability(Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


#: The members as plain globals, read per branch: on CPython 3.11 a member
#: read through its class runs ``EnumType.__getattr__``'s hook.
_STABLE, _UNSTABLE, _MARGINAL = Stability.STABLE, Stability.UNSTABLE, Stability.MARGINAL


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


_UNSTABLE_FLAGS = frozenset({Flag.UNSTABLE, Flag.NON_PHYSICAL})
_NON_PHYSICAL_FLAGS = frozenset({Flag.NON_PHYSICAL})
_NO_FLAGS = frozenset()


def row_flags(branch: SteadyBranch) -> frozenset:
    """The flags of a sweep or hysteresis row that reports ``branch``, shared."""
    return (_UNSTABLE_FLAGS if branch.stability is not _STABLE
            else _NO_FLAGS if branch.physical else _NON_PHYSICAL_FLAGS)


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


def cleared_inversion_expression(p: Params, w: complex) -> complex:
    """Inversion equation with both coefficient denominators cleared.

    This is a polynomial of degree <= 3 in ``w``; for real ``w`` its value is
    real up to rounding.
    """
    d1, d2 = _denominators(p, w)
    c1, c2, a1, a2 = coherence_amplitudes(p, w)
    expr = -p.gamma1_ratio * (w + 1.0) - 1j * p.g0 * (a1 * c2 - a2 * c1)
    return expr * d1 * d2


#: A point's parameters in ``_closed_form``'s order.
_CUBIC_FIELDS = attrgetter("delta_p0", "delta_c0", "kappa_c0", "g0", "eta", "omega_k0",
                           "ep0", "gamma1_ratio")


def _closed_form(dp, dc, kc, g0, eta, wk, ep0, g1, legacy_field_amplitude=False):
    """((c3, c2, c1, c0), factored): the cleared inversion expression's
    coefficients, Python floats from a point's Python floats; and whether
    they are the float expansion of (w + 1) q, the pump term lost in the
    rounding of c1.

    For real w, d1(w) = (kappa + i delta_c)(s - i) + 2 i g0^2 w with
    s = delta_p - 2 omega_k eta w, and d2 = conj(d1).  The field
    amplitudes collapse to D1 d1 = ep0 (s - i), so the cleared expression
    is C(w) = (w + 1) q(w) - pump w, with q = -gamma1 |d1|^2 and
    pump = 4 g0^2 ep0^2; q's w^2, w and 1 coefficients are -gamma1 times
    those of (re0 + re1 w)^2 + (im0 + im1 w)^2, d1's real and imaginary
    parts.  gamma1 multiplies a factor before it is squared, so no
    intermediate product overflows where the coefficient does not.  The
    legacy field amplitude adds 8 g0^4 kappa ep0 / (kappa^2 + delta_c^2)
    (w - ep0) w^2 - 4 g0^2 ep0 w^2 in place of the pump term.
    """
    m = 2.0 * wk * eta
    re0, re1 = kc * dp + dc, -kc * m
    im0, im1 = dc * dp - kc, 2.0 * g0 * g0 - dc * m
    q2 = -(g1 * re1 * re1 + g1 * im1 * im1)
    q1 = -2.0 * (g1 * re0 * re1 + g1 * im0 * im1)
    q0 = -(g1 * re0 * re0 + g1 * im0 * im0)
    t = 2.0 * g0 * ep0
    if legacy_field_amplitude:
        drive = 2.0 * g0 * t
        lead = 2.0 * g0 * g0 * drive * (1.0 / complex(kc, dc)).real
        return (q2 + lead, q1 + q2 - drive - lead * ep0, q0 + q1, q0), False
    unpumped = q0 + q1
    c1 = unpumped - t * t
    return (q2, q1 + q2, c1, q0), c1 == unpumped


_OVERFLOW = "the inversion cubic overflows at these parameters"
_BRANCH_OVERFLOW = "a steady branch overflows at these parameters"


def build_inversion_polynomial(p: Params,
                               legacy_field_amplitude: bool = False) -> np.ndarray:
    """The inversion cubic, the float array (c3, c2, c1, c0) of
    c3 w^3 + c2 w^2 + c1 w + c0, from its closed form (``_closed_form``):
    each coefficient is right to rounding.  A coefficient that overflows
    raises ``NonFinite``.
    """
    coeffs, _ = _closed_form(*_CUBIC_FIELDS(p), legacy_field_amplitude)
    return np.array(_or_raise(_checked(coeffs)))


def _checked(c):
    """The cubic ``c``, or ``NonFinite`` where a coefficient is not finite:
    the one finiteness rule of a cubic, its build's and its roots'."""
    return c if all(map(math.isfinite, c)) else NonFinite(_OVERFLOW)


# -- root extraction ---------------------------------------------------------

def _compensated_horner(monic: list, x: float) -> tuple[float, float]:
    """(value, slope) at ``x`` of the monic polynomial ``monic``, the value
    as accurate as Horner's rule in twice the working precision: each
    product's rounding error (Dekker's split product) and each sum's
    (Knuth's two-sum) is carried in a second Horner pass (Graillat,
    Langlois and Louvet's compensated Horner scheme).  The body has no
    branch, so it serves a lone root's floats and a stack's arrays alike."""
    s = 134217729.0 * x  # Dekker's splitter, 2**27 + 1
    xh = s - (s - x)
    xl = x - xh
    value, err, slope = 1.0, 0.0, 0.0
    for c in monic[1:]:
        slope = slope * x + value
        s = 134217729.0 * value
        vh = s - (s - value)
        vl = value - vh
        prod = value * x
        e_prod = vl * xl - (((prod - vh * xh) - vl * xh) - vh * xl)
        value = prod + c
        s = value - prod
        err = err * x + (e_prod + ((prod - (value - s)) + (c - s)))
    return value + err, slope


def _pair(monic: list, b1: float, c2: float, scale: float) -> list:
    """The roots of a factor w^2 + b1 w + c2 of ``monic`` whose cofactor is
    ``scale`` at the factor's midpoint m = -b1/2.  The discriminant is
    -4 f(m) / scale with f(m) compensated, where b1^2 - 4 c2 cancels near a
    double root; a zero cofactor (a triple root) falls back to b1^2 - 4 c2.
    A real pair is the larger root, free of cancellation, and c2 over it.
    A complex pair whose real part is below eps times its imaginary part,
    the rounding of the pair's modulus, has real part 0."""
    m = -0.5 * b1
    disc = -4.0 * _compensated_horner(monic, m)[0] / scale if scale else b1 * b1 - 4.0 * c2
    if disc < 0.0:
        im = 0.5 * math.sqrt(-disc)
        m = m if abs(m) > _EPS * im else 0.0
        return [complex(m, im), complex(m, -im)]
    q = m - math.copysign(0.5 * math.sqrt(disc), b1)
    return [q, c2 / q] if q else [0.0, 0.0]


def _depressed_root(cbar: float, dbar: float, scale: float, disc: float) -> float:
    """The one real root of t^3 + 3 cbar t + dbar, where 4 cbar^3 + dbar^2
    = -disc * scale^2 is positive: Cardano's form with Blinn's choices,
    each cube root and their sum free of cancellation; ``NonFinite`` where
    -cbar / u divides by a cube root u that underflows."""
    t0 = -math.copysign(scale * math.sqrt(-disc), dbar)
    t1 = t0 - dbar
    u = math.copysign(abs(0.5 * t1) ** (1.0 / 3.0), t1)
    if u == 0.0 and t0 != t1:
        raise NonFinite("the inversion cubic's closed-form root underflows at these parameters")
    v = -u if t0 == t1 else -cbar / u
    return u + v if cbar <= 0.0 else -dbar / (u * u + v * v + cbar)


def _cubic_roots(monic: list) -> list:
    """Roots of the monic cubic w^3 + a w^2 + b w + c: one real root w0 in
    closed form, given one Newton step with a compensated value (none
    where |f'| <= 1e-9), then the pair it deflates to (``_pair``).

    In Blinn's notation (A, B, C, D) = (1, a/3, b/3, c), one real root
    comes from Cardano's form for w (A side) or 1/w (D side), whichever
    avoids cancellation; of three, the trigonometric form gives the one of
    largest magnitude.  The deflation takes Kahan's choice of coefficients.
    """
    _, a, b, c = monic
    big, mid = a / 3.0, b / 3.0
    d1 = mid - big * big
    d2 = c - big * mid
    d3 = big * c - mid * mid
    disc = 4.0 * d1 * d3 - d2 * d2
    if disc >= 0.0:
        r = 2.0 * math.sqrt(max(-d1, 0.0))
        theta = abs(math.atan2(math.sqrt(disc), 2.0 * big * d1 - d2)) / 3.0
        x1 = r * math.cos(theta)
        x3 = r * (-0.5 * math.cos(theta) - math.sqrt(0.75) * math.sin(theta))
        w0 = (x1 if x1 + x3 > 2.0 * big else x3) - big
    else:
        w = 0.0  # the D side's w = -c / w0 underflows only where w0 is huge
        if big * big * big * c < mid * mid * mid:
            w = _depressed_root(d3, 2.0 * mid * d3 - c * d2, abs(c), disc) + mid
        w0 = -c / w if w else _depressed_root(d1, d2 - 2.0 * big * d1, 1.0, disc) - big
    value, slope = _compensated_horner(monic, w0)
    if abs(slope) > 1e-9:
        w0 -= value / slope
    b1 = w0 + a
    c2 = b1 * w0 + b
    if w0 and w0 * w0 * abs(w0) > abs(c):
        c2 = -c / w0
        b1 = (c2 - b) / w0
    return [w0, *_pair(monic, b1, c2, -0.5 * b1 - w0)]


# ``_pair``, ``_depressed_root`` and ``_cubic_roots`` on a stack's columns, each
# ``if`` a ``where`` over both sides: every lane does its lone solve's float
# operations in their order.  numpy serves only where its rounding is IEEE's
# (+ - * /, sqrt, abs, copysign, comparisons); atan2, cos, sin and the cube
# root are ``math``'s and ``**`` on each lane's Python floats (``_per_lane``),
# since numpy's need not round as these do.

def _per_lane(f, lanes, *columns):
    """``f`` on the Python floats of each of ``lanes``, NaN elsewhere."""
    out = np.full(len(lanes), math.nan)
    at = np.flatnonzero(lanes)
    out[at] = list(map(f, *(column[at].tolist() for column in columns)))
    return out


def _pair_arrays(monic, b1, c2, scale):
    """``_pair`` on arrays: (cplx, x, y), the roots x + iy and x - iy where
    ``cplx``, else x and y."""
    m = -0.5 * b1
    disc = np.where(scale != 0.0, -4.0 * _compensated_horner(monic, m)[0] / scale,
                    b1 * b1 - 4.0 * c2)
    cplx = disc < 0.0
    im = 0.5 * np.sqrt(-disc)
    q = m - np.copysign(0.5 * np.sqrt(disc), b1)
    real = q != 0.0
    return (cplx, np.where(cplx, np.where(abs(m) > _EPS * im, m, 0.0), np.where(real, q, 0.0)),
            np.where(cplx, im, np.where(real, c2 / q, 0.0)))


def _depressed_root_arrays(cbar, dbar, scale, disc, lanes):
    """``_depressed_root`` on arrays, its cube root on ``lanes``; and the lanes it refuses."""
    t0 = -np.copysign(scale * np.sqrt(-disc), dbar)
    t1 = t0 - dbar
    u = np.copysign(_per_lane(lambda x: x ** (1.0 / 3.0), lanes, abs(0.5 * t1)), t1)
    same = t0 == t1
    v = np.where(same, -u, -cbar / u)
    root = np.where(cbar <= 0.0, u + v, -dbar / (u * u + v * v + cbar))
    return root, ~same & (u == 0.0)


def _cubic_roots_arrays(monic):
    """``_cubic_roots`` on the columns of a stack of monic cubics: (w0,
    cplx, x, y, refused), the pair as ``_pair_arrays`` gives it, and the
    lanes the lone solve refuses."""
    _, a, b, c = monic
    big, mid = a / 3.0, b / 3.0
    d1 = mid - big * big
    d2 = c - big * mid
    d3 = big * c - mid * mid
    disc = 4.0 * d1 * d3 - d2 * d2
    trig = disc >= 0.0
    r = 2.0 * np.sqrt(np.where(0.0 > -d1, 0.0, -d1))  # max(-d1, 0.0), -0.0 on a tie
    theta = abs(_per_lane(math.atan2, trig, np.sqrt(disc), 2.0 * big * d1 - d2)) / 3.0
    cos, sin = _per_lane(math.cos, trig, theta), _per_lane(math.sin, trig, theta)
    x1 = r * cos
    x3 = r * (-0.5 * cos - math.sqrt(0.75) * sin)
    d_side = ~trig & (big * big * big * c < mid * mid * mid)
    w, refused = _depressed_root_arrays(d3, 2.0 * mid * d3 - c * d2, abs(c), disc, d_side)
    w = np.where(d_side, w + mid, 0.0)
    a_side = ~trig & (w == 0.0)
    # no A-side lane refuses: monic coefficients up to 1e12 keep disc finite, so disc < 0
    # gives |t1| >= |t0| = sqrt(-disc) >= 2.2e-162, whose cube root is at least 1e-54
    w0, _ = _depressed_root_arrays(d1, d2 - 2.0 * big * d1, 1.0, disc, a_side)
    w0 = np.where(trig, np.where(x1 + x3 > 2.0 * big, x1, x3) - big,
                  np.where(a_side, w0 - big, -c / w))
    value, slope = _compensated_horner(monic, w0)
    w0 = np.where(abs(slope) > 1e-9, w0 - value / slope, w0)
    b1 = w0 + a
    c2 = b1 * w0 + b
    flip = (w0 != 0.0) & (w0 * w0 * abs(w0) > abs(c))
    c2 = np.where(flip, -c / w0, c2)
    b1 = np.where(flip, (c2 - b) / w0, b1)
    return (w0, *_pair_arrays(monic, b1, c2, -0.5 * b1 - w0), refused)


def _roots_pass(out) -> list:
    """Answer the cubics of the stack ``out`` in one array pass, in place,
    and return the indices of the items left to the lone loop: a cofactor,
    a cubic whose leading coefficient is below 1e-12 of its largest, which
    is not finite or is zero, and one that its lone solve refuses.  Each
    answer is its lone solve's, bit for bit: the pass transcribes
    ``_polished_roots``' normalization and ``_cubic_roots``, and each
    lane's roots, Python floats, go through ``_split_roots``."""
    four = [i for i, c in enumerate(out) if len(c) == 4]
    stack = np.array([out[i] for i in four], float).reshape(-1, 4)
    with np.errstate(all="ignore"):
        top = abs(stack).max(axis=1)
        cn = stack / top[:, None]
        lanes = (top > 0.0) & (top < math.inf) & (abs(cn[:, 0]) >= 1e-12)
        monic = (cn[lanes] / cn[lanes, :1]).T
        w0, cplx, x, y, refused = _cubic_roots_arrays(monic)
    alone = [True] * len(out)
    keep = ~refused
    for k, m, w, z, re, im in zip(np.flatnonzero(lanes)[keep].tolist(), monic.T[keep].tolist(),
                                  *(column[keep].tolist() for column in (w0, cplx, x, y))):
        i = four[k]
        alone[i] = False
        try:
            out[i] = _split_roots([w, complex(re, im), complex(re, -im)] if z else [w, re, im], m)
        except RootResidual as exc:
            out[i] = exc
    return [i for i, lone in enumerate(alone) if lone]


def _polished_roots(c) -> tuple[list, list]:
    """(roots, monic) of a cubic, a sequence of floats: its trimmed monic
    form and all its roots (``_cubic_roots``, ``_pair``), Python floats; or
    ``NoRealRoot``.  Three coefficients are the cofactor q of a cubic
    (w + 1) q (``_cubic``): its roots are -1, exactly, and q's, and its
    monic form is w + 1 times q's."""
    c = [*map(float, c)]
    top = max(map(abs, c))
    if top == 0.0:
        raise NoRealRoot("zero polynomial")
    cn = [v / top for v in c]
    k = 0
    while abs(cn[k]) < 1e-12:  # the top's own entry is 1
        k += 1
    lead = cn[k]
    monic = [v / lead for v in cn[k:]]
    roots = (_cubic_roots(monic) if len(monic) == 4 else
             _pair(monic, monic[1], monic[2], 1.0) if len(monic) == 3 else
             [-monic[1]] if len(monic) == 2 else [])
    if len(c) == 3:
        return [-1.0, *roots], [a + b for a, b in zip([*monic, 0.0], [0.0, *monic])]
    if not roots:
        raise NoRealRoot("inversion polynomial has no roots")
    return roots, monic


def _horner(coeffs, x: float) -> float:
    """The polynomial with descending ``coeffs`` at ``x``, in the operation
    order of ``np.polyval``."""
    value = 0.0
    for c in coeffs:
        value = value * x + c
    return value


def _split_roots(roots: list, monic: list):
    """(real, resid, cplx) of polished roots; see ``inversion_roots``."""
    real, cplx = [], []
    for r in roots:
        if abs(r.imag) <= REAL_ROOT_TOL * max(1.0, abs(r.real)):
            real.append(r.real)
        else:
            cplx.append(r)
    real.sort()
    resid = []
    for w0 in real:
        res = abs(_horner(monic, w0))
        if res >= RESIDUAL_BOUND:
            bound = max(RESIDUAL_BOUND, 8.0 * _EPS * _horner(map(abs, monic), abs(w0)))
            if res >= bound:
                raise RootResidual(
                    f"monic residual {res:.3e} at root {w0!r} exceeds {bound:.3e}")
        resid.append(res)
    return real, resid, cplx


def _cubic(p: Params):
    """``inversion_roots``' item for ``p``, a tuple of Python floats: its
    cubic (c3, c2, c1, c0).  Where the pump term vanishes in the rounding
    (``_closed_form``) the cubic is (w + 1) q, and the item is the cofactor
    q, (c3, c2 - c3, c0), so that the root -1 stays -1 rather than one
    rounding off it.  A cubic that is not finite is never deflated: its one
    finiteness check is ``inversion_roots``'."""
    coeffs, factored = _closed_form(*_CUBIC_FIELDS(p))
    if factored and _checked(coeffs) is coeffs:
        c3, c2, _, c0 = coeffs
        return c3, c2 - c3, c0
    return coeffs


def inversion_roots(cubics) -> list:
    """Each point's (real, resid, cplx) given its inversion cubic, a
    sequence of floats: the real roots, their monic residuals and the
    complex rest, as Python floats and complexes whatever the item's type;
    or, alone or in a stack, its typed error, for the caller to raise at
    the point's turn: ``NonFinite`` where a coefficient is not finite or
    the closed-form root underflows (``_depressed_root``), else the error
    its roots fail with.  The solver's item is ``_cubic(p)``, a tuple,
    which deflates the factor w + 1 where the pump term rounds away, to
    its cofactor of three coefficients; ``build_inversion_polynomial`` is
    the whole cubic.

    The roots come from one closed form (``_polished_roots``).  A lone
    point, a stack of one, takes it on Python floats.  A larger stack takes
    its cubics in one array pass (``_roots_pass``) that does each lane's
    float operations in their lone order, so each point gets the bits of
    its lone solve; the items the pass does not take go the lone way.

    A point is ``RootResidual`` when a real root's monic residual reaches
    ``RESIDUAL_BOUND`` and also the rounding noise of evaluating the monic
    polynomial there, 8 eps sum_k |m_k| |w0|^k: with monic coefficients up
    to 1e13 an absolute bound alone rejects roots accurate to the last bit.
    """
    out = list(cubics)
    for i in _roots_pass(out) if len(out) > 1 else range(len(out)):
        try:
            out[i] = _split_roots(*_polished_roots(_or_raise(_checked(out[i]))))
        except (NonFinite, NoRealRoot, RootResidual) as exc:
            out[i] = exc
    return out


def grid_roots(p: Params, axis: SweepAxis, xs) -> list:
    """(x, params, entry) for each point of ``xs`` (a checked grid) along
    ``axis`` from ``p``: the entry is the point's (real, resid, cplx,
    branches), its roots as ``inversion_roots`` gives them and its branches
    as ``solve_steady_branches`` gives them, or the error the point raises.

    Each point's cubic, roots and branches are computed once: each cubic by
    its lone build (``_cubic``), then one step per stage over the whole grid
    (``inversion_roots``, ``_branch_sets``), the roots and the branch rows
    each in an array pass that gives each point the bits of its lone solve
    (``_roots_pass``, ``_array_rows``); callers share the entries.  The
    grid's two ends must pass ``validate_params``; every parameter rule is
    a bound, so the points between them do too.  A point that does not
    raises ``InvalidGrid`` naming the axis.
    """
    ps = [apply_axis(p, axis, x) for x in xs]
    for end in (ps[0], ps[-1]):
        try:
            validate_params(end)
        except QdResponseError as exc:
            raise InvalidGrid(f"{axis.value} grid reaches an invalid point: "
                              f"{exc}") from None
    root_sets = inversion_roots(map(_cubic, ps))
    return list(zip(xs, ps, _branch_sets(ps, root_sets)))


# -- branch assembly ---------------------------------------------------------

def _public_row(p: Params, w0: float):
    """``_float_row`` at the root ``w0`` of ``p``, each failure typed for the
    public per-root functions: ``NonFinite`` on a coefficient pole, and
    where a field or a Jacobian entry is not finite."""
    try:
        row = _float_row(w0, _row_columns(p))
    except ZeroDivisionError:
        raise NonFinite("the root is on a coefficient pole: its fields divide by zero") from None
    s, a, q0, _, _, entries = row
    if not all(map(math.isfinite, (*s, *a, q0, *entries))):
        raise NonFinite(_BRANCH_OVERFLOW)
    return row


def steady_fields(p: Params, w0: float) -> tuple[complex, complex, float]:
    """(sigma0, a0, q0) reconstructed from the coefficient set at ``w0`` by
    ``_branch_row`` on Python floats, or ``NonFinite`` (``_public_row``):
    on a coefficient pole, or where a field or a Jacobian entry is not finite.

    q0 = -2 eta omega_k0 w0: the displacement sign convention is pinned to the
    coefficient set (ledger entry ``phonon-displacement-sign``).
    """
    s, a, q0, *_ = _public_row(p, w0)
    return complex(*s), complex(*a), q0


def mean_field_jacobian(p: Params, w0: float) -> np.ndarray:
    """Jacobian of the 7-dim real mean-field system about the branch at
    ``w0``: ``_branch_row``'s entries, raising as ``steady_fields`` does.

    State ordering: (w, Re sigma, Im sigma, Re a, Im a, q, dq/dt).
    """
    return np.reshape(_public_row(p, w0)[5], (7, 7))


# CPython's complex arithmetic (_Py_c_prod, _Py_c_sum, _Py_c_quot, _Py_c_abs) on (re, im)
# pairs of Python floats or float arrays, float operation by float operation; x is (x, 0.0).

def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _div_floats(a, b):
    """``a / b`` as ``_Py_c_quot`` computes it, Smith's branch picked by an
    ``if``: ``ZeroDivisionError`` where b = 0, NaN where b has a NaN part."""
    if abs(b[0]) >= abs(b[1]):
        if b[0] == 0.0:
            raise ZeroDivisionError("complex division by zero")
        ratio = b[1] / b[0]
        denom = b[0] + b[1] * ratio
        return (a[0] + a[1] * ratio) / denom, (a[1] - a[0] * ratio) / denom
    if abs(b[1]) >= abs(b[0]):
        ratio = b[0] / b[1]
        denom = b[0] * ratio + b[1]
        return (a[0] * ratio + a[1]) / denom, (a[1] * ratio - a[0]) / denom
    return math.nan, math.nan


def _div(a, b, on_pole):
    """``_div_floats`` on arrays, the branch picked per element; sets
    ``on_pole`` where it raises."""
    on_pole |= (b[0] == 0.0) & (b[1] == 0.0)
    first = abs(b[0]) >= abs(b[1])
    ratio = np.where(first, b[1] / b[0], b[0] / b[1])
    denom = np.where(first, b[0] + b[1] * ratio, b[0] * ratio + b[1])
    return (np.where(first, a[0] + a[1] * ratio, a[0] * ratio + a[1]) / denom,
            np.where(first, a[1] - a[0] * ratio, a[1] * ratio - a[0]) / denom)


def _abs_floats(z):
    """``abs(z)`` by CPython's hypot, ``OverflowError`` where it overflows;
    ``math.hypot`` (NaN, or inf beside an infinite part) where a part is NaN,
    since CPython's abs there raises if errno holds a stale ERANGE."""
    return abs(complex(*z)) if z[0] == z[0] and z[1] == z[1] else math.hypot(*z)


def _abs(z, overflow):
    """``_abs_floats`` on arrays; sets ``overflow`` where it raises."""
    modulus = np.hypot(*z)
    overflow |= np.isinf(modulus) & np.isfinite(z[0]) & np.isfinite(z[1])
    return modulus


def _branch_row(w, dp, dc, kc, g0, eta, ep0, g1, wk, gq, wk2, wk3, div, mag):
    """The one transcription of a real root ``w``'s fields, fixed-point check
    and Jacobian, after its point's ``_row_columns``: (sigma0, a0, q0, total,
    passes, entries), sigma0 and a0 (re, im) pairs and entries the Jacobian's
    49, row by row.  ``passes`` where each fixed-point equation, scaled by
    its terms before they cancel, is at most ``_FIXED_POINT_BOUND``;
    ``total`` sums the four, NaN iff one is.  Python floats (``_loop_rows``)
    and a stack's columns (``_array_rows``) run it alike; only the complex
    quotient ``div`` and modulus ``mag`` differ."""
    j, neg_j, two_j = (0.0, 1.0), (-0.0, -1.0), (0.0, 2.0)
    # coherence_amplitudes' c1 and a1 (c2 and a2 divide by d1's and ka's
    # conjugates but for the signs of zeros, so raise where these do)
    shift = dp - 2.0 * wk * eta * w
    ka = _add(_mul(j, (dc, 0.0)), (kc, 0.0))
    gw = _mul(_mul(_mul(two_j, (g0, 0.0)), (g0, 0.0)), (w, 0.0))
    d1 = _add(_mul(ka, (shift - 0.0, 0.0 - 1.0)), gw)
    s = div((2.0 * g0 * w * ep0, 0.0), d1)
    i_c = _mul(_mul(j, (g0, 0.0)), s)
    a = div((ep0 - i_c[0], 0.0 - i_c[1]), ka)
    q0 = -2.0 * eta * wk * w
    t2 = 2.0 * g0 * (a[0] * -s[1] + a[1] * s[0])
    r_w = abs(-g1 * (w + 1.0) + t2) / (g1 * (abs(w) + 1.0) + abs(t2) + 1.0)
    lead = _mul(j, (dp + q0, 0.0))
    ts = _mul((-(1.0 + lead[0]), -(0.0 + lead[1])), s)
    td = _mul(_mul(_mul(two_j, (g0, 0.0)), a), (w, 0.0))
    r_s = mag(_add(ts, td)) / ((1.0 + abs(dp) + abs(q0)) * mag(s) + mag(td) + 1.0)
    ta = _mul((-ka[0], -ka[1]), a)
    tg = _mul(_mul(neg_j, (g0, 0.0)), s)
    r_a = mag(_add(_add(ta, tg), (ep0, 0.0))) / (mag(ta) + mag(tg) + ep0 + 1.0)
    tq, tw = wk2 * q0, 2.0 * eta * wk3 * w
    r_q = abs(tq + tw) / (abs(tq) + abs(tw) + 1.0)
    bound = _FIXED_POINT_BOUND
    passes = (r_w <= bound) & (r_s <= bound) & (r_a <= bound) & (r_q <= bound)
    (x0, y0), (u0, v0) = s, a
    up, down, dpq = 2 * g0, -2 * g0, dp + q0
    return s, a, q0, r_w + r_s + r_a + r_q, passes, (
        -g1, up * v0, down * u0, down * y0, up * x0, 0.0, 0.0,
        down * v0, -1.0, dpq, 0.0, down * w, y0, 0.0,
        up * u0, -dpq, -1.0, up * w, 0.0, -x0, 0.0,
        0.0, 0.0, g0, -kc, dc, 0.0, 0.0,
        0.0, -g0, 0.0, -dc, -kc, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0,
        -2.0 * eta * wk3, 0.0, 0.0, 0.0, 0.0, -wk2, -gq)


def _float_row(w0: float, columns: tuple):
    """``_branch_row`` at the root ``w0`` on a point's Python floats
    (``_row_columns``), or ``NonFinite`` raised where the root overflows: a
    modulus overflows, omega_k0 ** 3 does, or the check is NaN from finite
    fields and parameters.  A root on a coefficient pole raises
    ``ZeroDivisionError``."""
    try:
        row = _branch_row(w0, *columns, _div_floats, _abs_floats)
    except OverflowError:
        raise NonFinite(_BRANCH_OVERFLOW) from None
    s, a, q0, total, _, _ = row
    if math.isinf(columns[-1]) or total != total and all(
            map(math.isfinite, (w0, q0, *s, *a, *columns[:8]))):
        raise NonFinite(_BRANCH_OVERFLOW)
    return row


def _row_columns(p: Params) -> tuple:
    """``p``'s parameters in ``_branch_row``'s order, then Python's
    omega_k0 ** 2 and ** 3, infinite where they overflow."""
    try:
        powers = float(p.omega_k0 ** 2), float(p.omega_k0 ** 3)
    except OverflowError:  # ** 2 raises only where ** 3 does
        powers = math.inf, math.inf
    return (p.delta_p0, p.delta_c0, p.kappa_c0, p.g0, p.eta, p.ep0, p.gamma1_ratio,
            p.omega_k0, p.gamma_q0, *powers)


#: A stack of fewer Jacobians than this keeps ``eigvals`` whole: below it the
#: characteristic polynomial's fixed cost, about 0.2 ms, is more than
#: ``eigvals`` takes at about 9 us a matrix (measured on 2a-3b Jacobians:
#: at 24 matrices the polynomial takes 0.98 of eigvals' time, at 20 1.1).
_POLY_STACK = 24
#: A Routh first-column entry, or a coefficient, within this fraction of the
#: magnitudes it is made from does not certify its label.
_ROUTH_BAND = 1e-6
#: ``eigvals``' rounding of a real part relative to ``||J||_F``: where it
#: reaches ``STABILITY_TOL``, eigvals' own label is rounding.
_EIGVALS_EPS = 1.1e-15
#: Flat indices (7 row + column) of the entries ``_char_poly`` reads, in its
#: order; the twin entries its factorization assumes, (J22, J44, J12, J14,
#: J34, J32) = (J11, J33, -J21, -J23, -J43, -J41); and every other entry,
#: which it assumes zero.
_POLY_READ = [0, 1, 2, 3, 4, 7, 8, 12, 14, 15, 17, 19, 24, 29, 31, 40, 41, 42, 47, 48]
_POLY_TWIN = [16, 32, 9, 11, 25, 23]
_TWIN_OF = [_POLY_READ.index(k) for k in (8, 24, 15, 17, 31, 29)]
_TWIN_SIGN = np.array([[1.0], [1.0], [-1.0], [-1.0], [-1.0], [-1.0]])
_POLY_ZERO = sorted(set(range(49)) - set(_POLY_READ) - set(_POLY_TWIN))
#: The ascending coefficients of P(mu - tol) and P(mu + tol) from P's, and
#: the moduli of either map, which carry P's bound to theirs.
_SHIFTS = np.array([[[math.comb(j, k) * (sign * STABILITY_TOL) ** (j - k) if j >= k else 0.0
                      for j in range(8)] for k in range(8)] for sign in (-1.0, 1.0)])
_SHIFTS_ABS = abs(_SHIFTS[0])
_LABELS = (_STABLE, _UNSTABLE, _MARGINAL)


def _padd(a, b):
    """The sum of two polynomials, (degree + 1, ...) arrays of ascending
    coefficients, ``a`` at least as long as ``b``."""
    out = a.copy()
    out[:len(b)] += b
    return out


def _pmul(a, b):
    """The product of two polynomials, as ``_padd`` takes them."""
    if len(a) > len(b):
        a, b = b, a
    out = np.zeros((len(a) + len(b) - 1, *b.shape[1:]))
    for k, ak in enumerate(a):
        out[k:k + len(b)] += ak * b
    return out


def _char_poly(e, s):
    """The ascending coefficients of det(lambda I - J) for columns ``e`` of
    the ``_POLY_READ`` entries, with ``s`` = -1; with s = +1 and ``|e|``, the
    same expression on absolute values, which bounds its rounding.

    The (sigma, a) block is the real form of the complex 2x2 matrix
    K = [[J11 + i J21, i J23], [i J41, J33 + i J43]], so its determinant is
    |p|^2, p = det(lambda - K) = A - i B; the w row r and column c border it
    through T = conj(rho1) (lambda - K22) + conj(rho2) K21, rho the complex
    pairs of r, and the phonon pair (q, dq/dt) couples only through J60 and
    column 5, b.  With U + i V = conj(p) T:
    det5 = (lambda - J00) |p|^2 - Re((J10 + i J20) (U + i V)),
    R = Re((J15 + i J25) (U + i V)),
    P = ((lambda - J55) (lambda - J66) - J56 J65) det5 - J60 J56 R.
    """
    e00, e01, e02, e03, e04, e10, e11, e15, e20, e21, e23, e25, e33, e41, e43, \
        e55, e56, e60, e65, e66 = e
    one = np.ones_like(e00)
    alpha, gamma = np.stack((s * e11, one)), np.stack((s * e33, one))
    a = _pmul(alpha, gamma)
    a[0] += s * (e21 * e43) + e23 * e41
    b = np.stack((s * (e43 * e11 + e21 * e33), e43 + e21))
    tr = e01 * gamma
    tr[0] += s * (e02 * e43) + e04 * e41
    ti = (s * e02) * gamma
    ti[0] += e03 * e41 + s * (e01 * e43)
    u = _padd(_pmul(a, tr), s * _pmul(b, ti))
    v = _padd(_pmul(a, ti), _pmul(b, tr))
    det5 = _pmul(np.stack((s * e00, one)), _padd(_pmul(a, a), _pmul(b, b)))
    det5[:4] += s * (e10 * u) + e20 * v
    phi = _pmul(np.stack((s * e55, one)), np.stack((s * e66, one)))
    phi[0] += s * (e56 * e65)
    p = _pmul(phi, det5)
    p[:4] += s * (e60 * e56) * (e15 * u + s * (e25 * v))
    return p


def _routh_labels(stack) -> tuple[np.ndarray, np.ndarray]:
    """(code, unsure) of each matrix of a stack: its label's index in
    ``_LABELS`` by Routh's first column of P(lambda -+ STABILITY_TOL), and
    whether that label is not certified (see ``classify_stability``)."""
    n = len(stack)
    flat = stack.reshape(n, 49)
    with np.errstate(all="ignore"):
        e = flat.T[_POLY_READ]
        unsure = flat.T[_POLY_ZERO].any(axis=0)
        unsure |= (flat.T[_POLY_TWIN] != _TWIN_SIGN * e[_TWIN_OF]).any(axis=0)
        unsure |= np.einsum("ij,ij->i", flat, flat) * _EIGVALS_EPS ** 2 >= STABILITY_TOL ** 2
        c = _char_poly(np.concatenate((e, abs(e)), axis=1), np.repeat([-1.0, 1.0], n))
        q = _SHIFTS @ c[:, :n]
        unsure |= (abs(q) <= _ROUTH_BAND * (_SHIFTS_ABS @ c[:, n:])).any(axis=(0, 1))
        d = q.transpose(1, 0, 2)[::-1]  # descending, (8, shift, n)
        rows = np.zeros((8, 4, 2, n))  # the Routh array, each row zero-padded
        rows[0], rows[1] = d[0::2], d[1::2]
        products = []
        for k in range(2, 7):
            left, cross = rows[k - 1, 0] * rows[k - 2, 1:], rows[k - 2, 0] * rows[k - 1, 1:]
            products.append((left[0], cross[0]))
            rows[k, :3] = (left - cross) / rows[k - 1, 0]
        rows[7, 0] = d[7]  # the array's last entry is q0
        column = rows[:, 0]
        left, cross = np.array(products).swapaxes(0, 1)
        unsure |= (abs(left - cross) <= _ROUTH_BAND * (abs(left) + abs(cross))).any(axis=(0, 1))
        unsure |= ~np.isfinite(column).all(axis=(0, 1))
    stable = (column[:, 0] > 0.0).all(axis=0)
    unstable = (column[:, 1] < 0.0).any(axis=0)
    return np.where(stable, 0, np.where(unstable, 1, 2)), unsure


def _eigvals_labels(stack) -> list:
    """Each matrix's label from its own ``eigvals``, or its typed error."""
    try:
        tops = np.linalg.eigvals(stack).real.max(axis=-1).tolist()
    except np.linalg.LinAlgError:
        if len(stack) > 1:  # find the failing matrices
            return [label for jacobian in stack for label in _eigvals_labels(jacobian[None])]
        if np.isfinite(stack).all():
            return [NoConvergence("the eigenvalues of a steady branch's Jacobian "
                                  "did not converge: no stability label")]
        return [NonFinite("a steady branch's Jacobian is not finite: no stability label")]
    return [_STABLE if top < -STABILITY_TOL
            else _UNSTABLE if top > STABILITY_TOL
            else _MARGINAL for top in tops]


def classify_stability(jacobians) -> list:
    """The label of each Jacobian of a stack, by the largest real part of its
    eigenvalues against ``STABILITY_TOL``, or its typed error: ``NonFinite``
    for a non-finite matrix, ``NoConvergence`` where ``eigvals`` fails.

    A stack of ``_POLY_STACK`` or more labels each matrix from its
    characteristic polynomial P = det(lambda I - J), written for the
    mean-field Jacobian's sparsity in a hand-factored closed form
    (``_char_poly``): the (sigma, a) block is the real form of a complex 2x2
    matrix, the w row and column border it, and the phonon pair enters only
    through J60 and column 5, so P = (lambda^2 + gamma_q lambda +
    omega_k^2) det5 + 2 eta omega_k^3 R, with det5 the 5x5 dot-cavity
    block's and R a cubic.  P(lambda - tol) is Hurwitz, by Routh's first
    column all positive (Gantmacher, The Theory of Matrices, vol. 2,
    ch. XV), exactly where every real part is below -tol: the label is
    Stable.  Else a sign change in the column of P(lambda + tol) puts a real
    part above tol: Unstable; else Marginal.  The polynomial cannot certify
    eigvals' own label, and the matrix takes ``eigvals``, where
    - it lacks the sparsity or the twin entries the factorization assumes;
    - a coefficient or a first-column entry is not finite;
    - a coefficient of either P is within ``_ROUTH_BAND`` of its running
      error bound, the same expression on absolute values (Higham, ch. 5);
    - a first-column entry is within ``_ROUTH_BAND`` of the two products it
      is made from: a root within rounding of the margin;
    - ``||J||_F * _EIGVALS_EPS`` reaches ``STABILITY_TOL``, where eigvals'
      rounding alone can move a real part across the margin.

    A smaller stack, and so every lone point, keeps ``eigvals`` whole: there
    the polynomial's fixed cost is more than ``eigvals``' cost per matrix
    saves.  ``eigvals`` of a stack gives each matrix the real parts it gets
    alone, so no label depends on the rest of the stack.
    """
    stack = np.asarray(jacobians, dtype=float)
    if len(stack) < _POLY_STACK:
        return _eigvals_labels(stack)
    codes, unsure = _routh_labels(stack)
    labels = [_LABELS[code] for code in codes.tolist()]
    rows = np.flatnonzero(unsure).tolist()
    for k, label in zip(rows, _eigvals_labels(stack[rows]) if rows else ()):
        labels[k] = label
    return labels


def _loop_rows(ps, out) -> tuple[list, np.ndarray]:
    """``_branch_sets``' kept roots and Jacobian stack for one point, root by
    root on Python floats: a pole drops a root, an overflow fails the point."""
    kept, rows = [], []  # (0, w0, residual, sigma0, a0, q0) and entries per kept root
    found, columns = out[0], _row_columns(ps[0])
    try:
        for w0, res in [] if isinstance(found, Exception) else zip(found[0], found[1]):
            try:
                s, a, q0, _, passes, row = _float_row(w0, columns)
            except ZeroDivisionError:  # a root on a coefficient pole
                continue
            if passes:
                kept.append((0, w0, res, complex(*s), complex(*a), q0))
                rows.append(row)
    except NonFinite as exc:
        kept, rows, out[0] = [], [], exc
    return kept, np.array(rows).reshape(-1, 7, 7)


def _array_rows(ps, out) -> tuple[list, np.ndarray]:
    """``_loop_rows`` in one ``_branch_row`` on the stack's columns: ``_div``
    and ``_abs`` mark where it raises, a pole's mark before an overflow's."""
    found = [(i, f) for i, f in enumerate(out) if not isinstance(f, Exception)]
    point = np.array([i for i, f in found for _ in f[0]], int)
    w0, res = (np.array([x for _, f in found for x in f[k]], float) for k in (0, 1))
    cols = np.array([_row_columns(p) for p in ps]).T[:, point]
    on_pole, overflow = np.zeros(len(w0), bool), np.isinf(cols[-1])
    with np.errstate(all="ignore"):
        s, a, q0, total, passes, row = _branch_row(
            w0, *cols, lambda x, y: _div(x, y, on_pole), lambda z: _abs(z, overflow))
        nan = np.isnan(total)
        if nan.any():  # a NaN residual from finite fields and parameters
            overflow |= nan & np.isfinite(np.stack((w0, q0, *s, *a, *cols[:8]))).all(axis=0)
    entries = np.empty((49, len(w0)))
    for k, column in enumerate(row):
        entries[k] = column
    failing = np.isin(point, point[overflow & ~on_pole])
    for i in set(point[failing].tolist()):
        out[i] = NonFinite(_BRANCH_OVERFLOW)
    rows = np.flatnonzero(passes & ~on_pole & ~failing)
    sigma0, a0 = (np.stack(z, axis=-1).view(complex).ravel() for z in (s, a))
    kept = zip(*(column[rows].tolist() for column in (point, w0, res, sigma0, a0, q0)))
    return list(kept), entries[:, rows].T.reshape(-1, 7, 7)


def _branch_sets(ps, root_sets) -> list:
    """Each ``inversion_roots`` entry of ``ps`` with the point's branches
    appended, (real, resid, cplx, branches), or the error the point raises.

    Each real root's fields, check and Jacobian come from ``_branch_row``,
    root by root on a lone point's Python floats (``_loop_rows``) and in one
    array pass on a larger stack's columns (``_array_rows``), so each root
    gets the bits it gets alone.  The kept roots' Jacobians form one
    (n, 7, 7) stack, labelled in one ``classify_stability``; each branch's
    ``jacobian`` is its row.  A root whose fields divide by zero sits on a
    coefficient pole and is dropped.  Errors stay with their point, to be
    raised at its turn: an overflow in any other root's check or Jacobian is
    its ``NonFinite``, and a root whose Jacobian has no label gives the point
    that label's typed error.  Branches are made here, by ``_filled``.
    """
    out = list(root_sets)
    kept, stack = (_loop_rows if len(ps) < 2 else _array_rows)(ps, out)
    labels = classify_stability(stack)
    branches = [[] for _ in ps]
    for (i, w0, res, sigma0, a0, q0), label, jacobian in zip(kept, labels, stack):
        if isinstance(label, Exception):
            out[i] = label
            continue
        branches[i].append(_filled(SteadyBranch, {
            "w0": w0, "a0": a0, "sigma0": sigma0, "q0": q0, "residual": res,
            "stability": label, "physical": _PHYSICAL_LO <= w0 <= _PHYSICAL_HI,
            "jacobian": jacobian}))
    for i, found in enumerate(out):
        if not isinstance(found, Exception):
            out[i] = (*found, branches[i]) if branches[i] else NoRealRoot(
                "all real roots rejected as pole-cancellation artifacts")
    return out


def solve_steady_branches(p: Params, *, roots=None) -> list[SteadyBranch]:
    """All steady-state branches, sorted by w0 ascending.

    ``roots`` is the point's ``grid_roots`` entry when the caller holds one:
    its branch list is returned as it is, shared by every caller of the
    entry, or its error raised.  Otherwise the point's cubic is
    ``_cubic(p)``, as on a grid, and both later stages run on this one
    point as a stack of one, ``_branch_sets([p], inversion_roots([_cubic(p)]))``,
    its rows from ``_branch_row`` on Python floats.

    Complex cubic roots are discarded; real roots that are pole-cancellation
    artifacts of denominator clearing (possible only at degenerate corners
    such as zero pump) are filtered by checking the mean-field fixed-point
    residual, or dropped where they sit exactly on the pole.  Roots outside
    [-1, 0] are returned but marked non-physical.
    """
    if roots is None:
        roots = _branch_sets([p], inversion_roots([_cubic(p)]))[0]
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
        stable = [b for b in branches if b.stability is _STABLE]
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
