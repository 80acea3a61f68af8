"""Independent ground truth: time-domain integration and lock-in demodulation.

The mean-field equations are integrated with a fixed-step classical
Runge-Kutta scheme; no adaptivity, so trajectories are bit-reproducible.  The
settled tail of a driven trajectory is projected onto the three-tone basis
{1, e^{-i delta t}, e^{+i delta t}} with a Gram-corrected discrete inner
product, which removes finite-window leakage and recovers pure tones to
machine precision.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, InvalidGrid, NonFinite, NotSettled, ZeroDelta
from .model import Params
from .steady import SteadyBranch

__all__ = [
    "Trajectory",
    "DemodResult",
    "mean_field_rhs",
    "steady_state_vector",
    "max_step",
    "integrate_mean_field",
    "demodulate_sidebands",
    "perturbation_outcome",
    "relative_deviation",
    "dump_trajectory",
]

#: Tolerance on the two-level bound |w| <= 1 during integration.
BOUND_EPS = 1e-6
#: DC drift between the last two analysis windows that counts as settled.
SETTLE_DRIFT = 1e-6
#: Signal periods in each analysis window of ``demodulate_sidebands``.
DEMOD_PERIODS = 20
#: ``perturbation_outcome``: the inversion kick, the distance that counts as
#: departure, the integration span between distance checks, and the time
#: after which the outcome is inconclusive.
KICK = 1e-6
DEPARTURE = 1e-3
CHECK_SPAN = 5.0
HORIZON = 300.0
#: One trajectory row, seven native doubles.
_ROW = struct.Struct("7d")


@dataclass(frozen=True)
class Trajectory:
    """Sampled mean-field trajectory: ``y[k]`` is the state at ``t[k]``, in
    the order (w, Re sigma, Im sigma, Re a, Im a, q, qdot) of
    ``mean_field_rhs`` and ``steady_state_vector``."""

    t: np.ndarray
    y: np.ndarray
    dt: float


@dataclass(frozen=True)
class DemodResult:
    """Three-tone projections of the settled trajectory tail."""

    a0: complex
    a_plus: complex
    a_minus: complex
    sigma0: complex
    sigma_plus: complex
    sigma_minus: complex
    w0: float
    w_plus: complex
    q0: float
    q_plus: complex
    drift: float
    energy_fraction: float


def mean_field_rhs(p: Params, state, t: float = 0.0, es0: float | None = None):
    """Right-hand side of the 7-dim real system.

    State ordering (w, Re sigma, Im sigma, Re a, Im a, q, qdot).  The phonon
    equation is the damped-oscillator form whose fixed point matches the
    steady module's displacement convention.

    This is the one readable statement of the equations.  The RK4 step of
    ``integrate_mean_field`` is unrolled from it term for term (up to the
    exact identity its docstring names), evaluates the drive once per
    distinct stage time, and is pinned to it bit for bit by the tests.
    """
    if es0 is None:
        es0 = p.es0
    w, sx, sy, au, av, q, pq = state
    g0 = p.g0
    shift = p.delta_p0 + q
    return (
        -p.gamma1_ratio * (w + 1.0) + 2.0 * g0 * (av * sx - au * sy),
        -sx + shift * sy - 2.0 * g0 * av * w,
        -sy - shift * sx + 2.0 * g0 * au * w,
        -p.kappa_c0 * au + p.delta_c0 * av + g0 * sy + p.ep0
        + es0 * math.cos(p.delta0 * t),
        -p.kappa_c0 * av - p.delta_c0 * au - g0 * sx
        - es0 * math.sin(p.delta0 * t),
        pq,
        -p.gamma_q0 * pq - p.omega_k0 ** 2 * q
        - 2.0 * p.eta * p.omega_k0 ** 3 * w,
    )


def steady_state_vector(branch: SteadyBranch) -> tuple:
    """Initial condition sitting exactly on a steady branch."""
    return (branch.w0, branch.sigma0.real, branch.sigma0.imag,
            branch.a0.real, branch.a0.imag, branch.q0, 0.0)


def max_step(p: Params) -> float:
    """Largest step that resolves the fastest scale of the system."""
    tau = min(1.0, 2.0 * math.pi / p.omega_k0,
              2.0 * math.pi / max(1.0, abs(p.delta0)))
    return 0.02 * tau


def integrate_mean_field(p: Params, init, t_end: float, dt: float,
                         es0: float | None = None) -> Trajectory:
    """Fixed-step RK4 integration of the mean-field equations.

    ``init`` is the 7-component real state; ``es0`` overrides the signal
    amplitude (defaults to ``p.es0``).  Raises ``BoundViolation`` when the
    inversion leaves [-1, 1] by more than ``BOUND_EPS`` and ``NonFinite`` for
    a non-finite ``init`` or on numerical blow-up.

    The four stages are ``mean_field_rhs`` unrolled inline, term for term in
    its operation order up to one exact IEEE-754 identity, with the
    parameters bound once per integration; the tests pin the trajectory bit
    for bit to four ``mean_field_rhs`` calls per step.  The identity is
    ``-a + b == b - a``, which drops the leading negation of each Re sigma
    stage.  The Im sigma stages keep theirs: ``(-a - b) + c`` and
    ``c - (a + b)`` differ in the sign of a zero when ``a == -b`` and
    ``c`` is ``-0.0``, which an undriven trajectory reaches.  The drive is
    evaluated once per distinct time: k2 and k3 share ``t + dt/2``, and
    k4's ``t + dt`` is the next step's ``t``.  Each step's state is packed
    into the row's bytes of the output array by one ``struct`` call.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise InvalidGrid(f"t_end and dt must be positive and finite, got {t_end}, {dt}")
    if dt > max_step(p) * (1.0 + 1e-12):
        raise InvalidGrid(
            f"dt={dt} exceeds the resolution bound {max_step(p):.6g} "
            "for these parameters")
    es = p.es0 if es0 is None else es0
    y = tuple(float(v) for v in init)
    if len(y) != 7:
        raise InvalidGrid("initial state must have 7 components")
    if not all(map(math.isfinite, y)):
        raise NonFinite(f"initial state {y} is not finite")
    try:
        n = int(round(t_end / dt))
        out = np.empty((n + 1, 7))
    except (OverflowError, ValueError):  # round(inf); a shape numpy refuses
        raise InvalidGrid(f"t_end/dt = {t_end / dt:.6g} steps do not fit in "
                          "an array") from None
    out[0] = y
    h2 = 0.5 * dt
    h6 = dt / 6.0
    lo, hi = -1.0 - BOUND_EPS, 1.0 + BOUND_EPS
    if not lo <= y[0] <= hi:
        raise BoundViolation(f"initial inversion {y[0]} outside [-1, 1]")
    cos, sin = math.cos, math.sin
    ng1 = -p.gamma1_ratio
    g2 = 2.0 * p.g0
    g0 = p.g0
    dp = p.delta_p0
    nk = -p.kappa_c0
    dc = p.delta_c0
    ep = p.ep0
    d0 = p.delta0
    ngq = -p.gamma_q0
    wk2 = p.omega_k0 ** 2
    c3 = 2.0 * p.eta * p.omega_k0 ** 3
    w, sx, sy, au, av, q, pq = y
    t = 0.0
    # the signal drive (es cos, es sin) at the stage time; the one at k4's
    # time t + dt is the next step's k1 drive
    er = es * cos(d0 * t)
    ei = es * sin(d0 * t)
    for offset in range(_ROW.size, (n + 1) * _ROW.size, _ROW.size):
        s = dp + q
        k1w = ng1 * (w + 1.0) + g2 * (av * sx - au * sy)
        k1sx = s * sy - sx - g2 * av * w
        k1sy = -sy - s * sx + g2 * au * w
        k1au = nk * au + dc * av + g0 * sy + ep + er
        k1av = nk * av - dc * au - g0 * sx - ei
        k1pq = ngq * pq - wk2 * q - c3 * w
        th = t + h2
        er = es * cos(d0 * th)
        ei = es * sin(d0 * th)
        w2 = w + h2 * k1w
        sx2 = sx + h2 * k1sx
        sy2 = sy + h2 * k1sy
        au2 = au + h2 * k1au
        av2 = av + h2 * k1av
        q2 = q + h2 * pq
        pq2 = pq + h2 * k1pq
        s = dp + q2
        k2w = ng1 * (w2 + 1.0) + g2 * (av2 * sx2 - au2 * sy2)
        k2sx = s * sy2 - sx2 - g2 * av2 * w2
        k2sy = -sy2 - s * sx2 + g2 * au2 * w2
        k2au = nk * au2 + dc * av2 + g0 * sy2 + ep + er
        k2av = nk * av2 - dc * au2 - g0 * sx2 - ei
        k2pq = ngq * pq2 - wk2 * q2 - c3 * w2
        w3 = w + h2 * k2w
        sx3 = sx + h2 * k2sx
        sy3 = sy + h2 * k2sy
        au3 = au + h2 * k2au
        av3 = av + h2 * k2av
        q3 = q + h2 * pq2
        pq3 = pq + h2 * k2pq
        s = dp + q3
        k3w = ng1 * (w3 + 1.0) + g2 * (av3 * sx3 - au3 * sy3)
        k3sx = s * sy3 - sx3 - g2 * av3 * w3
        k3sy = -sy3 - s * sx3 + g2 * au3 * w3
        k3au = nk * au3 + dc * av3 + g0 * sy3 + ep + er
        k3av = nk * av3 - dc * au3 - g0 * sx3 - ei
        k3pq = ngq * pq3 - wk2 * q3 - c3 * w3
        t += dt
        er = es * cos(d0 * t)
        ei = es * sin(d0 * t)
        w4 = w + dt * k3w
        sx4 = sx + dt * k3sx
        sy4 = sy + dt * k3sy
        au4 = au + dt * k3au
        av4 = av + dt * k3av
        q4 = q + dt * pq3
        pq4 = pq + dt * k3pq
        s = dp + q4
        w += h6 * (k1w + 2.0 * (k2w + k3w)
                   + (ng1 * (w4 + 1.0) + g2 * (av4 * sx4 - au4 * sy4)))
        sx += h6 * (k1sx + 2.0 * (k2sx + k3sx)
                    + (s * sy4 - sx4 - g2 * av4 * w4))
        sy += h6 * (k1sy + 2.0 * (k2sy + k3sy)
                    + (-sy4 - s * sx4 + g2 * au4 * w4))
        au += h6 * (k1au + 2.0 * (k2au + k3au)
                    + (nk * au4 + dc * av4 + g0 * sy4 + ep + er))
        av += h6 * (k1av + 2.0 * (k2av + k3av)
                    + (nk * av4 - dc * au4 - g0 * sx4 - ei))
        q += h6 * (pq + 2.0 * (pq2 + pq3) + pq4)
        pq += h6 * (k1pq + 2.0 * (k2pq + k3pq)
                    + (ngq * pq4 - wk2 * q4 - c3 * w4))
        if not lo <= w <= hi:
            if w != w:
                raise NonFinite(f"state became NaN at t={t:.6g}")
            raise BoundViolation(
                f"inversion w={w:.6g} left [-1, 1] at t={t:.6g}")
        if not -1e12 < sx + sy + au + av + q + pq < 1e12:
            raise NonFinite(f"state diverged at t={t:.6g}")
        _ROW.pack_into(out, offset, w, sx, sy, au, av, q, pq)
    return Trajectory(t=np.arange(n + 1) * dt, y=out, dt=dt)


def _project(tw: np.ndarray, signals, delta0: float):
    """Each signal's three-tone coefficients, one column per signal, from one
    basis and Gram matrix, and the energy fraction of the first signal that
    the tones hold."""
    basis = np.empty((tw.size, 3), dtype=complex)
    basis[:, 0] = 1.0
    basis[:, 1] = np.exp(-1j * delta0 * tw)
    basis[:, 2] = np.conj(basis[:, 1])
    bh = basis.conj().T
    coef = np.linalg.solve(bh @ basis, np.stack([bh @ s for s in signals], axis=1))
    first = signals[0]
    resid = first - basis @ coef[:, 0]
    denom = float(np.sum(np.abs(first) ** 2))
    frac = 1.0 - float(np.sum(np.abs(resid) ** 2)) / denom if denom > 0 else 1.0
    return coef, frac


def demodulate_sidebands(traj: Trajectory, delta0: float) -> DemodResult:
    """Project the settled tail onto DC and the two first-order tones.

    The window spans ``DEMOD_PERIODS`` signal periods (snapped to whole
    samples); the DC values of the preceding window must agree within
    ``SETTLE_DRIFT`` or ``NotSettled`` is raised.
    """
    if delta0 == 0.0:
        raise ZeroDelta("demodulation needs a nonzero signal-pump detuning")
    if not math.isfinite(delta0):
        raise NonFinite(f"sideband detuning delta0={delta0!r} is not finite")
    period = 2.0 * math.pi / abs(delta0)
    nw = int(round(DEMOD_PERIODS * period / traj.dt))
    if nw < 8 or 2 * nw > traj.t.size:
        raise NotSettled(
            f"trajectory too short: need {2 * nw} samples for two analysis "
            f"windows, have {traj.t.size}")
    # the channels a, sigma, w and q over the preceding and the tail window
    y = traj.y[-2 * nw:]
    chans = (y[:, 3] + 1j * y[:, 4], y[:, 1] + 1j * y[:, 2], y[:, 0], y[:, 5])
    drift = max(abs(np.mean(c[nw:]) - np.mean(c[:nw])) for c in chans)
    if drift >= SETTLE_DRIFT:
        raise NotSettled(f"DC drift {drift:.3e} >= {SETTLE_DRIFT}")
    coef, frac_a = _project(
        traj.t[-nw:], [c[nw:].astype(complex, copy=False) for c in chans], delta0)
    ca, cs, cw, cq = coef.T
    return DemodResult(
        a0=complex(ca[0]), a_plus=complex(ca[1]), a_minus=complex(ca[2]),
        sigma0=complex(cs[0]), sigma_plus=complex(cs[1]),
        sigma_minus=complex(cs[2]),
        w0=float(cw[0].real), w_plus=complex(cw[1]),
        q0=float(cq[0].real), q_plus=complex(cq[1]),
        drift=float(drift), energy_fraction=frac_a,
    )


def perturbation_outcome(p: Params, branch: SteadyBranch) -> str:
    """Integrate a perturbed branch with the pump only and classify the outcome.

    The inversion is kicked by ``KICK``.  Returns "decayed" once the state
    comes back within ``0.02 * KICK`` of the branch, "departed" once any
    component moves beyond ``DEPARTURE`` (or the integration blows up),
    otherwise "inconclusive" at ``HORIZON``.  The displacement velocity is
    weighted by 1/omega_k0 so that the metric is the oscillator phase-space
    norm; an inversion kick transiently rings the displacement velocity by
    ~2 eta omega_k0^2 times its size, which would otherwise masquerade as
    departure.
    """
    p0 = p.replace(es0=0.0, delta0=0.0)
    ref = np.array(steady_state_vector(branch))
    weights = np.array([1.0] * 6 + [1.0 / max(1.0, p.omega_k0)])
    state = tuple(v + (KICK if i == 0 else 0.0) for i, v in enumerate(ref))
    dt = min(max_step(p0), CHECK_SPAN / 10.0)
    elapsed = 0.0
    while elapsed < HORIZON:
        span = min(CHECK_SPAN, HORIZON - elapsed)
        try:
            traj = integrate_mean_field(p0, state, span, dt)
        except (BoundViolation, NonFinite):
            return "departed"
        state = tuple(traj.y[-1].tolist())
        dist = float(np.max(np.abs(np.array(state) - ref) * weights))
        if dist > DEPARTURE:
            return "departed"
        if dist < 0.02 * KICK:
            return "decayed"
        elapsed += span
    return "inconclusive"


def relative_deviation(got: complex, want: complex) -> float:
    """|got - want| / |want|.  An amplitude the linear solve gives as exactly
    0 (sigma+ of a dot decoupled by g0 = 0, q+ of a dot without phonon
    coupling) deviates by 0 if the oracle's is 0 too and by inf otherwise."""
    if want == 0:
        return 0.0 if got == 0 else math.inf
    return abs(got - want) / abs(want)


def dump_trajectory(traj: Trajectory, fh) -> None:
    """Write the trajectory as CSV (t,w,re_sigma,im_sigma,re_a,im_a,q,qdot)."""
    fh.write("t,w,re_sigma,im_sigma,re_a,im_a,q,qdot\n")
    for t, row in zip(traj.t.tolist(), traj.y.tolist()):
        fh.write(",".join(map(repr, (t, *row))) + "\n")
