"""First-order sideband response and derived spectra.

Two backends compute the same quantities and cross-check each other:

* ``LINEAR_SOLVE`` evaluates, at the signal detuning, the resolvent of the
  branch's mean-field Jacobian in complex amplitudes
  (``SteadyBranch.sideband_generator``).  It is the ground truth.  It
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

import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .errors import PoleHit, SingularSystem, UnstableBranch, ZeroPump
from .model import Params
from .steady import SINGULAR_RCOND, Stability, SteadyBranch, coherence_amplitudes

__all__ = [
    "Backend",
    "SidebandAmplitudes",
    "ResponsePoint",
    "solve_sidebands",
    "chi1_linear_solve",
    "chi3_linear_solve",
    "chi1_closed_form",
    "chi3_closed_form",
    "transmission_point",
    "dispersion_slope",
    "load_formula_ledger",
]

_POLE_TOL = 1e-14
_EYE = np.eye(7)


class Backend(Enum):
    LINEAR_SOLVE = "linear_solve"
    CLOSED_FORM = "closed_form"


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
    branch_w0: float
    backend: Backend


@dataclass(frozen=True)
class ResponsePoint:
    """Derived observables at one detuning, normalized per unit signal."""

    chi1: complex
    chi3: complex
    a_out_plus: complex
    T: float
    T2: float


def _require_stable(branch: SteadyBranch, allow_unstable: bool):
    if branch.stability is not Stability.STABLE and not allow_unstable:
        raise UnstableBranch(
            f"branch w0={branch.w0:.6f} is {branch.stability.value}; "
            "pass allow_unstable=True to override")


def _solve_unit(p: Params, branch: SteadyBranch) -> np.ndarray:
    """(a+, conj(a-), s+, conj(s-), w+, q+, dq+/dt) per unit signal: the
    solution of (-K - i delta0 I) x = e0, K = ``branch.sideband_generator``.

    ``SingularSystem`` is raised where the system's rcond is below
    ``SINGULAR_RCOND``.  Within ``branch.safe_detuning`` (see
    ``steady.certify_detuning``) the branch's eigendecomposition proves that
    it is not, and the SVD is skipped; the error therefore fires at the same
    detunings as an SVD at every point.
    """
    M = -branch.sideband_generator - 1j * p.delta0 * _EYE
    if not abs(p.delta0) <= branch.safe_detuning:  # a NaN delta0 lands here
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] < SINGULAR_RCOND * sv[0]:
            raise SingularSystem(
                f"sideband system is singular at delta0={p.delta0!r} "
                f"(rcond {sv[-1] / sv[0]:.2e})")
    return np.linalg.solve(M, _EYE[0])


def solve_sidebands(p: Params, branch: SteadyBranch,
                    allow_unstable: bool = False) -> SidebandAmplitudes:
    """Sideband amplitudes for signal amplitude ``p.es0``.

    The system is solved once per unit signal and scaled, so the amplitudes
    are exactly linear in the signal amplitude.
    """
    _require_stable(branch, allow_unstable)
    x = _solve_unit(p, branch) * p.es0
    return SidebandAmplitudes(
        a_plus=complex(x[0]),
        a_minus=complex(x[1].conjugate()),
        sigma_plus=complex(x[2]),
        sigma_minus=complex(x[3].conjugate()),
        sigmaz_plus=complex(x[4]),
        q_plus=complex(x[5]),
        branch_w0=branch.w0,
        backend=Backend.LINEAR_SOLVE,
    )


def chi1_linear_solve(p: Params, branch: SteadyBranch,
                      allow_unstable: bool = False) -> complex:
    """Linear susceptibility sigma+/Es from the branch resolvent."""
    _require_stable(branch, allow_unstable)
    return complex(_solve_unit(p, branch)[2])


def chi3_linear_solve(p: Params, branch: SteadyBranch,
                      allow_unstable: bool = False) -> complex:
    """Nonlinear susceptibility sigma-/(3 Es* Ep^2) from the branch resolvent."""
    _require_stable(branch, allow_unstable)
    if p.ep0 <= 0.0:
        raise ZeroPump("chi3 is normalized by the squared pump amplitude")
    x = _solve_unit(p, branch)
    return complex(x[3].conjugate()) / (3.0 * p.ep0 ** 2)


# -- closed forms ------------------------------------------------------------

def _guard(name: str, value: complex, scale: float):
    if abs(value) < _POLE_TOL * max(1.0, scale):
        raise PoleHit(f"{name} vanishes at delta0; closed form undefined here")
    return value


def _common_scale(p: Params) -> float:
    return 1.0 + abs(p.delta_p0) + abs(p.delta_c0) + abs(p.delta0) + \
        p.kappa_c0 + p.g0 ** 2 + 2.0 * p.omega_k0 * p.eta


def chi1_closed_form(p: Params, branch: SteadyBranch, corrected: bool = True,
                     allow_unstable: bool = False) -> complex:
    """Closed-form linear susceptibility at the branch.

    ``corrected=False`` evaluates the legacy transcription verbatim: the two
    imaginary terms of the numerator bracket carry the opposite sign and the
    legacy cavity-field amplitudes are used (ledger entries
    ``chi1-bracket-imaginary-signs`` and ``steady-field-amplitude``).
    """
    _require_stable(branch, allow_unstable)
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


def chi3_closed_form(p: Params, branch: SteadyBranch, corrected: bool = True,
                     allow_unstable: bool = False) -> complex:
    """Closed-form nonlinear susceptibility at the branch.

    ``corrected=False`` keeps the legacy denominator (one extra factor of the
    pulsation resonance) and omits the pump normalization (ledger entry
    ``chi3-normalization``).
    """
    _require_stable(branch, allow_unstable)
    if p.ep0 <= 0.0:
        raise ZeroPump("chi3 is normalized by the squared pump amplitude")
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
        return lead * bracket / (phi2 * A2**2 * M2 * N2) / (3.0 * p.ep0 ** 2)
    return lead * bracket / (phi2 * A2**2 * M2**2 * N2)


# -- transmission ------------------------------------------------------------

def transmission_point(p: Params, branch: SteadyBranch,
                       backend: Backend = Backend.LINEAR_SOLVE,
                       allow_unstable: bool = False) -> ResponsePoint:
    """chi1, chi3, signal output amplitude and transmission at one detuning.

    All quantities are per unit signal amplitude.  The real part of the output
    amplitude is the absorption quadrature, the imaginary part the dispersion.
    """
    _require_stable(branch, allow_unstable)
    if backend is Backend.LINEAR_SOLVE:
        x = _solve_unit(p, branch)
        chi1 = complex(x[2])
        chi3 = complex(x[3].conjugate()) / (3.0 * p.ep0 ** 2) if p.ep0 > 0 \
            else complex("nan")
        a_plus = complex(x[0])
    else:
        chi1 = chi1_closed_form(p, branch, allow_unstable=allow_unstable)
        chi3 = chi3_closed_form(p, branch, allow_unstable=allow_unstable) \
            if p.ep0 > 0 else complex("nan")
        A1 = 1j * p.delta_c0 + p.kappa_c0 - 1j * p.delta0
        a_plus = (1.0 - 1j * p.g0 * chi1) / A1
    root = math.sqrt(2.0 * p.kappa_c0)
    a_out_plus = root * a_plus
    T = abs(1.0 - root * a_out_plus)
    return ResponsePoint(chi1=chi1, chi3=chi3, a_out_plus=a_out_plus,
                         T=T, T2=T * T)


def dispersion_slope(p: Params, branch: SteadyBranch, h: float = 1e-4,
                     backend: Backend = Backend.LINEAR_SOLVE) -> float:
    """d Im(a_out+)/d Delta_s at the configured detuning (central difference).

    Delta_s and delta0 move with opposite sign, hence the inverted stencil.
    """
    lo = transmission_point(p.replace(delta0=p.delta0 + h), branch, backend)
    hi = transmission_point(p.replace(delta0=p.delta0 - h), branch, backend)
    return (hi.a_out_plus.imag - lo.a_out_plus.imag) / (2.0 * h)


def load_formula_ledger() -> list[dict]:
    """Machine-readable list of deviations from the legacy closed forms."""
    text = resources.files("qdresponse.data").joinpath(
        "formula_ledger.json").read_text(encoding="utf-8")
    return json.loads(text)
