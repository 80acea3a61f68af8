"""Dimensionless parameter set, validation and detuning conversions.

Every quantity is expressed in units of the exciton dephasing rate; there is
no dimensional layer anywhere in the package.  Time is measured in inverse
dephasing rates, frequencies and decay rates as plain ratios.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from enum import Enum

from .errors import BadConfig, NegativeAmplitude, NonFinite, NonPositiveRate

__all__ = [
    "Params",
    "SweepAxis",
    "validate_params",
    "delta_from_signal_detuning",
    "apply_axis",
    "params_from_mapping",
    "params_from_file",
    "default_signal_amplitude",
]


@dataclass(frozen=True)
class Params:
    """One simulation point.

    delta_p0      pump-exciton detuning
    delta_c0      cavity-pump detuning
    g0            dot-cavity coupling (>= 0)
    eta           exciton-phonon (Huang-Rhys) coupling (>= 0)
    omega_k0      phonon frequency (> 0)
    kappa_c0      cavity decay rate (> 0)
    gamma_q0      phonon decay rate (> 0)
    ep0           pump amplitude (>= 0)
    delta0        signal-pump detuning (response evaluation point)
    es0           signal amplitude (>= 0); used only by the time-domain oracle
    gamma1_ratio  population decay over dephasing rate, default 2
    """

    delta_p0: float
    delta_c0: float
    g0: float
    eta: float
    omega_k0: float
    kappa_c0: float
    gamma_q0: float
    ep0: float
    delta0: float = 0.0
    es0: float = 0.0
    gamma1_ratio: float = 2.0

    def replace(self, **changes) -> "Params":
        """``dataclasses.replace`` without its per-field checks; unknown keys
        raise ``TypeError`` as there.

        The fields are read through one ``attrgetter``, not ``vars(self)``:
        on CPython 3.11+ ``vars`` materializes the instance dict, which
        doubles the cost of every later attribute read on ``self`` (the RK4
        oracle reads ``p`` at every step).
        """
        return Params(**dict(zip(PARAM_FIELDS, _field_values(self)), **changes))


PARAM_FIELDS = tuple(f.name for f in fields(Params))
_field_values = operator.attrgetter(*PARAM_FIELDS)
_REQUIRED = tuple(f.name for f in fields(Params) if f.name not in
                  ("delta0", "es0", "gamma1_ratio"))


class SweepAxis(Enum):
    """Parameter axes a sweep can move along."""

    DELTA0 = "delta0"
    DELTA_S0 = "delta_s0"
    DELTA_P0 = "delta_p0"
    EP0 = "ep0"
    G0 = "g0"


def validate_params(p: Params) -> Params:
    """Return ``p`` unchanged if every invariant holds; never clamp values."""
    for name in PARAM_FIELDS:
        v = getattr(p, name)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise NonFinite(f"{name} is not a real number: {v!r}")
        if not math.isfinite(v):
            raise NonFinite(f"{name} is not finite: {v!r}")
    for name in ("kappa_c0", "gamma_q0", "omega_k0", "gamma1_ratio"):
        if getattr(p, name) <= 0.0:
            raise NonPositiveRate(f"{name} must be > 0, got {getattr(p, name)!r}")
    for name in ("g0", "eta", "ep0", "es0"):
        if getattr(p, name) < 0.0:
            raise NegativeAmplitude(f"{name} must be >= 0, got {getattr(p, name)!r}")
    return p


def delta_from_signal_detuning(delta_s0: float, delta_p0: float) -> float:
    """Map a signal-exciton detuning onto the signal-pump detuning.

    The same map also inverts itself: applying it twice with the same
    ``delta_p0`` returns the original value.
    """
    return -(delta_s0 + delta_p0)


def apply_axis(p: Params, axis: SweepAxis, value: float) -> Params:
    """Return a copy of ``p`` with the swept coordinate set to ``value``."""
    if axis is SweepAxis.DELTA_S0:
        return p.replace(delta0=delta_from_signal_detuning(value, p.delta_p0))
    return p.replace(**{axis.value: value})


def default_signal_amplitude(p: Params) -> float:
    """Weak-probe amplitude used by the oracle when none is configured."""
    return 1e-3 * p.ep0


def params_from_mapping(mapping: dict) -> Params:
    """Build validated Params from a flat key/value mapping.

    Unknown keys and missing required keys are errors; values must parse as
    floats.
    """
    unknown = sorted(set(mapping) - set(PARAM_FIELDS))
    if unknown:
        raise BadConfig(f"unknown parameter keys: {', '.join(unknown)}")
    missing = sorted(set(_REQUIRED) - set(mapping))
    if missing:
        raise BadConfig(f"missing parameter keys: {', '.join(missing)}")
    values = {}
    for key, raw in mapping.items():
        try:
            values[key] = float(raw)
        except (TypeError, ValueError):
            raise BadConfig(f"parameter {key} is not a number: {raw!r}") from None
    return validate_params(Params(**values))


def params_from_file(path) -> Params:
    """Parse a flat ``key = value`` text file (one pair per line, # comments)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadConfig(f"cannot read {path}: {exc}") from None
    mapping = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise BadConfig(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key in mapping:
            raise BadConfig(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = raw.strip()
    return params_from_mapping(mapping)
