"""Sweep output records shared by the steady and sweep modules."""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

__all__ = ["Flag", "SpectrumRecord"]


class Flag(Enum):
    NON_PHYSICAL = "NonPhysical"
    POLE_SKIPPED = "PoleSkipped"
    UNSTABLE = "Unstable"


class SpectrumRecord(NamedTuple):
    """One row of a sweep: swept value, branch id, observable, flags."""

    x: float
    branch_id: int
    w0: float
    value_re: float
    value_im: float
    flags: frozenset = frozenset()
