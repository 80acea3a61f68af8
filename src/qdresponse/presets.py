"""Bundled parameter presets: one versioned data file, loaded read-only."""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from functools import cache
from importlib import resources

import numpy as np

from .errors import BadConfig, UnknownFigure
from .model import PARAM_FIELDS, Params, SweepAxis, params_from_mapping
from .sweep import BranchPolicy, Observable

__all__ = ["FigurePreset", "figure_ids", "get_preset"]

#: The oracle check's delta0 where neither the point nor its preset sets one.
ORACLE_DELTA0 = 4.3


@dataclass(frozen=True)
class FigurePreset:
    figure_id: str
    params: Params
    axis: SweepAxis
    grid: tuple
    observable: Observable
    branch_policy: BranchPolicy
    family_key: str | None
    family_values: tuple
    assumed: tuple
    oracle_delta0: float
    note: str

    def members(self) -> list[tuple[str, Params]]:
        """(label, params) per family member; a single anonymous member if none."""
        if self.family_key is None:
            return [("", self.params)]
        return [(f"{self.family_key}={v:g}",
                 self.params.replace(**{self.family_key: v}))
                for v in self.family_values]


def parse_grid(spec: str) -> tuple:
    """Parse 'start:stop:points' into an inclusive linspace tuple; start, stop
    and the span stop - start must be finite."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise BadConfig(f"grid must be start:stop:points, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise BadConfig(f"could not parse grid {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise BadConfig(f"grid start and stop must be finite, got {spec!r}")
    if not math.isfinite(stop - start):
        raise BadConfig(f"grid span stop - start must be finite, got {spec!r}")
    if points < 1:
        raise BadConfig(f"grid needs at least one point, got {points}")
    return tuple(np.linspace(start, stop, points).tolist())


@cache
def _catalog() -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg.read_string(resources.files("qdresponse.data").joinpath(
        "figure_presets.cfg").read_text(encoding="utf-8"))
    return cfg


def figure_ids() -> list[str]:
    return [s.removeprefix("fig") for s in _catalog().sections()]


def get_preset(figure_id: str) -> FigurePreset:
    """Load one catalog entry; raises UnknownFigure for ids not in the file."""
    section = f"fig{figure_id}"
    cat = _catalog()
    if not cat.has_section(section):
        raise UnknownFigure(
            f"unknown figure id {figure_id!r}; known: {', '.join(figure_ids())}")
    raw = dict(cat[section])
    mapping = {k: v for k, v in raw.items() if k in PARAM_FIELDS}
    params = params_from_mapping(mapping)
    try:
        axis = SweepAxis(raw["axis"])
        observable = Observable(raw["observable"])
        policy = BranchPolicy(raw.get("branch_policy", "stable_only"))
    except (KeyError, ValueError) as exc:
        raise BadConfig(f"[{section}] bad axis/observable/policy: {exc}") from None
    family_key = raw.get("family_key")
    family_values = tuple(float(v) for v in raw["family_values"].split(",")) \
        if family_key else ()
    if family_key and family_key not in PARAM_FIELDS:
        raise BadConfig(f"[{section}] family_key {family_key!r} is not a parameter")
    return FigurePreset(
        figure_id=figure_id,
        params=params,
        axis=axis,
        grid=parse_grid(raw["grid"]),
        observable=observable,
        branch_policy=policy,
        family_key=family_key,
        family_values=family_values,
        assumed=tuple(raw.get("assumed", "").split()),
        oracle_delta0=float(raw.get("oracle_delta0", ORACLE_DELTA0)),
        note=raw.get("note", ""),
    )
