"""Bundled parameter presets: one versioned data file, loaded read-only."""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import BadConfig, UnknownFigure
from .model import PARAM_FIELDS, Params, SweepAxis, params_from_mapping
from .response import Backend
from .sweep import BranchPolicy, Observable, SweepConfig

__all__ = ["FigurePreset", "figure_ids", "get_preset"]


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

    def sweep_config(self, params: Params,
                     backend: Backend = Backend.LINEAR_SOLVE) -> SweepConfig:
        return SweepConfig(base=params, axis=self.axis, grid=self.grid,
                           observable=self.observable, backend=backend,
                           branch_policy=self.branch_policy)


def parse_grid(spec: str) -> tuple:
    """Parse 'start:stop:points' into an inclusive linspace tuple."""
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
    if points < 1:
        raise BadConfig(f"grid needs at least one point, got {points}")
    return tuple(float(x) for x in np.linspace(start, stop, points))


def _load_catalog() -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    text = resources.files("qdresponse.data").joinpath(
        "figure_presets.cfg").read_text(encoding="utf-8")
    cfg.read_string(text)
    return cfg


_CATALOG = None


def _catalog() -> configparser.ConfigParser:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _load_catalog()
    return _CATALOG


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
        oracle_delta0=float(raw.get("oracle_delta0", "4.3")),
        note=raw.get("note", ""),
    )
