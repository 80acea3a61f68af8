import configparser
import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

import numpy as np

from qdresponse.errors import (
    BadConfig,
    InvalidGrid,
    NegativeAmplitude,
    NonFinite,
    NonPositiveRate,
)
from qdresponse.model import (
    PARAM_FIELDS,
    SweepAxis,
    apply_axis,
    checked_grid,
    default_signal_amplitude,
    delta_from_signal_detuning,
    params_from_mapping,
    read_param_file,
    validate_params,
)
from qdresponse import presets
from qdresponse.presets import parse_grid

from conftest import absorption_point


def test_accepts_absorption_scenario_values():
    p = absorption_point()
    assert validate_params(p) is p
    assert p.ep0 == 3.15 and p.g0 == 1.5 and p.omega_k0 == 10.0
    assert p.kappa_c0 == 1.35 and p.eta == 0.02


def test_zero_cavity_decay_rejected():
    with pytest.raises(NonPositiveRate):
        validate_params(absorption_point().replace(kappa_c0=0.0))


def test_negative_coupling_rejected():
    with pytest.raises(NegativeAmplitude):
        validate_params(absorption_point().replace(g0=-1.0))


def test_nan_rejected():
    with pytest.raises(NonFinite):
        validate_params(absorption_point().replace(delta_p0=float("nan")))


@pytest.mark.parametrize("value", ["5", True])
def test_a_field_that_is_not_a_real_number_is_rejected(value):
    with pytest.raises(NonFinite, match=f"ep0 is not a real number: {value!r}"):
        validate_params(absorption_point().replace(ep0=value))


def test_values_never_clamped():
    p = absorption_point().replace(ep0=1234.5)
    assert validate_params(p).ep0 == 1234.5


def test_detuning_conversion_reference_points():
    assert delta_from_signal_detuning(0.0, 0.0) == 0.0
    assert delta_from_signal_detuning(10.0, -10.0) == 0.0
    # the Kerr peak at delta_s0 = -10 must land on the phonon resonance +10
    assert delta_from_signal_detuning(-10.0, 0.0) == 10.0


finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6)


@given(finite, finite)
def test_detuning_conversion_is_self_inverse(delta_s0, delta_p0):
    once = delta_from_signal_detuning(delta_s0, delta_p0)
    twice = delta_from_signal_detuning(once, delta_p0)
    assert twice == pytest.approx(delta_s0, rel=1e-12, abs=1e-9)


@given(finite, finite, finite)
def test_detuning_conversion_is_linear_in_shifts(x1, x2, delta_p0):
    d1 = delta_from_signal_detuning(x1, delta_p0)
    d2 = delta_from_signal_detuning(x2, delta_p0)
    assert d1 - d2 == pytest.approx(-(x1 - x2), rel=1e-12, abs=1e-9)


def test_validate_is_idempotent():
    p = absorption_point()
    assert validate_params(validate_params(p)) == validate_params(p)


def test_apply_axis_signal_detuning_converts():
    p = absorption_point().replace(delta_p0=-10.0)
    q = apply_axis(p, SweepAxis.DELTA_S0, 3.7)
    assert q.delta0 == pytest.approx(-(3.7 - 10.0))


def test_apply_axis_plain_fields():
    p = absorption_point()
    assert apply_axis(p, SweepAxis.EP0, 7.0).ep0 == 7.0
    assert apply_axis(p, SweepAxis.G0, 0.25).g0 == 0.25
    assert apply_axis(p, SweepAxis.DELTA0, -3.0).delta0 == -3.0


def test_replace_matches_dataclasses_replace_and_rejects_unknown_keys():
    p = absorption_point()
    rng = random.Random(7)
    changes_list = [{}, {"delta0": -3.5}, {"ep0": 1.0, "g0": 0.0, "es0": 2e-3}]
    changes_list += [{name: rng.uniform(-10.0, 10.0)
                      for name in rng.sample(PARAM_FIELDS, rng.randint(1, len(PARAM_FIELDS)))}
                     for _ in range(50)]
    for changes in changes_list:
        q = p.replace(**changes)
        want = dataclasses.replace(p, **changes)
        assert q == want and hash(q) == hash(want)
        assert tuple(getattr(q, name) for name in PARAM_FIELDS) == \
            tuple(getattr(want, name) for name in PARAM_FIELDS)
        assert type(q) is type(p) and q is not p
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.ep0 = 1.0
        assert q.replace(**changes) == q
    assert p == absorption_point()
    for bad in ({"delta_zz": 1.0}, {"delta0": 1.0, "delta_zz": 1.0}):
        with pytest.raises(TypeError):
            p.replace(**bad)
        with pytest.raises(TypeError):
            dataclasses.replace(p, **bad)


def test_copies_list_their_fields_in_order_and_stay_frozen():
    """A copy of an ``__init__``-built point, a copy of that copy and an
    ``apply_axis`` copy hold their fields in field order (``vars`` feeds the
    output metadata) and equal and hash as ``dataclasses.replace`` does."""
    source = absorption_point()
    first = source.replace(delta0=1.5, ep0=2.0)
    second = first.replace(g0=0.25, gamma1_ratio=3.0)
    pairs = [(source, first, {"delta0": 1.5, "ep0": 2.0}),
             (first, second, {"g0": 0.25, "gamma1_ratio": 3.0})]
    pairs += [(q, apply_axis(q, axis, 0.75),
               {"delta0": delta_from_signal_detuning(0.75, q.delta_p0)}
               if axis is SweepAxis.DELTA_S0 else {axis.value: 0.75})
              for q in (source, second) for axis in SweepAxis]
    for before, q, changes in pairs:
        want = dataclasses.replace(before, **changes)
        assert list(vars(q)) == list(PARAM_FIELDS) == list(vars(want))
        assert q == want and hash(q) == hash(want) and repr(q) == repr(want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.delta0 = 0.0
    assert list(vars(source)) == list(PARAM_FIELDS)


@pytest.mark.parametrize("grid, ascending, message", [
    ((1.0, 1.0), True, "grid must be strictly ascending"),
    ((-0.0, 0.0), True, "grid must be strictly ascending"),
    ((0.0, -0.0), False, "grid must be strictly monotone"),
    ((2.0, 1.0), True, "grid must be strictly ascending"),
    ((1.0, 3.0, 2.0), False, "grid must be strictly monotone"),
    ((3.0, 2.0, 2.0), False, "grid must be strictly monotone"),
])
def test_grid_must_be_strictly_monotone(grid, ascending, message):
    with pytest.raises(InvalidGrid, match=f"^{message}$"):
        checked_grid(grid, minimum=1, ascending=ascending)


def test_checked_grid_keeps_monotone_grids_as_floats():
    assert checked_grid((2,), minimum=1, ascending=True) == [2.0]
    assert checked_grid((-1, 0.0, 2), minimum=2, ascending=True) == [-1.0, 0.0, 2.0]
    assert checked_grid((2, -0.0, -1), minimum=2, ascending=False) == [2.0, -0.0, -1.0]


def test_parsed_grid_is_the_inclusive_linspace():
    for spec, (start, stop, n) in (("-13:13:131", (-13.0, 13.0, 131)),
                                   ("0.2:16:317", (0.2, 16.0, 317)), ("5:5:1", (5, 5, 1))):
        grid = parse_grid(spec)
        assert grid == tuple(float(x) for x in np.linspace(start, stop, n))
        assert all(type(x) is float for x in grid)


def test_default_signal_amplitude_tracks_pump():
    p = absorption_point()
    assert default_signal_amplitude(p) == pytest.approx(1e-3 * p.ep0)


def test_mapping_rejects_unknown_keys():
    with pytest.raises(BadConfig, match="unknown"):
        params_from_mapping({"delta_p0": 0, "delta_c0": 0, "g0": 1, "eta": 0,
                             "omega_k0": 10, "kappa_c0": 1, "gamma_q0": 0.1,
                             "ep0": 1, "bogus": 3})


def test_mapping_rejects_missing_keys():
    with pytest.raises(BadConfig, match="missing"):
        params_from_mapping({"g0": 1})


def test_param_file_roundtrip(tmp_path):
    path = tmp_path / "point.cfg"
    path.write_text(
        "# comment line\n"
        "delta_p0 = -10\n"
        "delta_c0 = -10\n"
        "g0 = 1.5\n"
        "eta = 0.015\n"
        "omega_k0 = 10\n"
        "kappa_c0 = 1.35\n"
        "gamma_q0 = 0.1\n"
        "ep0 = 5\n",
        encoding="utf-8")
    mapping = read_param_file(path)
    assert mapping["delta_p0"] == "-10" and len(mapping) == 8
    p = params_from_mapping(mapping)
    assert p.delta_p0 == -10.0 and p.ep0 == 5.0
    assert p.gamma1_ratio == 2.0  # default


def test_param_file_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("g0 = 1\ng0 = 2\n", encoding="utf-8")
    with pytest.raises(BadConfig, match="duplicate"):
        read_param_file(path)


def test_param_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(BadConfig):
        read_param_file(path)


@pytest.mark.parametrize("entry, message", [
    ({"axis": "zz"}, "[figzz] bad axis/observable/policy: 'zz' is not a valid SweepAxis"),
    ({"family_key": "zz", "family_values": "1,2"},
     "[figzz] family_key 'zz' is not a parameter"),
])
def test_a_bad_catalog_entry_is_bad_config(monkeypatch, entry, message):
    catalog = configparser.ConfigParser()
    catalog.read_dict({"figzz": {**presets._catalog()["fig4b"], **entry}})
    monkeypatch.setattr(presets, "_catalog", lambda: catalog)
    with pytest.raises(BadConfig) as err:
        presets.get_preset("zz")
    assert str(err.value) == message
