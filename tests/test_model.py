import dataclasses

import pytest
from hypothesis import given, strategies as st

from qdresponse.errors import (
    BadConfig,
    NegativeAmplitude,
    NonFinite,
    NonPositiveRate,
)
from qdresponse.model import (
    SweepAxis,
    apply_axis,
    default_signal_amplitude,
    delta_from_signal_detuning,
    params_from_file,
    params_from_mapping,
    validate_params,
)

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
    for changes in ({}, {"delta0": -3.5}, {"ep0": 1.0, "g0": 0.0, "es0": 2e-3}):
        q = p.replace(**changes)
        assert q == dataclasses.replace(p, **changes)
        assert type(q) is type(p) and q is not p
    assert p == absorption_point()
    with pytest.raises(TypeError):
        p.replace(delta_zz=1.0)
    with pytest.raises(TypeError):
        dataclasses.replace(p, delta_zz=1.0)


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
    p = params_from_file(path)
    assert p.delta_p0 == -10.0 and p.ep0 == 5.0
    assert p.gamma1_ratio == 2.0  # default


def test_param_file_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("g0 = 1\ng0 = 2\n", encoding="utf-8")
    with pytest.raises(BadConfig, match="duplicate"):
        params_from_file(path)


def test_param_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(BadConfig):
        params_from_file(path)
