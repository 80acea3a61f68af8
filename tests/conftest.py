"""Shared parameter points and faults used across the test modules."""
import importlib.util
import pathlib

import numpy as np

from qdresponse import steady
from qdresponse.errors import NonFinite, _or_raise
from qdresponse.model import Params


SCRIPTS = pathlib.Path(__file__).parents[1] / "scripts"


def script(name):
    """The repository script ``scripts/<name>.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bistable_point(ep0=8.0) -> Params:
    """Inversion-vs-pump scenario with a bistable window in ep0."""
    return Params(delta_p0=-8.0, delta_c0=0.8, g0=1.0, eta=0.2,
                  omega_k0=100.0, kappa_c0=1.35, gamma_q0=0.1, ep0=ep0)


def detuning_scan_point(ep0=81.0, g0=0.1) -> Params:
    """Inversion-vs-pump-detuning scenario (swept in delta_p0)."""
    return Params(delta_p0=0.0, delta_c0=10.0, g0=g0, eta=0.2,
                  omega_k0=100.0, kappa_c0=1.35, gamma_q0=0.1, ep0=ep0)


def absorption_point(eta=0.02, delta0=0.0) -> Params:
    """Signal-absorption scenario (central resonance plus phonon sidebands)."""
    return Params(delta_p0=0.0, delta_c0=0.0, g0=1.5, eta=eta,
                  omega_k0=10.0, kappa_c0=1.35, gamma_q0=0.1, ep0=3.15,
                  delta0=delta0)


def transmission_point_params(ep0=5.0, eta=0.015, g0=1.5) -> Params:
    """Power-transmission scenario with the narrow phonon dip."""
    return Params(delta_p0=-10.0, delta_c0=-10.0, g0=g0, eta=eta,
                  omega_k0=10.0, kappa_c0=1.35, gamma_q0=0.1, ep0=ep0)


def kerr_point(eta=0.06, ep0=0.34, g0=0.5) -> Params:
    """Kerr-switch scenario on the blue sideband of the pump."""
    return Params(delta_p0=-10.0, delta_c0=-10.0, g0=g0, eta=eta,
                  omega_k0=10.0, kappa_c0=1.35, gamma_q0=0.1, ep0=ep0)


def kerr_peaks_point(omega_k0=10.0) -> Params:
    """Kerr-peak scenario with both drives on the exciton line."""
    return Params(delta_p0=0.0, delta_c0=0.0, g0=1.5, eta=0.06,
                  omega_k0=omega_k0, kappa_c0=1.35, gamma_q0=0.1, ep0=0.54)


def lone_roots(p: Params):
    """``steady.inversion_roots`` of ``p`` alone, a stack of one: the point's
    (real, resid, cplx), or the error it raises, raised."""
    return _or_raise(steady.inversion_roots([steady._cubic(p)])[0])


def rootless_grid_row(monkeypatch, at):
    """Patch the cubic build ``steady._cubic``, which a grid calls per point,
    so that the point whose ep0 is ``at`` gets the constant cubic 1, which
    has no roots."""
    cubic = steady._cubic

    def faulty(p):
        return (0.0, 0.0, 0.0, 1.0) if p.ep0 == at else cubic(p)

    monkeypatch.setattr(steady, "_cubic", faulty)


def phonon_pole_jacobian(gamma):
    """A Jacobian whose phonon mode has damping ``gamma``: eigenvalues
    -gamma/2 +- 2i, a pole on (gamma = 0) or next to the imaginary axis."""
    jac = np.diag([-1.0, -1.0, -1.0, -1.0, -1.0, 0.0, -gamma])
    jac[5, 6], jac[6, 5] = 1.0, -4.0
    return jac


def faulty_jacobian(monkeypatch, fault, at):
    """Patch the one branch-row body ``steady._branch_row``, which a lone
    point evaluates on Python floats and a stack on its columns, so that the
    roots of the points whose ep0 is ``at`` overflow (``fault`` is
    "overflow": a modulus of their check overflows) or have a non-finite
    Jacobian; returns the type and message the point should raise."""
    body = steady._branch_row

    def faulty(w, dp, dc, kc, g0, eta, ep0, *rest):
        *row, entries = body(w, dp, dc, kc, g0, eta, ep0, *rest)
        hit = ep0 == at
        if fault == "overflow":
            rest[-1]((1.5e308 * hit, 1.5e308 * hit))  # mag: raises, or marks the hit roots
        else:
            entries = [np.where(hit, np.nan, e) for e in entries]
        return (*row, entries)

    monkeypatch.setattr(steady, "_branch_row", faulty)
    if fault == "overflow":
        return NonFinite, "a steady branch overflows at these parameters"
    return NonFinite, "a steady branch's Jacobian is not finite: no stability label"
