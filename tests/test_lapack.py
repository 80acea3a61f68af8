"""``_lapack.eigvals`` and ``_lapack.inv`` against ``np.linalg``'s own.

The helpers call numpy's private gufuncs, whose interface numpy does not
promise; this pins it on every numpy the suite runs on.  Each side's answer
is its result's bytes or its exception's type and message.
"""
import pathlib
import random
from types import SimpleNamespace

import numpy as np
import pytest

from qdresponse import _lapack, presets, response, steady
from qdresponse.errors import QdResponseError
from qdresponse.steady import solve_steady_branches

from conftest import fold_jacobian, phonon_pole_jacobian, script


def _answer(f, a):
    try:
        return f(a)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _same_eigvals(a):
    """``_lapack.eigvals`` answers ``a`` as ``np.linalg.eigvals`` does, whose
    array is real where every imaginary part is zero."""
    ours, theirs = _answer(_lapack.eigvals, a), _answer(np.linalg.eigvals, a)
    if isinstance(theirs, tuple) or isinstance(ours, tuple):
        return ours == theirs
    if theirs.dtype.kind == "f":
        return ours.real.tobytes() == theirs.tobytes() and not ours.imag.any()
    return ours.tobytes() == theirs.tobytes()


def _same_inv(a):
    ours, theirs = _answer(_lapack.inv, a), _answer(np.linalg.inv, a)
    if isinstance(theirs, tuple) or isinstance(ours, tuple):
        return ours == theirs
    return (ours.dtype, ours.tobytes()) == (theirs.dtype, theirs.tobytes())


def _inverted(points_branches):
    """The matrices the package inverts for each (point, branch): the
    sideband matrix at the point's detuning, the eigenvectors of its
    generator K (``certify_detuning``), and the real Jacobian itself."""
    for p, b in points_branches:
        K = response.sideband_generator(b)
        yield response._sideband_matrix(K, p.delta0)
        yield np.linalg.eig(K)[1]
        yield b.jacobian


def _check(points_branches):
    jacobians = np.array([b.jacobian for _, b in points_branches])
    assert all(_same_eigvals(j[None]) for j in jacobians)
    assert _same_eigvals(jacobians)
    inverted = list(_inverted(points_branches))
    assert all(_same_inv(a) for a in inverted)
    assert _same_inv(np.array(inverted[0::3]))


def test_helpers_match_numpy_on_the_inversion_preset_grids():
    found = []
    for fid in ("2a", "2b", "3a", "3b"):
        preset = presets.get_preset(fid)
        for _, params in preset.members():
            found += [(p, b) for _, p, entry in steady.grid_roots(params, preset.axis, preset.grid)
                      if not isinstance(entry, Exception) for b in entry[3]]
    assert len(found) > 4874
    _check(found)


def test_helpers_match_numpy_on_wide_box_points(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    from workloads import wide_box_params

    found, rng = [], random.Random(38)
    while len(found) < 2000:
        p = wide_box_params(rng)
        try:
            found += [(p, b) for b in solve_steady_branches(p)]
        except QdResponseError:
            continue
    _check(found)


def test_helpers_match_numpy_on_built_and_failing_matrices():
    extreme = list(script("seeded_points").extreme_points(93))[92]
    built = [phonon_pole_jacobian(0.0), phonon_pole_jacobian(1e-13), fold_jacobian(),
             *(b.jacobian for b in solve_steady_branches(extreme))]
    assert all(_same_eigvals(j[None]) for j in built) and _same_eigvals(np.array(built))
    assert all(_same_inv(j) for j in built)
    # one NaN entry refuses the whole stack, as numpy's finiteness check does
    stack = np.array(built)
    stack[2, 3, 4] = np.nan
    assert _answer(_lapack.eigvals, stack) == (np.linalg.LinAlgError,
                                               "Array must not contain infs or NaNs")
    assert _same_eigvals(stack) and _same_inv(stack)
    # an exactly singular sideband matrix: a zero row of J, so of K
    jacobian = phonon_pole_jacobian(0.0)
    jacobian[6] = 0.0
    M = -(response._TO_COMPLEX @ jacobian @ response._FROM_COMPLEX)
    assert _answer(_lapack.inv, M) == (np.linalg.LinAlgError, "Singular matrix")
    assert _same_inv(M) and _same_inv(np.array([M, M.conj()]))
    assert _same_inv(response._TO_COMPLEX)


def _flagging_gufunc(invalid):
    """A stand-in gufunc that raises the overflow, division and underflow
    flags, and the invalid flag by which LAPACK's failure is reported."""
    def gufunc(a, signature):
        one = np.ones(1)
        one * 1e308 * 10.0, one / 0.0, one * 1e-308 * 1e-308
        if invalid:
            np.sqrt(-one)
        return a
    return gufunc


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_invalid_flag_is_numpys_linalgerror_and_no_other_flag_warns(monkeypatch):
    for invalid in (True, False):
        gufunc = _flagging_gufunc(invalid)
        monkeypatch.setattr(_lapack, "_umath_linalg", SimpleNamespace(eigvals=gufunc, inv=gufunc))
        for helper, message in ((_lapack.eigvals, "Eigenvalues did not converge"),
                                (_lapack.inv, "Singular matrix")):
            a = np.eye(2)
            if invalid:
                assert _answer(helper, a) == (np.linalg.LinAlgError, message)
            else:
                assert helper(a) is a
