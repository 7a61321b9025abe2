"""The per-point first-order data of the dual-pair checks against the tree
and lift routes they replace.

``dualpair._point`` reads X_f = (Mᵀ j¹f)[:n] with M = ϖ⁻ᵀ, the pullback
jets by the chain rule and ker DΦ in closed form; the homogenized check
reads ω~ and TΦ~ in closed form.  Each is compared with its defining route
to 1e-12, and each oracle must catch a planted mistake.
"""
import numpy as np
import pytest

from jdl.atiyah import ker_DPhi
from jdl.catalog import build
from jdl.chart import sample_points, tangent_map
from jdl.contact import contact_to_jacobi, varpi_matrix
from jdl.dualpair import _hamiltonian, _point, _pullback_jets
from jdl.homogenize import (S_SLICES, _lifted_form, _lifted_tangent,
                            homogenize_map, symplectize)
from jdl.jacobi import hamiltonian_field
from jdl.linalg import subspace_equal

ORACLE_TOL = 1e-12
SPECS = ("trivgpd", "darboux5-product", "broken-comm", "broken-transv")


def _points(dp, seed=91):
    return sample_points(dp.source.chart, 6, seed=seed)


def _tree_fields(dp, leg):
    """X_{Φ*λ} over the leg's test sections, as derived vector fields."""
    J = contact_to_jacobi(dp.source)
    return [hamiltonian_field(J, f) for f in dp.pullback_fields(leg)]


def _hamiltonian_error(dp, transpose_M=False):
    """Worst |X_f - tree X_f| over both legs' pullbacks and the points."""
    fields = [_tree_fields(dp, leg) for leg in (0, 1)]
    worst = 0.0
    for p in _points(dp):
        s = _point(dp, p)
        if transpose_M:
            s.M = s.M.T
        for leg, tree in zip(s.legs, fields):
            X = _hamiltonian(s, leg.jets)
            worst = max(worst, max(np.abs(x - h.at(p)).max()
                                   for x, h in zip(X, tree)))
    return worst


def _jet_error(dp, drop_da=False):
    """Worst |chain-rule j¹(Φ*λ) - jet of the pullback field|."""
    worst = 0.0
    for p in _points(dp):
        for i, (_, Phi) in enumerate(dp.legs()):
            a = Phi.factor(p, 1)
            da = np.zeros_like(a.grad) if drop_da else a.grad
            rows = _pullback_jets(tangent_map(Phi.map, p), a.value, da,
                                  dp._frames[i], Phi.map(p))
            for row, f in zip(rows, dp.pullback_fields(i)):
                j = f(p, 1)
                worst = max(worst,
                            np.abs(row - np.append(j.grad, j.value)).max())
    return worst


def _lifted_form_error(dp, flip_theta=False):
    omega, _ = symplectize(dp.source)
    worst = 0.0
    for p in _points(dp):
        varpi = varpi_matrix(dp.source, p)
        for s in S_SLICES:
            W = _lifted_form(varpi, s)
            if flip_theta:
                W[:-1, -1] *= -1
            worst = max(worst,
                        np.abs(W - omega.dense(np.append(p, s))).max())
    return worst


@pytest.mark.parametrize("spec_id", SPECS)
def test_hamiltonian_fields_match_the_tree(spec_id):
    assert _hamiltonian_error(build(spec_id)) <= ORACLE_TOL


@pytest.mark.parametrize("spec_id", SPECS)
def test_pullback_jets_match_the_pullback_fields(spec_id):
    assert _jet_error(build(spec_id)) <= ORACLE_TOL


@pytest.mark.parametrize("spec_id", SPECS)
def test_lifted_form_matches_the_symplectization(spec_id):
    assert _lifted_form_error(build(spec_id)) <= ORACLE_TOL


@pytest.mark.parametrize("spec_id", SPECS)
def test_lifted_tangent_matches_the_lifted_map(spec_id):
    dp = build(spec_id)
    lifts = [homogenize_map(Phi) for _, Phi in dp.legs()]
    worst = 0.0
    for p in _points(dp):
        for (_, Phi), lift in zip(dp.legs(), lifts):
            T, factor = tangent_map(Phi.map, p), Phi.factor(p, 1)
            for s in S_SLICES:
                oracle = tangent_map(lift, np.append(p, s))
                worst = max(worst, np.abs(_lifted_tangent(T, factor, s)
                                          - oracle).max())
    assert worst <= ORACLE_TOL


@pytest.mark.parametrize("spec_id", SPECS)
def test_ker_dphi_matches_the_kernel_of_dphi(spec_id):
    dp = build(spec_id)
    for p in _points(dp):
        for leg, (_, Phi) in zip(_point(dp, p).legs, dp.legs()):
            same, angle = subspace_equal(leg.ker_D, ker_DPhi(Phi, p),
                                         ORACLE_TOL)
            assert same, (spec_id, angle)


def test_point_chart_leg_has_full_kernel():
    dp = build("broken-transv")
    for p in _points(dp):
        leg = _point(dp, p).legs[1]
        assert (leg.K.dim, leg.rank, leg.ker_D.dim) == (3, 0, 3)
        assert leg.jets.shape == (1, 4)


@pytest.mark.parametrize("spec_id", SPECS)
def test_transposed_M_is_caught(spec_id):
    assert _hamiltonian_error(build(spec_id), transpose_M=True) > 1e-3


def test_dropped_da_term_is_caught():
    # only broken-comm has a nonconstant factor a = e^p, so only there does
    # the da term of the chain rule show
    assert _jet_error(build("broken-comm"), drop_da=True) > 1e-3
    assert _jet_error(build("trivgpd"), drop_da=True) <= ORACLE_TOL


@pytest.mark.parametrize("spec_id", SPECS)
def test_flipped_theta_column_is_caught(spec_id):
    assert _lifted_form_error(build(spec_id), flip_theta=True) > 1e-3
