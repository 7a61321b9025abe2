"""The first-order point data of the dual-pair checks against the tree and
lift routes they replace, its sharing across checks, and the stacking of
its linear algebra over the point set.

``dualpair._points`` reads X_f = (Mᵀ j¹f)[:n] with M = ϖ⁻ᵀ, the pullback
jets by the chain rule and ker DΦ in closed form, and the bracket of two
pullbacks is j¹f · M · j¹g; the homogenized check reads ω~ and TΦ~ in
closed form.  Each is compared with its defining route to 1e-12 (ker DΦ
with the SVD kernel of the DΦ matrix, which is exact on these well-scaled
legs), and each oracle must catch a planted mistake, planted in a copy,
since the checks of a point set share its snapshots.
"""
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from jdl import dualpair
from jdl.atiyah import dphi_matrix, pullback_jets
from jdl.catalog import ENTRIES, build
from jdl.chart import sample_points, tangent_map
from jdl.contact import contact_to_jacobi
from jdl.dualpair import (_hamiltonian, _points, centralizer_membership,
                          check_corollary_decomposition, check_rank_relation,
                          check_vertical_dim_sum, verify_dual_pair)
from jdl.fields import constant
from jdl.homogenize import (S_SLICES, _lifted_form, _lifted_tangent,
                            check_homogeneous_sdp_equivalence, symplectize)
from jdl.jacobi import bracket_field, hamiltonian_field
from jdl.leaves import check_pullback_distribution
from jdl.linalg import kernel, subspace_equal

from conftest import homogenize_map

ORACLE_TOL = 1e-12
SPECS = ("trivgpd", "darboux5-product", "broken-comm", "broken-transv")


def _sample(dp, seed=91):
    return sample_points(dp.source.chart, 6, seed=seed)


def _tree_fields(dp, leg):
    """X_{Φ*λ} over the leg's test sections, as derived vector fields."""
    J = contact_to_jacobi(dp.source)
    return [hamiltonian_field(J, f) for f in dp.pullback_fields(leg)]


def _hamiltonian_error(dp, transpose_M=False):
    """Worst |X_f - tree X_f| over both legs' pullbacks and the points."""
    fields = [_tree_fields(dp, leg) for leg in (0, 1)]
    worst = 0.0
    s = dp.point_data(_sample(dp))
    if transpose_M:
        s = SimpleNamespace(**{**vars(s), "M": s.M.swapaxes(-1, -2)})
    for leg, tree in zip(s.legs, fields):
        for p, X in zip(s.p, _hamiltonian(s, leg.jets)):
            worst = max(worst, max(np.abs(x - h.at(p)).max()
                                   for x, h in zip(X, tree)))
    return worst


def _jet_error(dp, drop_da=False):
    """Worst |chain-rule j¹(Φ*λ) - jet of the pullback field|."""
    worst = 0.0
    for p in _sample(dp):
        for i, (_, Phi) in enumerate(dp.legs()):
            a = Phi.factor(p, 1)
            da = np.zeros_like(a.grad) if drop_da else a.grad
            rows = pullback_jets(tangent_map(Phi.map, p), a.value, da,
                                 dp._frames[i], Phi.map(p))
            for row, f in zip(rows, dp.pullback_fields(i)):
                j = f(p, 1)
                worst = max(worst,
                            np.abs(row - np.append(j.grad, j.value)).max())
    return worst


def _bracket_error(dp, transpose_M=False):
    """Worst |j¹f · M · j¹g - {f, g}(p)| over the Φ1-pullbacks f and the
    Φ2-pullbacks g, with {f, g} read from the source pair's bracket trees."""
    J = dp.source_pair
    trees = [[bracket_field(J, f, g) for g in dp.pullback_fields(1)]
             for f in dp.pullback_fields(0)]
    worst = 0.0
    s = dp.point_data(_sample(dp))
    for p, M, up, down in zip(s.p, s.M, *(leg.jets for leg in s.legs)):
        M = M.T if transpose_M else M
        tree = np.array([[b.value(p) for b in row] for row in trees])
        worst = max(worst, np.abs(up @ M @ down.T - tree).max())
    return worst


def _lifted_form_error(dp, flip_theta=False):
    omega, _ = symplectize(dp.source)
    worst = 0.0
    point = dp.point_data(_sample(dp))
    for s in S_SLICES:
        W = _lifted_form(point.varpi, s)   # a copy
        if flip_theta:
            W[..., :-1, -1] *= -1
        for p, w in zip(point.p, W):
            worst = max(worst,
                        np.abs(w - omega.dense(np.append(p, s))).max())
    return worst


@pytest.mark.parametrize("spec_id", SPECS)
def test_hamiltonian_fields_match_the_tree(spec_id):
    assert _hamiltonian_error(build(spec_id)) <= ORACLE_TOL


@pytest.mark.parametrize("spec_id", SPECS)
def test_pullback_jets_match_the_pullback_fields(spec_id):
    assert _jet_error(build(spec_id)) <= ORACLE_TOL


@pytest.mark.parametrize("spec_id", [spec_id for spec_id, (kind, _)
                                     in ENTRIES.items() if kind == "dual_pair"])
def test_bracket_matrix_matches_the_bracket_fields(spec_id):
    assert _bracket_error(build(spec_id)) <= ORACLE_TOL


@pytest.mark.parametrize("spec_id", ("broken-comm", "broken-transv"))
def test_transposed_M_in_the_bracket_matrix_is_caught(spec_id):
    # ϖ is antisymmetric, so Mᵀ = -M negates each bracket: only the specs
    # whose pullbacks do not commute can show it
    assert _bracket_error(build(spec_id), transpose_M=True) > 1e-3


@pytest.mark.parametrize("spec_id", SPECS)
def test_lifted_form_matches_the_symplectization(spec_id):
    assert _lifted_form_error(build(spec_id)) <= ORACLE_TOL


@pytest.mark.parametrize("spec_id", SPECS)
def test_lifted_tangent_matches_the_lifted_map(spec_id):
    dp = build(spec_id)
    lifts = [homogenize_map(Phi) for _, Phi in dp.legs()]
    worst = 0.0
    for p in _sample(dp):
        for (_, Phi), lift in zip(dp.legs(), lifts):
            T, factor = tangent_map(Phi.map, p), Phi.factor(p, 1)
            for s in S_SLICES:
                oracle = tangent_map(lift, np.append(p, s))
                lifted = _lifted_tangent(T, factor.value, factor.grad, s)
                worst = max(worst, np.abs(lifted - oracle).max())
    assert worst <= ORACLE_TOL


@pytest.mark.parametrize("spec_id", SPECS)
def test_ker_dphi_matches_the_kernel_of_dphi(spec_id):
    dp = build(spec_id)
    s = dp.point_data(_sample(dp))
    for leg, (_, Phi) in zip(s.legs, dp.legs()):
        for p, ker_D in zip(s.p, leg.ker_D):
            same, angle = subspace_equal(ker_D, kernel(dphi_matrix(Phi, p)))
            assert same and angle < ORACLE_TOL, (spec_id, angle)


def test_point_chart_leg_has_full_kernel():
    dp = build("broken-transv")
    leg = dp.point_data(_sample(dp)).legs[1]
    for K, rank, ker_D in zip(leg.K, leg.rank, leg.ker_D):
        assert (K.dim, rank, ker_D.dim) == (3, 0, 3)
    assert leg.jets.shape == (6, 1, 4)


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


def _first_order_checks(dp, pts):
    """The reports of every check that reads the point data, run as one job
    runs them, without wall times."""
    reports = list(verify_dual_pair(dp, pts).values()) + [
        check_rank_relation(dp, pts), check_corollary_decomposition(dp, pts),
        check_vertical_dim_sum(dp, pts),
        check_homogeneous_sdp_equivalence(dp, pts),
        check_pullback_distribution(dp, pts),
        centralizer_membership(dp, constant(dp.source.chart.dim, 3.0), pts)]
    return [{k: v for k, v in rep.as_dict().items() if k != "wall_time"}
            for rep in reports]


@pytest.mark.parametrize("spec_id", ("trivgpd", "broken-comm"))
def test_a_job_builds_each_point_once(spec_id, monkeypatch):
    built = Counter()

    def counting(dp, pts):
        built.update(p.tobytes() for p in pts)
        return _points(dp, pts)

    monkeypatch.setattr(dualpair, "_points", counting)
    dp = build(spec_id)
    pts = _sample(dp)
    _first_order_checks(dp, pts)
    assert sorted(built.values()) == [1] * len(pts)


@pytest.mark.parametrize("spec_id", ("trivgpd", "broken-comm"))
def test_a_job_walks_the_commutation_brackets_once(spec_id, monkeypatch):
    # one bracket tree per pair of test sections, built and walked once per
    # point set, though verify_dual_pair and the homogenized check read it
    built = []

    def counting(J, f, g):
        built.append(1)
        return bracket_field(J, f, g)

    monkeypatch.setattr(dualpair, "bracket_field", counting)
    dp = build(spec_id)
    _first_order_checks(dp, _sample(dp))
    assert len(built) == len(dp._frames[0]) * len(dp._frames[1])


def test_a_second_point_set_reads_like_a_fresh_spec():
    dp = build("trivgpd")
    first, second = _sample(dp, seed=91), _sample(dp, seed=92)
    _first_order_checks(dp, first)
    assert (_first_order_checks(dp, second)
            == _first_order_checks(build("trivgpd"), second))
    assert np.array_equal(dp.point_data(second).p, second)
    assert dp.point_data(second) is dp.point_data(list(second))


def test_snapshot_arrays_are_read_only():
    dp = build("darboux5-product")
    pts = np.array(_sample(dp))
    s = dp.point_data(pts)
    arrays = [s.p, s.varpi, s.M, s.c.matrix, s.dual_pair] + [
        h.basis for h in s.H] + [*s.residual.values(), *s.holds.values()]
    for leg in s.legs:
        arrays += [leg.a, leg.da, leg.rank, leg.jets, leg.q] + [
            U.basis for U in (*leg.K, *leg.H_in, *leg.ker_D, *leg.H_perp,
                              *leg.D_perp)]
    assert len(s.residual) == len(s.holds) == 4
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    pts[0, 0] = 0.5   # the caller's points stay writable


def _svd_calls(monkeypatch, n_points):
    """np.linalg.svd calls of the stacked checks of one trivgpd job at
    n_points, counted at the ``np.linalg`` attribute as the benchmark's
    tracer counts them."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    dp = build("trivgpd")
    pts = sample_points(dp.source.chart, n_points, seed=93)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", counting)
        verify_dual_pair(dp, pts)
        check_rank_relation(dp, pts)
        check_corollary_decomposition(dp, pts)
        check_homogeneous_sdp_equivalence(dp, pts)
        check_pullback_distribution(dp, pts)
    return len(calls)


def test_svd_calls_do_not_grow_with_the_point_count(monkeypatch):
    # one call per site and rank group: trivgpd's ranks are constant, so
    # 10 and 40 points make the same calls, where a per-point loop makes 4×
    assert _svd_calls(monkeypatch, 10) == _svd_calls(monkeypatch, 40) > 0
