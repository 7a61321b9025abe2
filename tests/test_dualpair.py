import time

import numpy as np
import pytest

from jdl.catalog import build
from jdl.chart import Chart, SmoothMap, sample_points, tangent_map
from jdl.dualpair import (DualPairSpec, centralizer_membership,
                          check_commutation, check_corollary_decomposition,
                          check_curvature_orthogonality, check_rank_relation,
                          check_transversality, check_varpi_orthogonality,
                          check_vertical_dim_sum, verify_dual_pair)
from jdl.errors import ZeroConformalFactor
from jdl.fields import ScalarFieldSpec, constant
from jdl.jacobi import ConformalMap, hamiltonian_field, zero_pair
from jdl.leaves import check_pullback_distribution
from jdl.report import HYPOTHESIS_NOT_MET


@pytest.fixture(scope="module")
def trivgpd_dp():
    """The catalog's trivgpd dual pair, shared by this module's tests."""
    return build("trivgpd")


@pytest.fixture(scope="module")
def tpts(trivgpd_dp):
    return sample_points(trivgpd_dp.source.chart, 30, seed=51)


def test_morphism_preconditions(trivgpd_dp, tpts):
    for rep in trivgpd_dp.check_morphisms(tpts[:10]):
        assert rep.passed


def test_transversality_trivgpd(trivgpd_dp, tpts):
    assert check_transversality(trivgpd_dp, tpts).passed


def test_transversality_point_leg(trivgpd_dp, tpts):
    # a leg to a point chart is trivially transverse
    total = trivgpd_dp.source.chart
    pt = Chart("pt", 0, [])
    leg = ConformalMap(SmoothMap(total, pt, []))
    dp = DualPairSpec(trivgpd_dp.source, (zero_pair(pt), leg),
                      (trivgpd_dp.J2, trivgpd_dp.Phi2))
    assert check_transversality(dp, tpts[:5]).passed


def test_transversality_broken():
    dp = build("broken-transv")
    pts = sample_points(dp.source.chart, 30, seed=52)
    rep = check_transversality(dp, pts)
    assert not rep.passed


def test_commutation_trivgpd(trivgpd_dp, tpts):
    assert check_commutation(trivgpd_dp, tpts).passed


def test_commutation_reeb_membership(trivgpd_dp, tpts):
    # strict case: X_{a_i} is the Reeb field, tangent to both fiber systems
    from jdl.contact import reeb
    from jdl.chart import tangent_map
    for p in tpts[:5]:
        E = reeb(trivgpd_dp.source, p)
        assert np.abs(tangent_map(trivgpd_dp.Phi1.map, p) @ E).max() < 1e-12
        assert np.abs(tangent_map(trivgpd_dp.Phi2.map, p) @ E).max() < 1e-12


def test_commutation_broken():
    dp = build("broken-comm")
    pts = sample_points(dp.source.chart, 20, seed=53)
    assert not check_commutation(dp, pts).passed
    # but transversality and curvature orthogonality still hold
    assert check_transversality(dp, pts).passed
    assert check_curvature_orthogonality(dp, pts).passed


@pytest.mark.parametrize("spec_id, holds", [("trivgpd", True),
                                            ("darboux5-product", True),
                                            ("broken-comm", False)])
def test_factor_fields_lie_in_the_other_kernel(spec_id, holds):
    # X_{a_i}(p) ∈ ker Tφ_j(p): check_commutation evaluates only the
    # pullback brackets, from which this follows
    dp = build(spec_id)
    J = dp.source_pair
    (_, Phi1), (_, Phi2) = dp.legs()
    worst = 0.0
    for p in sample_points(dp.source.chart, 10, seed=59):
        for Phi, other in ((Phi1, Phi2), (Phi2, Phi1)):
            X = hamiltonian_field(J, Phi.factor).at(p)
            worst = max(worst, np.abs(tangent_map(other.map, p) @ X).max())
    assert (worst < 1e-8) == holds


def test_curvature_orthogonality_trivgpd(trivgpd_dp, tpts):
    assert check_curvature_orthogonality(trivgpd_dp, tpts).passed


def test_curvature_orthogonality_broken():
    dp = build("broken-orth")
    pts = sample_points(dp.source.chart, 20, seed=54)
    # conditions 1 and 2 hold, 3 fails: the dimension bookkeeping is off
    assert check_transversality(dp, pts).passed
    assert check_commutation(dp, pts).passed
    assert not check_curvature_orthogonality(dp, pts).passed
    assert not check_varpi_orthogonality(dp, pts).passed


def test_darboux5_product_positive():
    dp = build("darboux5-product")
    pts = sample_points(dp.source.chart, 20, seed=55)
    for rep in dp.check_morphisms(pts[:5]):
        assert rep.passed
    reports = verify_dual_pair(dp, pts)
    for rep in reports.values():
        assert rep.passed, rep.check_id
    assert check_rank_relation(dp, pts).passed   # 1 + 2 + 2 = 5
    assert check_vertical_dim_sum(dp, pts).passed


def test_verify_dual_pair_trivgpd(trivgpd_dp, tpts):
    reports = verify_dual_pair(trivgpd_dp, tpts)
    for rep in reports.values():
        assert rep.passed, rep.check_id


def test_verify_dual_pair_broken_specs_verdicts_agree():
    for spec_id in ("broken-comm", "broken-orth", "broken-transv"):
        dp = build(spec_id)
        pts = sample_points(dp.source.chart, 20, seed=56)
        reports = verify_dual_pair(dp, pts)
        assert not reports["varpi_orthogonality"].passed
        assert reports["equivalence"].passed, dp.name


def test_rank_relation_trivgpd(trivgpd_dp, tpts):
    rep = check_rank_relation(trivgpd_dp, tpts)
    assert rep.passed   # 1 + 1 + 1 = 3 and the span identities


def test_rank_relation_reads_rank_and_kernel_from_one_svd(trivgpd_tiny_leg):
    # first leg scaled by 1e-10: an absolute rank tolerance reads rank 0
    # while ker T phi_1 is 2-dim, so the rank sum failed; rank and kernel
    # now come from one SVD, and the spans do not depend on the scale
    dp = trivgpd_tiny_leg
    pts = sample_points(dp.source.chart, 10, seed=60)
    assert np.linalg.matrix_rank(tangent_map(dp.Phi1.map, pts[0]),
                                 tol=1e-9) == 0
    assert check_rank_relation(dp, pts).passed
    for rep in verify_dual_pair(dp, pts).values():
        assert rep.passed, rep.check_id


def test_vanishing_factor_raises_its_typed_error(trivgpd_dp):
    # a_2 = q vanishes at q = 0: the point data read a_2 through the
    # ConformalMap guard, so the checks that read them raise its error
    vanishing = ConformalMap(trivgpd_dp.Phi2.map, lambda q, p, u: q)
    dp = DualPairSpec(trivgpd_dp.source, (trivgpd_dp.J1, trivgpd_dp.Phi1),
                      (trivgpd_dp.J2, vanishing))
    pts = [np.array([0.0, 0.3, 0.2])]
    with pytest.raises(ZeroConformalFactor):
        verify_dual_pair(dp, pts)
    with pytest.raises(ZeroConformalFactor):
        check_pullback_distribution(dp, pts)


def test_rank_relation_broken():
    dp = build("broken-orth")
    pts = sample_points(dp.source.chart, 10, seed=57)
    assert not check_rank_relation(dp, pts).passed


def test_corollary_decomposition_trivgpd(trivgpd_dp, tpts):
    assert check_corollary_decomposition(trivgpd_dp, tpts).passed


def test_corollary_decomposition_darboux5():
    dp = build("darboux5-product")
    pts = sample_points(dp.source.chart, 10, seed=58)
    assert check_corollary_decomposition(dp, pts).passed


def test_centralizer_membership_good(trivgpd_dp, tpts):
    # λ = g(q) commutes with the first-leg pullbacks and annihilates ker DΦ2
    lam = ScalarFieldSpec(3, lambda q, p, u: q * q + 1.0)
    rep = centralizer_membership(trivgpd_dp, lam, tpts[:10])
    assert rep.passed


def test_centralizer_membership_hypothesis_not_met(trivgpd_dp, tpts):
    lam = ScalarFieldSpec(3, lambda q, p, u: p)
    rep = centralizer_membership(trivgpd_dp, lam, tpts[:10])
    assert rep.status == HYPOTHESIS_NOT_MET


def test_centralizer_membership_constant(trivgpd_dp, tpts):
    lam = constant(3, 3.0)
    # constants are pullbacks of constants: hypothesis holds, membership holds
    rep = centralizer_membership(trivgpd_dp, lam, tpts[:10])
    assert rep.passed


def test_reports_carry_their_wall_time(trivgpd_dp, tpts):
    t0 = time.perf_counter()
    reports = verify_dual_pair(trivgpd_dp, tpts)
    verify_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    rank = check_rank_relation(trivgpd_dp, tpts)
    rank_s = time.perf_counter() - t0
    assert all(0 < rep.wall_time <= verify_s for rep in reports.values())
    assert 0 < rank.wall_time <= rank_s
    assert rank.as_dict()["wall_time"] == rank.wall_time
