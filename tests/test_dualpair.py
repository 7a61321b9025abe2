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
from jdl.fields import ScalarFieldSpec, constant
from jdl.jacobi import ConformalMap, hamiltonian_field, zero_pair
from jdl.report import HYPOTHESIS_NOT_MET


@pytest.fixture(scope="module")
def trivgpd():
    return build("trivgpd")


@pytest.fixture(scope="module")
def tpts(trivgpd):
    return sample_points(trivgpd.source.chart, 30, seed=51)


def test_morphism_preconditions(trivgpd, tpts):
    for rep in trivgpd.check_morphisms(tpts[:10]):
        assert rep.passed


def test_transversality_trivgpd(trivgpd, tpts):
    assert check_transversality(trivgpd, tpts).passed


def test_transversality_point_leg(trivgpd, tpts):
    # a leg to a point chart is trivially transverse
    total = trivgpd.source.chart
    pt = Chart("pt", 0, [])
    leg = ConformalMap(SmoothMap(total, pt, []))
    dp = DualPairSpec(trivgpd.source, (zero_pair(pt), leg),
                      (trivgpd.J2, trivgpd.Phi2))
    assert check_transversality(dp, tpts[:5]).passed


def test_transversality_broken():
    dp = build("broken-transv")
    pts = sample_points(dp.source.chart, 30, seed=52)
    rep = check_transversality(dp, pts)
    assert not rep.passed


def test_commutation_trivgpd(trivgpd, tpts):
    assert check_commutation(trivgpd, tpts).passed


def test_commutation_reeb_membership(trivgpd, tpts):
    # strict case: X_{a_i} is the Reeb field, tangent to both fiber systems
    from jdl.contact import reeb
    from jdl.chart import tangent_map
    for p in tpts[:5]:
        E = reeb(trivgpd.source, p)
        assert np.abs(tangent_map(trivgpd.Phi1.map, p) @ E).max() < 1e-12
        assert np.abs(tangent_map(trivgpd.Phi2.map, p) @ E).max() < 1e-12


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


def test_curvature_orthogonality_trivgpd(trivgpd, tpts):
    assert check_curvature_orthogonality(trivgpd, tpts).passed


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


def test_verify_dual_pair_trivgpd(trivgpd, tpts):
    reports = verify_dual_pair(trivgpd, tpts)
    for rep in reports.values():
        assert rep.passed, rep.check_id


def test_verify_dual_pair_broken_specs_verdicts_agree():
    for spec_id in ("broken-comm", "broken-orth", "broken-transv"):
        dp = build(spec_id)
        pts = sample_points(dp.source.chart, 20, seed=56)
        reports = verify_dual_pair(dp, pts)
        assert not reports["varpi_orthogonality"].passed
        assert reports["equivalence"].passed, dp.name


def test_rank_relation_trivgpd(trivgpd, tpts):
    rep = check_rank_relation(trivgpd, tpts)
    assert rep.passed   # 1 + 1 + 1 = 3 and the span identities


def test_rank_relation_reads_rank_and_kernel_from_one_svd(trivgpd):
    # first leg scaled by 1e-10: an absolute rank tolerance reads rank 0
    # while ker T phi_1 is 2-dim, so the rank sum failed; rank and kernel
    # now come from one SVD, and the spans do not depend on the scale
    tiny = ConformalMap(SmoothMap(trivgpd.source.chart, trivgpd.J1.chart,
                                  [lambda q, p, u: 1e-10 * q]))
    dp = DualPairSpec(trivgpd.source, (trivgpd.J1, tiny),
                      (trivgpd.J2, trivgpd.Phi2))
    pts = sample_points(dp.source.chart, 10, seed=60)
    assert np.linalg.matrix_rank(tangent_map(tiny.map, pts[0]),
                                 tol=1e-9) == 0
    assert check_rank_relation(dp, pts).passed
    for rep in verify_dual_pair(dp, pts).values():
        assert rep.passed, rep.check_id


def test_rank_relation_broken():
    dp = build("broken-orth")
    pts = sample_points(dp.source.chart, 10, seed=57)
    assert not check_rank_relation(dp, pts).passed


def test_corollary_decomposition_trivgpd(trivgpd, tpts):
    assert check_corollary_decomposition(trivgpd, tpts).passed


def test_corollary_decomposition_darboux5():
    dp = build("darboux5-product")
    pts = sample_points(dp.source.chart, 10, seed=58)
    assert check_corollary_decomposition(dp, pts).passed


def test_centralizer_membership_good(trivgpd, tpts):
    # λ = g(q) commutes with the first-leg pullbacks and annihilates ker DΦ2
    lam = ScalarFieldSpec(3, lambda q, p, u: q * q + 1.0)
    rep = centralizer_membership(trivgpd, lam, tpts[:10])
    assert rep.passed


def test_centralizer_membership_hypothesis_not_met(trivgpd, tpts):
    lam = ScalarFieldSpec(3, lambda q, p, u: p)
    rep = centralizer_membership(trivgpd, lam, tpts[:10])
    assert rep.status == HYPOTHESIS_NOT_MET


def test_centralizer_membership_constant(trivgpd, tpts):
    lam = constant(3, 3.0)
    # constants are pullbacks of constants: hypothesis holds, membership holds
    rep = centralizer_membership(trivgpd, lam, tpts[:10])
    assert rep.passed


def test_reports_carry_their_wall_time(trivgpd, tpts):
    t0 = time.perf_counter()
    reports = verify_dual_pair(trivgpd, tpts)
    verify_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    rank = check_rank_relation(trivgpd, tpts)
    rank_s = time.perf_counter() - t0
    assert all(0 < rep.wall_time <= verify_s for rep in reports.values())
    assert 0 < rank.wall_time <= rank_s
    assert rank.as_dict()["wall_time"] == rank.wall_time
