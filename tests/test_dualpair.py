import time

import numpy as np
import pytest

from jdl.chart import Chart, SmoothMap, sample_points, tangent_map
from jdl.contact import ContactStructure, contact_to_jacobi
from jdl.dualpair import (DualPairSpec, centralizer_membership,
                          check_commutation, check_corollary_decomposition,
                          check_curvature_orthogonality, check_rank_relation,
                          check_transversality, check_varpi_orthogonality,
                          check_vertical_dim_sum, verify_dual_pair)
from jdl.fields import ScalarFieldSpec, constant, coordinate
from jdl.jacobi import ConformalMap, JacobiPair, hamiltonian_field, zero_pair
from jdl.jets import exp
from jdl.report import HYPOTHESIS_NOT_MET


def trivgpd_spec():
    """Strict dual pair of the bundle-of-groups groupoid T*R x R over R."""
    total = Chart("trivgpd", 3, [(-2, 2)] * 3)
    C = ContactStructure(total, {(0,): lambda q, p, u: p, (2,): 1.0})
    base1 = Chart("base_s", 1, [(-2, 2)])
    base2 = Chart("base_t", 1, [(-2, 2)])
    s = ConformalMap(SmoothMap(total, base1, [lambda q, p, u: q]))
    t = ConformalMap(SmoothMap(total, base2, [lambda q, p, u: q]))
    return DualPairSpec(C, (zero_pair(base1), s), (zero_pair(base2), t),
                        name="triv-gpd")


def darboux5_spec():
    """Product dual pair on R^5: the two Darboux blocks as legs."""
    total = Chart("darboux5", 5, [(-2, 2)] * 5)
    C = ContactStructure(total, {
        (0,): lambda x1, y1, x2, y2, z: -y1,
        (2,): lambda x1, y1, x2, y2, z: -y2,
        (4,): 1.0})
    m1 = Chart("block1", 2, [(-2, 2)] * 2)
    m2 = Chart("block2", 2, [(-2, 2)] * 2)
    J1 = JacobiPair(m1, {(0, 1): 1.0}, [0.0, 0.0])
    J2 = JacobiPair(m2, {(0, 1): 1.0}, [0.0, 0.0])
    phi1 = ConformalMap(SmoothMap(total, m1, [
        lambda x1, y1, x2, y2, z: x1, lambda x1, y1, x2, y2, z: y1]))
    phi2 = ConformalMap(SmoothMap(total, m2, [
        lambda x1, y1, x2, y2, z: x2, lambda x1, y1, x2, y2, z: y2]))
    return DualPairSpec(C, (J1, phi1), (J2, phi2), name="darboux5-product")


def broken_comm_spec():
    """Second leg carries a non-commuting conformal factor e^p."""
    total = Chart("trivgpd", 3, [(-2, 2)] * 3)
    C = ContactStructure(total, {(0,): lambda q, p, u: p, (2,): 1.0})
    base1 = Chart("base_s", 1, [(-2, 2)])
    base2 = Chart("base_t", 1, [(-2, 2)])
    s = ConformalMap(SmoothMap(total, base1, [lambda q, p, u: q]))
    t = ConformalMap(SmoothMap(total, base2, [lambda q, p, u: q]),
                     ScalarFieldSpec(3, lambda q, p, u: exp(p)))
    return DualPairSpec(C, (zero_pair(base1), s), (zero_pair(base2), t),
                        name="broken-comm")


def broken_orth_spec():
    """Second leg too small on darboux5: conditions 1-2 hold, 3 fails."""
    total = Chart("darboux5", 5, [(-2, 2)] * 5)
    C = ContactStructure(total, {
        (0,): lambda x1, y1, x2, y2, z: -y1,
        (2,): lambda x1, y1, x2, y2, z: -y2,
        (4,): 1.0})
    m1 = Chart("block1", 2, [(-2, 2)] * 2)
    m2 = Chart("line2", 1, [(-2, 2)])
    J1 = JacobiPair(m1, {(0, 1): 1.0}, [0.0, 0.0])
    phi1 = ConformalMap(SmoothMap(total, m1, [
        lambda x1, y1, x2, y2, z: x1, lambda x1, y1, x2, y2, z: y1]))
    phi2 = ConformalMap(SmoothMap(total, m2, [lambda x1, y1, x2, y2, z: x2]))
    return DualPairSpec(C, (J1, phi1), (zero_pair(m2), phi2),
                        name="broken-orth")


def broken_transv_spec():
    """First leg's kernel sits inside the contact distribution."""
    total = Chart("darboux3", 3, [(-2, 2)] * 3)
    C = ContactStructure(total, {(0,): lambda x, y, z: -y, (2,): 1.0})
    m1 = Chart("xz", 2, [(-2, 2)] * 2)
    m2 = Chart("pt", 0, [])
    phi1 = ConformalMap(SmoothMap(total, m1, [lambda x, y, z: x,
                                              lambda x, y, z: z]))
    phi2 = ConformalMap(SmoothMap(total, m2, []))
    return DualPairSpec(C, (zero_pair(m1), phi1), (zero_pair(m2), phi2),
                        name="broken-transv")


@pytest.fixture(scope="module")
def trivgpd():
    return trivgpd_spec()


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
    dp = broken_transv_spec()
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
    dp = broken_comm_spec()
    pts = sample_points(dp.source.chart, 20, seed=53)
    assert not check_commutation(dp, pts).passed
    # but transversality and curvature orthogonality still hold
    assert check_transversality(dp, pts).passed
    assert check_curvature_orthogonality(dp, pts).passed


@pytest.mark.parametrize("make, holds", [(trivgpd_spec, True),
                                         (darboux5_spec, True),
                                         (broken_comm_spec, False)])
def test_factor_fields_lie_in_the_other_kernel(make, holds):
    # X_{a_i}(p) ∈ ker Tφ_j(p): check_commutation evaluates only the
    # pullback brackets, from which this follows
    dp = make()
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
    dp = broken_orth_spec()
    pts = sample_points(dp.source.chart, 20, seed=54)
    # conditions 1 and 2 hold, 3 fails: the dimension bookkeeping is off
    assert check_transversality(dp, pts).passed
    assert check_commutation(dp, pts).passed
    assert not check_curvature_orthogonality(dp, pts).passed
    assert not check_varpi_orthogonality(dp, pts).passed


def test_darboux5_product_positive():
    dp = darboux5_spec()
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
    for make in (broken_comm_spec, broken_orth_spec, broken_transv_spec):
        dp = make()
        pts = sample_points(dp.source.chart, 20, seed=56)
        reports = verify_dual_pair(dp, pts)
        assert not reports["varpi_orthogonality"].passed
        assert reports["equivalence"].passed, dp.name


def test_rank_relation_trivgpd(trivgpd, tpts):
    rep = check_rank_relation(trivgpd, tpts)
    assert rep.passed   # 1 + 1 + 1 = 3 and the span identities


def test_rank_relation_broken():
    dp = broken_orth_spec()
    pts = sample_points(dp.source.chart, 10, seed=57)
    assert not check_rank_relation(dp, pts).passed


def test_corollary_decomposition_trivgpd(trivgpd, tpts):
    assert check_corollary_decomposition(trivgpd, tpts).passed


def test_corollary_decomposition_darboux5():
    dp = darboux5_spec()
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
