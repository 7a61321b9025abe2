"""Spec table of the benchmark: builders and expected verdicts, keyed by id.

Ids follow the catalog named in ROADMAP.md.  The dual-pair builders are
copies of the ones in ``tests/test_dualpair.py``; test modules are not an
API, so they are copied rather than imported.  Each builder returns fresh
objects, so the lazy ``DualPairSpec.source_pair`` extraction is paid again
by every job that builds one.

``EXPECTED[id]`` gives the verdict of every check a workload runs on that
spec, keyed by ``CheckReport.check_id``.  A call that is expected to raise
is keyed by the call's name with the value ``"raises <ExceptionType>"``.
The comments name the verdicts the tests assert; the others are the
outcomes the defining conditions predict, and the checks agree with them.
"""
from dataclasses import dataclass

from jdl.chart import Chart, SmoothMap
from jdl.contact import ContactStructure
from jdl.dualpair import DualPairSpec
from jdl.errors import UnknownId
from jdl.fields import ScalarFieldSpec
from jdl.jacobi import ConformalMap, JacobiPair, aff1, lie_poisson, so3, zero_pair
from jdl.jets import exp
from jdl.report import FAIL, PASS


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


@dataclass(frozen=True)
class LiePoissonSpec:
    """A Lie–Poisson pair with what its leaf trace should show.

    ``casimirs`` must stay constant along the trace; ``leaf_dim`` is the
    rank of the characteristic distribution on the traced leaf.
    """

    pair: JacobiPair
    casimirs: tuple
    leaf_dim: int


def so3_spec():
    J = lie_poisson(so3())
    return LiePoissonSpec(J, (ScalarFieldSpec(3, lambda x, y, z:
                                              x * x + y * y + z * z),), 2)


def aff1_spec():
    return LiePoissonSpec(lie_poisson(aff1()), (), 2)


BUILDERS = {
    "darboux5-product": darboux5_spec,
    "broken-orth": broken_orth_spec,
    "trivgpd": trivgpd_spec,
    "broken-comm": broken_comm_spec,
    "broken-transv": broken_transv_spec,
    "so3": so3_spec,
    "aff1": aff1_spec,
}

_ALL_PASS_DUAL_PAIR = {
    "morphism_leg1": PASS,
    "morphism_leg2": PASS,
    "transversality": PASS,
    "commutation": PASS,
    "curvature_orthogonality": PASS,
    "varpi_orthogonality": PASS,
    "equivalence": PASS,
    "rank_relation": PASS,
    "corollary_decomposition": PASS,
    "vertical_dim_sum": PASS,
    "homogeneous_sdp_equivalence": PASS,
}

_ALL_PASS_LIE_POISSON = {
    "jacobi_pair": PASS,
    "leaf_trace": PASS,
    "poissonization_oracle": PASS,
    "poissonization_homogeneity": PASS,
    "lifted_poisson": PASS,
}

EXPECTED = {
    # tests: morphisms, verify_dual_pair, rank_relation, vertical_dim_sum
    # and corollary_decomposition all pass.
    "darboux5-product": dict(_ALL_PASS_DUAL_PAIR),
    # tests: transversality and commutation pass; curvature and varpi
    # orthogonality and rank_relation fail; equivalence and the homogeneous
    # SDP equivalence pass, since both verdicts agree.  The second leg is
    # one dimension short, so the corollary decomposition and the
    # dimension sum fail as well.
    "broken-orth": dict(_ALL_PASS_DUAL_PAIR,
                        curvature_orthogonality=FAIL,
                        varpi_orthogonality=FAIL,
                        rank_relation=FAIL,
                        corollary_decomposition=FAIL,
                        vertical_dim_sum=FAIL),
    # tests: everything passes, pullback distribution included.
    "trivgpd": dict(_ALL_PASS_DUAL_PAIR, pullback_distribution=PASS),
    # tests: commutation and varpi orthogonality fail; transversality,
    # curvature orthogonality and equivalence pass.  The e^p factor also
    # breaks the second leg's morphism property and the kernel identities
    # of rank_relation, the corollary and the pullback distribution.
    "broken-comm": dict(_ALL_PASS_DUAL_PAIR, pullback_distribution=FAIL,
                        morphism_leg2=FAIL,
                        commutation=FAIL,
                        varpi_orthogonality=FAIL,
                        rank_relation=FAIL,
                        corollary_decomposition=FAIL),
    # tests: transversality and varpi orthogonality fail, equivalence
    # passes.  Known defects, both on the leg onto the point chart:
    # check_morphisms raises ValueError because check_jacobi_morphism takes
    # the max of an empty array, and check_pullback_distribution raises
    # ValueError reshaping an empty array.
    "broken-transv": {
        "check_morphisms": "raises ValueError",
        "transversality": FAIL,
        "commutation": FAIL,
        "curvature_orthogonality": FAIL,
        "varpi_orthogonality": FAIL,
        "equivalence": PASS,
        "rank_relation": FAIL,
        "corollary_decomposition": FAIL,
        "vertical_dim_sum": FAIL,
        "homogeneous_sdp_equivalence": PASS,
        "check_pullback_distribution": "raises ValueError",
    },
    # tests: the Jacobi identity, the Poissonization oracle, homogeneity
    # and [[P,P]] = 0 pass for so3; the leaf trace keeps rank 2 and the
    # Casimir.
    "so3": dict(_ALL_PASS_LIE_POISSON),
    "aff1": dict(_ALL_PASS_LIE_POISSON),
}


def build(spec_id):
    """Fresh objects for the spec ``spec_id``."""
    try:
        return BUILDERS[spec_id]()
    except KeyError:
        raise UnknownId(f"no benchmark spec with id {spec_id!r}") from None


def expected(spec_id):
    """The expected verdict table of ``spec_id``."""
    try:
        return EXPECTED[spec_id]
    except KeyError:
        raise UnknownId(f"no benchmark spec with id {spec_id!r}") from None
