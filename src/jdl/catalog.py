"""The catalog of examples, keyed by id, and the checks of each kind.

Each entry has a kind and a builder that returns fresh objects, so the lazy
``DualPairSpec.source_pair`` is built again by every caller.

``dual_pair`` (a :class:`~jdl.dualpair.DualPairSpec`):

* ``trivgpd``: the strict dual pair of the bundle-of-groups groupoid
  T*R × R over R; every condition holds.
* ``darboux5-product``: R^5 with the two Darboux blocks as legs; every
  condition holds.
* ``broken-comm``: trivgpd with the conformal factor e^p on the second leg;
  commutation fails.
* ``broken-orth``: darboux5 with a second leg one dimension short;
  transversality and commutation hold, orthogonality and the leaf
  correspondence fail.
* ``broken-transv``: darboux3 with a first leg whose kernel lies in the
  contact distribution and a second leg onto a point chart; transversality
  fails.

``contact`` (a :class:`~jdl.contact.ContactStructure`):

* ``darboux3``: θ = dz - y dx on the box [-2, 2]^3.
* ``broken-contact``: θ = (1 + x²) dz on [-2, 2]^3; θ∧dθ = 0, so
  ``contact`` and ``symplectization`` fail, and the checks that solve for
  its Jacobi pair raise SingularSystem.

``jacobi`` (a :class:`~jdl.jacobi.JacobiPair`):

* ``so3``, ``aff1``: the Lie-Poisson pairs of so(3) and of the affine
  algebra of the line.
* ``broken-jacobi``: Π = ∂x∧∂y and E = x∂x on the box [-2, 2]^2;
  [[E,Π]] = -∂x∧∂y ≠ 0, so ``jacobi_pair`` and ``lifted_poisson`` fail,
  while the Poissonization oracle and homogeneity hold.

:data:`CHECKS` maps each kind to its ``(name, check)`` entries, in the
order ``jdl verify`` runs them; ``check(obj, pts)`` returns a list of
reports, and ``name`` labels the one error line of a check that raises.

* ``dual_pair``: ``check_morphisms`` (one report per leg),
  ``verify_dual_pair`` (the three conditions, ϖ-orthogonality and their
  agreement), ``check_rank_relation``, ``check_corollary_decomposition``,
  ``check_vertical_dim_sum``, ``check_homogeneous_sdp_equivalence``,
  ``check_pullback_distribution``, ``check_technical_lemma`` (one report
  per leg, against the source pair) and ``verify_leaf_correspondence``.
* ``contact``: ``check_contact``, ``check_one_perp_is_horizontal``
  (ι_1 ϖ = θ∘σ), ``check_sharp_inverse`` against ``contact_to_jacobi(C)``,
  ``check_symplectization`` (d_D ϖ = 0 and the contracting homotopy, read
  on ω~), ``check_symplectization_consistency`` and ``check_jacobi_pair``
  of the induced pair.
* ``jacobi``: ``check_jacobi_pair`` and the Poissonization checks
  (``check_poissonization_oracle``, ``check_homogeneity`` and
  ``check_schouten_square``).

:func:`points` draws the points: on a dual pair's source chart, and on
chart × R^× for a contact structure or a Jacobi pair, whose checks on the
chart itself read the first coordinates of each point.
"""
from __future__ import annotations

from .atiyah import (check_one_perp_is_horizontal, check_sharp_inverse,
                     check_technical_lemma)
from .chart import Chart, SmoothMap, sample_points
from .contact import ContactStructure, check_contact, contact_to_jacobi
from .dualpair import (DualPairSpec, check_corollary_decomposition,
                       check_rank_relation, check_vertical_dim_sum,
                       verify_dual_pair)
from .errors import UnknownId
from .fields import ScalarFieldSpec
from .homogenize import (check_homogeneity, check_homogeneous_sdp_equivalence,
                         check_poissonization_oracle, check_schouten_square,
                         check_symplectization,
                         check_symplectization_consistency, lifted_pair,
                         slit_chart)
from .jacobi import (ConformalMap, JacobiPair, aff1, check_jacobi_pair,
                     lie_poisson, so3, zero_pair)
from .jets import exp
from .leaves import check_pullback_distribution, verify_leaf_correspondence
from .report import require_points


def _trivgpd(factor2=1.0, name="triv-gpd"):
    total = Chart("trivgpd", 3, [(-2, 2)] * 3)
    C = ContactStructure(total, {(0,): lambda q, p, u: p, (2,): 1.0})
    base1 = Chart("base_s", 1, [(-2, 2)])
    base2 = Chart("base_t", 1, [(-2, 2)])
    s = ConformalMap(SmoothMap(total, base1, [lambda q, p, u: q]))
    t = ConformalMap(SmoothMap(total, base2, [lambda q, p, u: q]), factor2)
    return DualPairSpec(C, (zero_pair(base1), s), (zero_pair(base2), t),
                        name=name)


def _darboux5(second_block=True, name="darboux5-product"):
    total = Chart("darboux5", 5, [(-2, 2)] * 5)
    C = ContactStructure(total, {
        (0,): lambda x1, y1, x2, y2, z: -y1,
        (2,): lambda x1, y1, x2, y2, z: -y2,
        (4,): 1.0})
    m1 = Chart("block1", 2, [(-2, 2)] * 2)
    J1 = JacobiPair(m1, {(0, 1): 1.0}, [0.0, 0.0])
    phi1 = ConformalMap(SmoothMap(total, m1, [
        lambda x1, y1, x2, y2, z: x1, lambda x1, y1, x2, y2, z: y1]))
    if second_block:
        m2 = Chart("block2", 2, [(-2, 2)] * 2)
        leg2 = (JacobiPair(m2, {(0, 1): 1.0}, [0.0, 0.0]),
                ConformalMap(SmoothMap(total, m2, [
                    lambda x1, y1, x2, y2, z: x2,
                    lambda x1, y1, x2, y2, z: y2])))
    else:
        m2 = Chart("line2", 1, [(-2, 2)])
        leg2 = (zero_pair(m2), ConformalMap(SmoothMap(total, m2, [
            lambda x1, y1, x2, y2, z: x2])))
    return DualPairSpec(C, (J1, phi1), leg2, name=name)


def _darboux3():
    return ContactStructure(Chart("darboux3", 3, [(-2, 2)] * 3),
                            {(0,): lambda x, y, z: -y, (2,): 1.0})


def _broken_jacobi():
    return JacobiPair(Chart("r2", 2, [(-2, 2)] * 2), {(0, 1): 1.0},
                      [lambda x, y: x, 0.0])


def _broken_transv():
    C = _darboux3()
    m1 = Chart("xz", 2, [(-2, 2)] * 2)
    m2 = Chart("pt", 0, [])
    phi1 = ConformalMap(SmoothMap(C.chart, m1, [lambda x, y, z: x,
                                                lambda x, y, z: z]))
    phi2 = ConformalMap(SmoothMap(C.chart, m2, []))
    return DualPairSpec(C, (zero_pair(m1), phi1), (zero_pair(m2), phi2),
                        name="broken-transv")


# id -> (kind, builder)
ENTRIES = {
    "trivgpd": ("dual_pair", _trivgpd),
    "darboux5-product": ("dual_pair", _darboux5),
    "broken-comm": ("dual_pair", lambda: _trivgpd(
        ScalarFieldSpec(3, lambda q, p, u: exp(p)), name="broken-comm")),
    "broken-orth": ("dual_pair",
                    lambda: _darboux5(False, name="broken-orth")),
    "broken-transv": ("dual_pair", _broken_transv),
    "darboux3": ("contact", _darboux3),
    "broken-contact": ("contact", lambda: ContactStructure(
        Chart("r3", 3, [(-2, 2)] * 3), {(2,): lambda x, y, z: 1 + x * x})),
    "so3": ("jacobi", lambda: lie_poisson(so3())),
    "aff1": ("jacobi", lambda: lie_poisson(aff1())),
    "broken-jacobi": ("jacobi", _broken_jacobi),
}


def _each(*checks):
    """One (name, check) entry per check that returns one report and reads
    the points of the object's own chart (:func:`_base`)."""
    return tuple((check.__name__, lambda obj, pts, check=check:
                  [check(obj, _base(obj, pts))]) for check in checks)


def _base(obj, pts):
    """The points of ``obj``'s own chart: a dual pair's as drawn, else the
    first coordinates of the points of chart × R^×."""
    return pts if isinstance(obj, DualPairSpec) else [p[:-1] for p in pts]


def _technical_lemma(dp, pts):
    """check_technical_lemma of each leg against the source pair."""
    reps = []
    for i, (_, Phi) in enumerate(dp.legs()):
        rep = check_technical_lemma(Phi, dp.source_pair, pts)
        rep.check_id += f"_leg{i + 1}"
        reps.append(rep)
    return reps


def _pair(C, pts):
    """C's Jacobi pair, built once ``pts`` is known not to be empty."""
    require_points(pts, "contact_to_jacobi")
    return contact_to_jacobi(C)


def _poissonization(J, pts):
    """The Poissonization checks of J at points of chart × R^×."""
    P = lifted_pair(J)   # the oracle report certifies it
    return [check_poissonization_oracle(P, J, pts), check_homogeneity(P, pts),
            check_schouten_square(P, pts)]


CHECKS = {
    "dual_pair": (
        ("check_morphisms", lambda dp, pts: dp.check_morphisms(pts)),
        ("verify_dual_pair",
         lambda dp, pts: list(verify_dual_pair(dp, pts).values())),
        *_each(check_rank_relation, check_corollary_decomposition,
               check_vertical_dim_sum, check_homogeneous_sdp_equivalence,
               check_pullback_distribution),
        ("check_technical_lemma", _technical_lemma),
        *_each(verify_leaf_correspondence),
    ),
    "contact": (
        *_each(check_contact, check_one_perp_is_horizontal),
        ("check_sharp_inverse", lambda C, pts: [check_sharp_inverse(
            C, _pair(C, pts), _base(C, pts))]),
        ("check_symplectization",
         lambda C, pts: [check_symplectization(C, pts)]),
        ("check_symplectization_consistency",
         lambda C, pts: [check_symplectization_consistency(C, pts)]),
        ("check_jacobi_pair", lambda C, pts: [check_jacobi_pair(
            _pair(C, pts), _base(C, pts))]),
    ),
    "jacobi": (
        *_each(check_jacobi_pair),
        ("check_poissonization_oracle", _poissonization),
    ),
}


def _entry(spec_id):
    try:
        return ENTRIES[spec_id]
    except KeyError:
        known = ", ".join(ENTRIES)
        raise UnknownId(f"no catalog entry {spec_id!r}; known: {known}") \
            from None


def kind(spec_id):
    """The kind of the catalog entry ``spec_id``: a key of :data:`CHECKS`.

    Raises UnknownId for an id that is not in the catalog.
    """
    return _entry(spec_id)[0]


def build(spec_id):
    """Fresh objects for the catalog entry ``spec_id``.

    Raises UnknownId for an id that is not in the catalog.
    """
    return _entry(spec_id)[1]()


def points(obj, n, seed):
    """``n`` points for the checks of ``obj``, drawn with ``seed``: from a
    dual pair's source chart, else from chart × R^× (see the module
    docstring)."""
    if isinstance(obj, DualPairSpec):
        return sample_points(obj.source.chart, n, seed=seed)
    return sample_points(slit_chart(obj.chart), n, seed=seed)
