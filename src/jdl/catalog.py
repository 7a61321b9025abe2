"""The catalog of contact dual-pair candidates, keyed by id.

Each entry is a builder that returns fresh objects, so the lazy
``DualPairSpec.source_pair`` is built again by every caller:

* ``trivgpd``: the strict dual pair of the bundle-of-groups groupoid
  T*R × R over R; every condition holds.
* ``darboux5-product``: R^5 with the two Darboux blocks as legs; every
  condition holds.
* ``broken-comm``: trivgpd with the conformal factor e^p on the second leg;
  commutation fails.
* ``broken-orth``: darboux5 with a second leg one dimension short;
  transversality and commutation hold, orthogonality fails.
* ``broken-transv``: darboux3 with a first leg whose kernel lies in the
  contact distribution and a second leg onto a point chart; transversality
  fails.
"""
from __future__ import annotations

from .chart import Chart, SmoothMap
from .contact import ContactStructure
from .dualpair import DualPairSpec
from .errors import UnknownId
from .fields import ScalarFieldSpec
from .jacobi import ConformalMap, JacobiPair, zero_pair
from .jets import exp


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


def _broken_transv():
    total = Chart("darboux3", 3, [(-2, 2)] * 3)
    C = ContactStructure(total, {(0,): lambda x, y, z: -y, (2,): 1.0})
    m1 = Chart("xz", 2, [(-2, 2)] * 2)
    m2 = Chart("pt", 0, [])
    phi1 = ConformalMap(SmoothMap(total, m1, [lambda x, y, z: x,
                                              lambda x, y, z: z]))
    phi2 = ConformalMap(SmoothMap(total, m2, []))
    return DualPairSpec(C, (zero_pair(m1), phi1), (zero_pair(m2), phi2),
                        name="broken-transv")


BUILDERS = {
    "trivgpd": _trivgpd,
    "darboux5-product": _darboux5,
    "broken-comm": lambda: _trivgpd(
        ScalarFieldSpec(3, lambda q, p, u: exp(p)), name="broken-comm"),
    "broken-orth": lambda: _darboux5(False, name="broken-orth"),
    "broken-transv": _broken_transv,
}


def build(spec_id):
    """Fresh objects for the catalog entry ``spec_id``.

    Raises UnknownId for an id that is not in the catalog.
    """
    try:
        builder = BUILDERS[spec_id]
    except KeyError:
        known = ", ".join(BUILDERS)
        raise UnknownId(f"no catalog entry {spec_id!r}; known: {known}") \
            from None
    return builder()
