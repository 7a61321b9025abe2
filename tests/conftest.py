"""The fixtures of the test modules; the helpers they share are in
``oracles.py``."""
import numpy as np
import pytest

from jdl.catalog import build
from jdl.chart import Chart, SmoothMap
from jdl.dualpair import DualPairSpec
from jdl.jacobi import ConformalMap, JacobiPair


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


# The shared contact charts.  Each fixture builds fresh objects, so a test
# may tamper with the one it receives.

@pytest.fixture
def darboux3():
    """θ = dz - y dx on the box [-2, 2]^3, the catalog's darboux3."""
    return build("darboux3")


@pytest.fixture
def darboux3_pair():
    """The Jacobi pair of darboux3 in closed form: Π = (∂x + y∂z) ∧ ∂y,
    E = ∂z."""
    chart = Chart("darboux3", 3, [(-2, 2)] * 3)
    return JacobiPair(chart, {(0, 1): 1.0, (1, 2): lambda x, y, z: -y},
                      [0.0, 0.0, 1.0])


@pytest.fixture
def trivgpd():
    """θ = du + p dq, the source of the catalog's trivgpd dual pair."""
    return build("trivgpd").source


@pytest.fixture
def trivgpd_tiny_leg():
    """The catalog's trivgpd dual pair with φ1 = 1e-10·q: Tφ1 is tiny next
    to the g-row of DΦ1, which a relative rank tolerance drops."""
    dp = build("trivgpd")
    tiny = ConformalMap(SmoothMap(dp.source.chart, dp.J1.chart,
                                  [lambda q, p, u: 1e-10 * q]))
    return DualPairSpec(dp.source, (dp.J1, tiny), (dp.J2, dp.Phi2))


@pytest.fixture
def darboux5():
    """θ = dz - y1 dx1 - y2 dx2, the source of darboux5-product."""
    return build("darboux5-product").source
