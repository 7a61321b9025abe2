"""Jacobi pairs on charts: integrability, brackets, Hamiltonian fields,
morphisms, Lie-Poisson structures and the projectivized-coalgebra oracle.

A Jacobi pair is a bivector field Π and a vector field E on a chart subject
to [[Π,Π]] = 2E∧Π and [[E,Π]] = 0.  Both hold exactly when its
Poissonization P = s⁻¹Π + ∂s∧E on chart × R^× (see :mod:`jdl.homogenize`)
is Poisson, and that is how they are checked: at s = 1 the base components
of [[P,P]] are [[Π,Π]] - 2E∧Π and the ∂s components are -2[[E,Π]].  The
associated bracket on functions is

    {f, g} = Π(df, dg) + f E(g) - g E(f),

with Hamiltonian vector field X_f = Π♯(df) + f E and distinguished field
E = X_1.  Derived objects stay jet-evaluable, so a bracket of two fields
has an exact 1-jet; no finite-difference layer enters any check.
"""
from __future__ import annotations

import itertools

import numpy as np

from .calculus import Multivector, VectorField, schouten_square
from .chart import Chart, tangent_map
from .errors import DimensionMismatch, ZeroConformalFactor
from .fields import ScalarFieldSpec, as_field, compose, constant, coordinate
from .linalg import RANK_TOL
from .report import residual_report, timed

JACOBI_IDENTITY = "[[Pi,Pi]] = 2 E^Pi and [[E,Pi]] = 0"
MORPHISM_IDENTITY = "{a phi*f, a phi*g}_1 = a phi*{f,g}_2"


class JacobiPair:
    """Bivector Π and vector field E on a chart."""

    def __init__(self, chart, Pi, E):
        self.chart = chart
        if isinstance(Pi, dict):
            Pi = Multivector(chart, 2, Pi)
        if isinstance(E, (list, tuple)):
            E = VectorField(chart, list(E))
        self.Pi = Pi
        self.E = E

    def pi_matrix(self, p):
        return self.Pi.dense(p)

    def __repr__(self):
        return f"JacobiPair(chart={self.chart.name!r})"


def zero_pair(chart):
    return JacobiPair(chart, {}, [constant(chart.dim, 0.0)] * chart.dim)


class ConformalMap:
    """A smooth map together with a nowhere-zero conformal factor.

    Pulls back functions on the target to sections upstairs by
    (Φ*g)(x) = a(x) g(φ(x)).
    """

    def __init__(self, map, factor=1.0):
        self.map = map
        self.factor = as_field(map.source.dim, factor)

    def pullback(self, g):
        """Φ*g as a field on the source chart."""
        g = as_field(self.map.target.dim, g)
        return self.factor * compose(g, self.map.components,
                                     source_dim=self.map.source.dim)

    def factor_value(self, p):
        """a(p) from its memoized 1-jet; raises where |a| <= RANK_TOL·|j¹a|."""
        j = self.factor(p, 1)
        if abs(j.value) <= RANK_TOL * (j.value ** 2 + j.grad @ j.grad) ** 0.5:
            raise ZeroConformalFactor(f"conformal factor {j.value} at {p}")
        return j.value

    def __repr__(self):
        return f"ConformalMap({self.map!r})"


def poissonization_jet(J, p):
    """The 1-jet of the Poissonization P = s⁻¹Π + ∂s∧E at (p, 1), in closed
    form from one 1-jet of (Π, E): the value is the bi-DO matrix
    [[Π, -E], [Eᵀ, 0]], ∂_l P is the same block of (∂_lΠ, ∂_lE), and
    ∂_s P = [[-Π, 0], [0, 0]].  Laid out as :meth:`Multivector.jet`."""
    Pi, dPi = J.Pi.jet(p)
    E, dE = J.E.jet(p)
    ds = _bidiff_block(-Pi, np.zeros(J.chart.dim))
    return _bidiff_block(Pi, E), np.concatenate([_bidiff_block(dPi, dE),
                                                 ds[None]])


@timed
def check_jacobi_pair(J, pts):
    """Max |[[P,P]]| at s = 1 over the points, P the Poissonization of J,
    read from :func:`poissonization_jet`: the base components are
    [[Π,Π]] - 2E∧Π and the ∂s components -2[[E,Π]]."""
    residuals = []
    for p in pts:
        r = np.abs(schouten_square(*poissonization_jet(J, p))).max()
        residuals.append((p, float(r)))
    return residual_report("jacobi_pair", JACOBI_IDENTITY, residuals, 1e-10)


def bracket_field(J, f, g):
    """{f,g} as a derived field, exact to order 1."""
    f = as_field(J.chart.dim, f)
    g = as_field(J.chart.dim, g)
    acc = f * J.E.apply_field(g) - g * J.E.apply_field(f)
    for (i, j), comp in J.Pi.comps.items():
        acc = acc + comp * (f.partial(i) * g.partial(j)
                            - f.partial(j) * g.partial(i))
    return acc


def hamiltonian_field(J, f):
    """X_f as a derived VectorField."""
    f = as_field(J.chart.dim, f)
    n = J.chart.dim
    comps = [f * J.E.comps[j] for j in range(n)]
    for (i, j), pij in J.Pi.comps.items():
        # Π♯(α)^j = Σ_i α_i Π^{ij}
        comps[j] = comps[j] + pij * f.partial(i)
        comps[i] = comps[i] - pij * f.partial(j)
    return VectorField(J.chart, comps)


def jacobi_bidiff_matrix(J, p):
    """Matrix of the bi-differential-operator pairing on jet coordinates.

    J((α,c),(β,e)) = Π(α,β) + c·β(E) - e·α(E).
    """
    return _bidiff_block(J.pi_matrix(p), J.E.at(p))


def _bidiff_block(Pi, E):
    """[[Π, -E], [Eᵀ, 0]], over any leading axes of Π and E."""
    n = E.shape[-1]
    M = np.zeros(E.shape[:-1] + (n + 1, n + 1))
    M[..., :n, :n] = Pi
    M[..., n, :n] = E
    M[..., :n, n] = -E
    return M


def default_test_functions(chart):
    """The test sections of every check: the constant 1 and the coordinates.

    One family suffices because at every point p their 1-jets (0, 1) and
    (e_i, x_i(p)) span J¹ at p, so an identity that is first order in each
    argument (a bracket, a Hamiltonian field, a pullback jet) holds on all
    sections at p once it holds on these.
    """
    return [constant(chart.dim, 1.0)] + \
        [coordinate(chart.dim, i) for i in range(chart.dim)]


@timed
def check_jacobi_morphism(J1, J2, Phi, pts):
    """Bracket compatibility and Hamiltonian pushforward along (φ, a).

    Residuals of {aφ*f, aφ*g}_1 - aφ*({f,g}_2) for all pairs of target test
    sections, plus Tφ·X_{aφ*g}(p) - X_g(φ(p)).
    """
    test_fns = default_test_functions(J2.chart)
    residuals = []
    push_fields = [(g, hamiltonian_field(J1, Phi.pullback(g)),
                    hamiltonian_field(J2, g)) for g in test_fns]
    pair_fields = []
    for f, g in itertools.combinations_with_replacement(test_fns, 2):
        lhs = bracket_field(J1, Phi.pullback(f), Phi.pullback(g))
        rhs = Phi.pullback(bracket_field(J2, f, g))
        pair_fields.append((lhs, rhs))
    for p in pts:
        Phi.factor_value(p)
        r = 0.0
        for lhs, rhs in pair_fields:
            r = max(r, abs(lhs.value(p) - rhs.value(p)))
        q = Phi.map(p)
        T = tangent_map(Phi.map, p)
        for g, up, down in push_fields:
            r = max(r, np.abs(T @ up.at(p) - down.at(q)).max())
        residuals.append((p, r))
    return residual_report("jacobi_morphism", MORPHISM_IDENTITY, residuals, 1e-8)


class LieAlgebraData:
    """Structure constants c^k_ij with [e_i, e_j] = Σ_k c[i,j,k] e_k."""

    def __init__(self, dim, structure_constants):
        c = np.asarray(structure_constants, dtype=float)
        if c.shape != (dim, dim, dim):
            raise DimensionMismatch(
                f"structure constants must be ({dim},{dim},{dim})")
        if np.abs(c + c.transpose(1, 0, 2)).max() > 1e-12:
            raise DimensionMismatch("structure constants not antisymmetric")
        # Jacobi identity of the bracket, exact for integer/rational input
        jac = (np.einsum("ijm,mkl->ijkl", c, c)
               + np.einsum("jkm,mil->ijkl", c, c)
               + np.einsum("kim,mjl->ijkl", c, c))
        if np.abs(jac).max() > 1e-12:
            raise DimensionMismatch("structure constants violate the Jacobi identity")
        self.dim = dim
        self.c = c


def so3():
    c = np.zeros((3, 3, 3))
    for i, j, k in itertools.permutations(range(3)):
        perm = (i, j, k)
        # Levi-Civita sign
        sign = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}[perm]
        c[i, j, k] = sign
    return LieAlgebraData(3, c)


def aff1():
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 1.0   # [e1, e2] = e2
    c[1, 0, 1] = -1.0
    return LieAlgebraData(2, c)


def lie_poisson(g):
    """Linear Poisson pair on the coalgebra chart: Π_ij(μ) = Σ_k c^k_ij μ_k."""
    chart = Chart(f"coalg{g.dim}", g.dim, [(-2.0, 2.0)] * g.dim)
    comps = {}
    for i, j in itertools.combinations(range(g.dim), 2):
        ck = g.c[i, j]
        if np.any(ck != 0):

            def fld(*mu, ck=ck):
                acc = 0.0
                for k, c in enumerate(ck):
                    if c != 0:
                        acc = acc + c * mu[k]
                return acc

            comps[(i, j)] = ScalarFieldSpec(g.dim, fld)
    return JacobiPair(chart, comps, [constant(g.dim, 0.0)] * g.dim)
