"""Sheaves on a pair (X, Y) at finite-model level.

An object is a triple (F_alpha, F_beta, phi) with F_alpha a complex over the
closed piece Y, F_beta a complex over X, and phi: F_beta -> iota_* F_alpha a
chain map.  At desk scale both complexes live over the same coefficient ring
and iota_* is the identity on underlying modules, so phi is just a chain map
between the two complexes.

Rj^! is implemented directly by the cone formula Cone(phi)[-1]; the acyclic
resolution that motivates it is kept around as a test oracle
(``canonical_resolution``).
"""

from __future__ import annotations

from . import linalg
from .complexes import (ChainMap, FreeComplex, _tensor, cone, homology_ranks,
                        triangle_les_exact)


class PairObject:
    def __init__(self, f_alpha, f_beta, phi=None):
        if f_alpha.ring != f_beta.ring:
            raise ValueError("pair components over different rings")
        self.f_alpha = f_alpha
        self.f_beta = f_beta
        self.phi = phi if phi is not None else ChainMap.zero(f_beta, f_alpha)
        if self.phi.source is not f_beta or self.phi.target is not f_alpha:
            if self.phi.source != f_beta or self.phi.target != f_alpha:
                raise ValueError("phi must map F_beta to iota_* F_alpha")

    @property
    def ring(self):
        return self.f_beta.ring

    def __eq__(self, other):
        if not isinstance(other, PairObject):
            return False
        if self.f_alpha != other.f_alpha or self.f_beta != other.f_beta:
            return False
        for n in set(self.f_beta.degrees()) | set(self.f_alpha.degrees()):
            if self.phi.component(n) != other.phi.component(n):
                return False
        return True


def unit_pair(ring):
    """(O_Y, O_X, restriction): the monoidal unit."""
    a = FreeComplex.single(ring)
    b = FreeComplex.single(ring)
    phi = ChainMap(b, a, {0: [[ring.one]]})
    return PairObject(a, b, phi)


def j_lower_shriek(g):
    """Extension by zero: (0, G, 0)."""
    return PairObject(FreeComplex.zero_complex(g.ring), g)


def rj_shriek(p):
    """Rj^!(F_alpha, F_beta, phi) = Cone(phi)[-1]."""
    return cone(p.phi).shift(-1)


def rj_shriek_triangle_exact(p):
    """The long exact sequence of Rj^! P -> F_beta -> iota_* F_alpha,
    verified on homology over a point base."""
    return triangle_les_exact(p.phi)


def pair_tensor(p, q):
    """Componentwise graded tensor with the product comparison map: phi (x)
    phi sends the basis vector (n, i, m, j) of p.F_beta (x) q.F_beta to
    sum phi_n[i2][i] phi_m[j2][j] (n, i2, m, j2), one product per cell,
    placed by the two indexes of ``complexes._tensor``."""
    if p.ring != q.ring:
        raise ValueError("pair tensor over different rings")
    ring = p.ring

    def indexed_tensor(c, d):
        index, gens, diffs = _tensor(c.objects, c.diffs, d.objects, d.diffs, ring.zero)
        return index, FreeComplex(ring, gens, diffs)

    tgt_index, fa = indexed_tensor(p.f_alpha, q.f_alpha)
    src_index, fb = indexed_tensor(p.f_beta, q.f_beta)
    comps = {n: linalg.zeros(ring, fa.rank(n), fb.rank(n)) for n in fb.degrees()}
    for (n, i, m, j), (deg, col) in src_index.items():
        for i2, prow in enumerate(p.phi.component(n)):
            for j2, qrow in enumerate(q.phi.component(m)):
                if prow[i] and qrow[j]:
                    comps[deg][tgt_index[n, i2, m, j2][1]][col] = prow[i] * qrow[j]
    return PairObject(fa, fb, ChainMap(fb, fa, comps))


def canonical_resolution(p):
    """The acyclic resolution 0 -> P -> (F_a, F_b (+) iota_* F_a) -> (0, iota_* F_a) -> 0.

    Returns (middle, quotient); the middle object has surjective comparison map.
    Kept as the test oracle for the cone formula of Rj^!.
    """
    ring = p.ring
    middle_beta = p.f_beta.direct_sum(p.f_alpha)
    comps = {n: linalg.blocks([[p.phi.component(n), linalg.identity(ring, p.f_alpha.rank(n))]])
             for n in middle_beta.degrees()}
    middle = PairObject(p.f_alpha, middle_beta, ChainMap(middle_beta, p.f_alpha, comps))
    quotient = PairObject(FreeComplex.zero_complex(ring), p.f_alpha)
    return middle, quotient


# -- morphisms of pairs ----------------------------------------------------


class PairMorphism:
    """One of the two supported desk-scale morphism shapes.

    * identity;
    * "affine": a finite/affine map of models given by restriction of scalars,
      encoded by invertible degreewise transport matrices for each component
      (ranks are preserved).

    The projection (P^1, Sigma) -> (pt, pt) is the third supported shape; it
    is driven by the divisor models of the spin-curve layer:
    ``spincurve.LogFormModel.pair`` builds the already-pushed pair, and
    ``spincurve.check_projection_commutation`` compares both orders of
    pushing and restricting.
    """

    def __init__(self, kind, transport_alpha=None, transport_beta=None):
        if kind not in ("identity", "affine"):
            raise ValueError(
                "unsupported morphism shape; supported: identity, affine "
                "(finite map by restriction of scalars), and the P^1 projection "
                "via the spin-curve module")
        self.kind = kind
        self.transport_alpha = transport_alpha or {}
        self.transport_beta = transport_beta or {}


def _transported(t_out, m, t_in, ring):
    """t_out . m . t_in^-1 for a nonempty matrix m of constants of ``ring``,
    a point; a missing (None) transport is the identity."""
    field = ring.field
    t_out = t_out or linalg.identity(field, len(m))
    t_in = t_in or linalg.identity(field, len(m[0]))
    m = [[e.constant_value() for e in row] for row in m]
    new = linalg.mat_mul(linalg.mat_mul(t_out, m, field), linalg.invert(t_in, field), field)
    return [[ring.constant(e) for e in row] for row in new]


def _transport_complex(c, transports):
    diffs = {n: _transported(transports.get(n + 1), c.diff(n), transports.get(n), c.ring)
             for n in c.degrees() if c.rank(n + 1)}
    return FreeComplex(c.ring, c.objects, diffs)


def pair_pushforward(f, p):
    """Derived pushforward along a supported morphism of pairs."""
    if f.kind == "identity":
        return p
    ring = p.ring
    if ring.nvars != 0:
        raise ValueError("affine transport pushforward requires a point base")
    fa = _transport_complex(p.f_alpha, f.transport_alpha)
    fb = _transport_complex(p.f_beta, f.transport_beta)
    comps = {n: _transported(f.transport_alpha.get(n), p.phi.component(n),
                             f.transport_beta.get(n), ring)
             for n in fb.degrees() if p.f_alpha.rank(n)}
    return PairObject(fa, fb, ChainMap(fb, fa, comps))


def check_commutation(f, p):
    """Certificate that Rj^! Rf_* (P) and Rf_* Rj^! (P) agree.

    Computes both sides independently and compares homology ranks over the
    point base; returns (bool, dict of both rank maps).
    """
    if isinstance(f, PairMorphism):
        left = rj_shriek(pair_pushforward(f, p))
        right = _pushforward_of_rj(f, p)
        hl = homology_ranks(left)
        hr = homology_ranks(right)
        degs = set(hl) | set(hr)
        ok = all(hl.get(n, 0) == hr.get(n, 0) for n in degs)
        return ok, {"rj_then_push": hr, "push_then_rj": hl}
    raise ValueError("unsupported morphism; see PairMorphism")


def _pushforward_of_rj(f, p):
    if f.kind == "identity":
        return rj_shriek(p)
    # blockwise transport of Cone(phi)[-1]
    field = p.ring.field
    c = rj_shriek(p)
    transports = {}
    for n in c.degrees():
        # degree n of Cone(phi)[-1] is F_alpha^{n-1} (+) F_beta^n
        na = p.f_alpha.rank(n - 1)
        nb = p.f_beta.rank(n)
        ta = f.transport_alpha.get(n - 1, linalg.identity(field, na))
        tb = f.transport_beta.get(n, linalg.identity(field, nb))
        transports[n] = linalg.blocks([[ta, linalg.zeros(field, na, nb)],
                                       [linalg.zeros(field, nb, na), tb]])
    return _transport_complex(c, transports)
