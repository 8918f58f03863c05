"""Dg-schemes presented by a two-term complex, dg-matrix factorizations,
Koszul matrix factorizations, 2-periodic folding, and homotopy solvers.

A dg-scheme presentation is the function algebra S(A_dual) (x) Wedge(B_dual):
even polynomial generators in degree 0, odd exterior generators in degree -1,
and an odd derivation d sending each odd generator to an even function.  A
function of degree -1 with square zero curves the differential,
delta = d + f . (-), and folding over Z/2 produces an honest matrix
factorization of the curvature d(f).
"""

from __future__ import annotations

from itertools import combinations
from math import lcm

from . import linalg
from .complexes import Generator
from .cyclotomic import _integer_vector
from .poly import Poly, PolyRing, evaluator, substituter


class CertificateError(ValueError):
    """Raised when an exact certificate (delta^2 = W . id, a contracting
    homotopy, a curving, a gauge intertwiner) fails its exact check."""


def _merge_sign(s, t):
    """Koszul sign for e_S . e_T (disjoint sorted tuples); None if they meet."""
    if set(s) & set(t):
        return None
    sign = 1
    for a in s:
        for b in t:
            if b < a:
                sign = -sign
    return sign


class DgSchemePresentation:
    """[A -> B]: Spec of S(B_dual -> A_dual).

    ``ring`` is the even coordinate ring S(A_dual); ``odd_gens`` the odd
    generators (basis of B_dual, cohomological degree -1, with R-weights);
    ``differential`` the list of even functions d(b_k), the duals of f: A -> B.
    """

    def __init__(self, ring, odd_gens, differential, weight_check=True):
        self.ring = ring
        self.odd_gens = [g if isinstance(g, Generator) else Generator(*g)
                         for g in odd_gens]
        if len(differential) != len(self.odd_gens):
            raise ValueError("one differential image per odd generator")
        self.differential = [ring.constant(p) if not hasattr(p, "terms") else p
                             for p in differential]
        if weight_check:
            for g, img in zip(self.odd_gens, self.differential):
                if img and not img.is_quasihomogeneous_of(g.weight):
                    raise ValueError(
                        f"d({g.name}) does not preserve the R-weight {g.weight}")

    @property
    def n_odd(self):
        return len(self.odd_gens)

    def element(self, coefficients):
        return SuperElement(self, coefficients)

    def zero_element(self):
        return SuperElement(self, {})

    def scalar_element(self, p):
        p = self.ring.constant(p) if not hasattr(p, "terms") else p
        return SuperElement(self, {(): p})

    def odd_coordinate(self, k):
        return SuperElement(self, {(k,): self.ring.one})

    def basis_subsets(self, parity=None):
        """All sorted index subsets, ordered by (size, lex); optionally only
        even- or odd-sized ones."""
        out = []
        for k in range(self.n_odd + 1):
            if parity is not None and k % 2 != parity:
                continue
            out.extend(combinations(range(self.n_odd), k))
        return out

    def d(self, elt):
        """The odd derivation: e_k -> d(b_k), extended by the Leibniz rule."""
        terms = {}
        for subset, coeff in elt.coefficients.items():
            for pos, k in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1:]
                sign = 1 if pos % 2 == 0 else -1
                contrib = sign * coeff * self.differential[k]
                if contrib:
                    cur = terms.get(rest, self.ring.zero)
                    cur = cur + contrib
                    if cur:
                        terms[rest] = cur
                    else:
                        terms.pop(rest, None)
        return SuperElement(self, terms)


class SuperElement:
    """An element of S(A_dual) (x) Wedge(B_dual): subset -> even coefficient."""

    __slots__ = ("scheme", "coefficients")

    def __init__(self, scheme, coefficients):
        self.scheme = scheme
        self.coefficients = {tuple(sorted(s)): c for s, c in coefficients.items() if c}

    def __bool__(self):
        return bool(self.coefficients)

    def __eq__(self, other):
        return (isinstance(other, SuperElement) and other.scheme is self.scheme
                and other.coefficients == self.coefficients) or (
            isinstance(other, SuperElement) and other.scheme.ring == self.scheme.ring
            and other.coefficients == self.coefficients)

    def degrees(self):
        return sorted({-len(s) for s in self.coefficients})

    def is_pure_degree(self, k):
        return all(-len(s) == k for s in self.coefficients)

    def parity(self):
        ps = {len(s) % 2 for s in self.coefficients}
        if len(ps) > 1:
            raise ValueError("element of mixed parity")
        return ps.pop() if ps else 0

    def __add__(self, other):
        terms = dict(self.coefficients)
        for s, c in other.coefficients.items():
            cur = terms.get(s, self.scheme.ring.zero) + c
            if cur:
                terms[s] = cur
            else:
                terms.pop(s, None)
        return SuperElement(self.scheme, terms)

    def __neg__(self):
        return SuperElement(self.scheme, {s: -c for s, c in self.coefficients.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SuperElement):
            other = self.scheme.scalar_element(other)
        terms = {}
        for s, c in self.coefficients.items():
            for t, e in other.coefficients.items():
                sign = _merge_sign(s, t)
                if sign is None:
                    continue
                key = tuple(sorted(s + t))
                contrib = sign * c * e
                cur = terms.get(key, self.scheme.ring.zero) + contrib
                if cur:
                    terms[key] = cur
                else:
                    terms.pop(key, None)
        return SuperElement(self.scheme, terms)

    def __rmul__(self, other):
        return self.scheme.scalar_element(other) * self

    def weight(self):
        """Common R-weight of all terms (coefficient weight + odd weights)."""
        ws = set()
        for s, c in self.coefficients.items():
            wodd = sum(self.scheme.odd_gens[k].weight for k in s)
            wc, _ = c.weight()
            if wc == "inhomogeneous":
                return "inhomogeneous"
            if wc != "zero":
                ws.add(wc + wodd)
        if len(ws) > 1:
            return "inhomogeneous"
        return ws.pop() if ws else "zero"

    def __repr__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for s in sorted(self.coefficients, key=lambda t: (len(t), t)):
            names = "^".join(self.scheme.odd_gens[k].name for k in s)
            parts.append(f"({self.coefficients[s]})" + (f"*{names}" if names else ""))
        return " + ".join(parts)


def derived_zero_locus(ring, beta, odd_weights=None, odd_names=None,
                       weight_check=True):
    """The dg-scheme Z(beta): odd generator e_k with d(e_k) = beta_k."""
    beta = [ring.constant(b) if not hasattr(b, "terms") else b for b in beta]
    if odd_names is None:
        odd_names = [f"e{k}" for k in range(len(beta))]
    if odd_weights is None:
        odd_weights = []
        for b in beta:
            w, _ = b.weight()
            odd_weights.append(w if isinstance(w, int) else 1)
    gens = [Generator(n, w) for n, w in zip(odd_names, odd_weights)]
    return DgSchemePresentation(ring, gens, beta, weight_check=weight_check)


class CurvedStructure:
    """(O_X, delta = d + f_{-1} . id): a dg-matrix factorization structure on
    the structure sheaf, with curvature f_0 = d(f_{-1})."""

    def __init__(self, scheme, f_minus_1, curvature):
        self.scheme = scheme
        self.f_minus_1 = f_minus_1
        self.curvature = curvature

    def delta(self, elt):
        return self.scheme.d(elt) + self.f_minus_1 * elt


def dgmf_from_homotopy(scheme, f_minus_1):
    """Curve the structure sheaf by a degree -1 function.

    Verifies f_{-1}^2 = 0 (identically true for pure degree -1 elements of the
    exterior factor, asserted anyway; for mixed odd elements the offending
    product is reported) and certifies delta^2 = d(f_{-1}) . id.
    """
    if f_minus_1 and f_minus_1.parity() != 1:
        raise ValueError("the curving function must be odd")
    square = f_minus_1 * f_minus_1
    if square:
        raise ValueError(f"f_{-1}^2 != 0; offending product: {square!r}")
    curvature_elt = scheme.d(f_minus_1)
    if not curvature_elt.is_pure_degree(0):
        raise ValueError("curvature is not an even function")
    curvature = curvature_elt.coefficients.get((), scheme.ring.zero)
    return CurvedStructure(scheme, f_minus_1, curvature)


def leibniz_holds(curved, phi, p):
    """delta(phi . p) = d(phi) . p + (-1)^{|phi|} phi . delta(p), exactly."""
    scheme = curved.scheme
    sign = -1 if phi.parity() == 1 else 1
    lhs = curved.delta(phi * p)
    rhs = scheme.d(phi) * p + sign * (phi * curved.delta(p))
    return lhs == rhs


class MatrixFactorization:
    """(P0, P1, delta0, delta1) with both composites equal to W . id."""

    def __init__(self, ring, p0_gens, p1_gens, delta0, delta1, potential,
                 check=True, metadata=None):
        self.ring = ring
        self.p0_gens = [g if isinstance(g, Generator) else Generator(*g) for g in p0_gens]
        self.p1_gens = [g if isinstance(g, Generator) else Generator(*g) for g in p1_gens]
        coerce = lambda m: [[ring.constant(c) if not hasattr(c, "terms") else c
                             for c in row] for row in m]
        self.delta0 = coerce(delta0)  # P0 -> P1, rows indexed by P1
        self.delta1 = coerce(delta1)  # P1 -> P0
        self.potential = ring.constant(potential) if not hasattr(potential, "terms") else potential
        self.metadata = metadata or {}
        if check:
            self.verify()

    @property
    def rank0(self):
        return len(self.p0_gens)

    @property
    def rank1(self):
        return len(self.p1_gens)

    def verify(self):
        """Certify delta1 . delta0 = W . id and delta0 . delta1 = W . id
        exactly, without building either composite (``first_mismatch``).
        The first failing entry, row by row and delta1 . delta0 first, is
        reported in a CertificateError."""
        if len(self.delta0) != self.rank1 or any(len(r) != self.rank0 for r in self.delta0):
            raise ValueError("delta0 has wrong shape")
        if len(self.delta1) != self.rank0 or any(len(r) != self.rank1 for r in self.delta1):
            raise ValueError("delta1 has wrong shape")
        zero = self.ring.zero
        for a, b, n in ((self.delta1, self.delta0, self.rank0),
                        (self.delta0, self.delta1, self.rank1)):
            target = [[self.potential if i == j else zero for j in range(n)]
                      for i in range(n)]
            bad = first_mismatch([(a, b)], target, self.ring.field)
            if bad is not None:
                i, j = bad
                entry = sum((c * row[j] for c, row in zip(a[i], b)), zero)
                raise CertificateError(
                    f"delta^2 != W . id at entry ({i},{j}): "
                    f"{entry} vs {target[i][j]}")
        return True

    def __eq__(self, other):
        return (isinstance(other, MatrixFactorization)
                and other.ring == self.ring
                and other.p0_gens == self.p0_gens and other.p1_gens == self.p1_gens
                and other.delta0 == self.delta0 and other.delta1 == self.delta1
                and other.potential == self.potential)

    def restrict_to_point(self, point):
        """Evaluate all entries at a Scalar tuple; returns a new MF over the
        point base (the zero-variable ring), certified by its own ``verify``.
        One evaluation map serves every entry, so each monomial's value at
        the point is computed once for the whole MF."""
        base = PolyRing(self.ring.field, [], [])
        ev = evaluator(self.ring, point)
        at = lambda m: [[base.constant(ev(c)) for c in row] for row in m]
        return MatrixFactorization(
            base, self.p0_gens, self.p1_gens, at(self.delta0), at(self.delta1),
            base.constant(ev(self.potential)))

    def restrict_to_line(self, point_images):
        """Substitute each variable by a univariate polynomial in t (a Poly
        over a one-variable ring), for fiberwise homology.  One substitution
        map serves delta0, delta1 and the potential, so each monomial's image
        on the line is computed once for the whole MF.  The line MF is
        certified by its own ``verify``."""
        target = point_images[0].ring
        sub = substituter(self.ring, point_images, target)
        on_line = lambda m: [[sub(c) for c in row] for row in m]
        return MatrixFactorization(
            target, self.p0_gens, self.p1_gens, on_line(self.delta0),
            on_line(self.delta1), sub(self.potential))


def _terms(poly):
    """The terms of a Poly as (exponent, nonzero (k, integer), denominator):
    the coefficient is sum(integer * zeta^k) / denominator."""
    out = []
    for e, c in poly.terms.items():
        ints, den = _integer_vector(c.coeffs)
        out.append((e, [(k, x) for k, x in enumerate(ints) if x], den))
    return out


def first_mismatch(products, target, field):
    """The first (i, j), row by row, at which sum(a . b for a, b in products)
    differs from ``target`` (a matrix of Poly over ``field``); None if equal.

    Exact, and no product Poly or Scalar is built.  Every nonzero entry is
    turned once into integer terms with packed exponents, and the nonzero
    columns of each row are listed once (Gustavson's row-by-row product).  Row i then accumulates,
    per column and exponent, one unreduced integer vector of length
    2*phi(N) - 1 over the lcm of its denominators, reduces it by Phi_N once
    and compares it with the target by cross-multiplying denominators."""
    cache = {}  # id -> terms; every entry stays alive in its matrix meanwhile

    def terms(poly):
        t = cache.get(id(poly))
        if t is None:
            t = cache[id(poly)] = _terms(poly)
        return t

    sparse = lambda m: [[(j, terms(c)) for j, c in enumerate(row) if c.terms] for row in m]
    products = [(sparse(a), sparse(b)) for a, b in products]
    target = [dict(row) for row in sparse(target)]
    # pack each exponent into one int, `shift` bits per variable: enough for
    # every exponent here and every sum of two, so a product's exponent is
    # the sum of its factors' and distinct exponents stay distinct
    top = max((x for ts in cache.values() for e, _, _ in ts for x in e), default=0)
    shift = (2 * top + 1).bit_length()
    for ts in cache.values():
        ts[:] = [(sum(x << shift * v for v, x in enumerate(e)), vec, d)
                 for e, vec, d in ts]
    width = 2 * field.degree - 1
    for i, want in enumerate(target):
        acc = {}  # j -> {exponent: [denominator, unreduced integer vector]}
        for a, b in products:
            for k, ta in a[i]:
                for j, tb in b[k]:
                    cell = acc.get(j)
                    if cell is None:
                        cell = acc[j] = {}
                    for ea, va, da in ta:
                        for eb, vb, db in tb:
                            e = ea + eb
                            d = da * db
                            slot = cell.get(e)
                            if slot is None:
                                slot = cell[e] = [d, [0] * width]
                            den, ints = slot
                            scale = 1
                            if d != den:
                                common = lcm(den, d)
                                if common != den:
                                    f = common // den
                                    slot[:] = common, [x * f for x in ints]
                                    den, ints = slot
                                scale = den // d
                            for ka, xa in va:
                                xa *= scale
                                for kb, xb in vb:
                                    ints[ka + kb] += xa * xb
        for j in sorted(acc.keys() | want.keys()):
            if not _agrees(acc.get(j, {}), want.get(j, ()), field):
                return i, j
    return None


def _agrees(cell, expected, field):
    """Whether the accumulated {exponent: [den, unreduced ints]} equals the
    Poly whose ``_terms`` are ``expected``."""
    expected = {e: (v, d) for e, v, d in expected}
    for e, (den, ints) in cell.items():
        got = field.reduce_integers(ints) if any(ints) else None
        w = expected.pop(e, None)
        if w is None:
            if got is not None and any(got):
                return False
        elif got is None:
            return False
        else:
            v, wden = w
            diff = [g * wden for g in got]
            for k, x in v:
                diff[k] -= x * den
            if any(diff):
                return False
    return not expected


def koszul_mf(ring, alpha, beta, odd_weights=None, names=None):
    """The Koszul matrix factorization {alpha, beta} of W = <alpha, beta>.

    Underlying module Wedge of the free rank-n module on odd generators;
    delta = (wedge by sum alpha_k e_k) + (Koszul contraction by beta).
    Computed directly by exterior-algebra combinatorics (independent of the
    fold path, which must reproduce it bit-exactly).
    """
    alpha = [ring.constant(a) if not hasattr(a, "terms") else a for a in alpha]
    beta = [ring.constant(b) if not hasattr(b, "terms") else b for b in beta]
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must have the same length")
    n = len(alpha)
    if names is None:
        names = [f"e{k}" for k in range(n)]
    if odd_weights is None:
        odd_weights = []
        for b in beta:
            w, _ = b.weight()
            odd_weights.append(w if isinstance(w, int) else 1)
    subsets = []
    for k in range(n + 1):
        subsets.extend(combinations(range(n), k))
    even = [s for s in subsets if len(s) % 2 == 0]
    odd = [s for s in subsets if len(s) % 2 == 1]
    even_index = {s: i for i, s in enumerate(even)}
    odd_index = {s: i for i, s in enumerate(odd)}

    def weight_of_subset(s):
        if odd_weights is None:
            return 0
        return sum(odd_weights[k] for k in s)

    def apply_delta(s):
        out = {}
        # wedge by alpha: alpha_k e_k . e_S
        for k in range(n):
            if k in s or not alpha[k]:
                continue
            sign = 1 if sum(1 for x in s if x < k) % 2 == 0 else -1
            key = tuple(sorted(s + (k,)))
            out[key] = out.get(key, ring.zero) + sign * alpha[k]
        # Koszul contraction by beta
        for pos, k in enumerate(s):
            if not beta[k]:
                continue
            sign = 1 if pos % 2 == 0 else -1
            key = s[:pos] + s[pos + 1:]
            out[key] = out.get(key, ring.zero) + sign * beta[k]
        return out

    delta0 = [[ring.zero] * len(even) for _ in range(len(odd))]
    for j, s in enumerate(even):
        for key, c in apply_delta(s).items():
            delta0[odd_index[key]][j] = c
    delta1 = [[ring.zero] * len(odd) for _ in range(len(even))]
    for j, s in enumerate(odd):
        for key, c in apply_delta(s).items():
            delta1[even_index[key]][j] = c
    potential = ring.zero
    for a, b in zip(alpha, beta):
        potential = potential + a * b
    p0 = [Generator("^".join(names[k] for k in s) or "1", weight_of_subset(s)) for s in even]
    p1 = [Generator("^".join(names[k] for k in s) or "1", weight_of_subset(s)) for s in odd]
    return MatrixFactorization(ring, p0, p1, delta0, delta1, potential)


def fold_to_mf(curved):
    """2-periodization of (O_X, delta): P0/P1 are the even/odd exterior parts
    over the even coordinate ring, with the same (size, lex) subset order the
    Koszul construction uses, so the two agree bit-exactly."""
    scheme = curved.scheme
    ring = scheme.ring
    even = scheme.basis_subsets(parity=0)
    odd = scheme.basis_subsets(parity=1)
    even_index = {s: i for i, s in enumerate(even)}
    odd_index = {s: i for i, s in enumerate(odd)}
    delta0 = [[ring.zero] * len(even) for _ in range(len(odd))]
    delta1 = [[ring.zero] * len(odd) for _ in range(len(even))]
    for j, s in enumerate(even):
        image = curved.delta(SuperElement(scheme, {s: ring.one}))
        for key, c in image.coefficients.items():
            delta0[odd_index[key]][j] = c
    for j, s in enumerate(odd):
        image = curved.delta(SuperElement(scheme, {s: ring.one}))
        for key, c in image.coefficients.items():
            delta1[even_index[key]][j] = c
    namegen = lambda s: "^".join(scheme.odd_gens[k].name for k in s) or "1"
    weight = lambda s: sum(scheme.odd_gens[k].weight for k in s)
    p0 = [Generator(namegen(s), weight(s)) for s in even]
    p1 = [Generator(namegen(s), weight(s)) for s in odd]
    return MatrixFactorization(ring, p0, p1, delta0, delta1, curved.curvature)


def mf_tensor(m, n):
    """Z/2-graded tensor product; potentials add."""
    if m.ring != n.ring:
        raise ValueError("tensor of matrix factorizations over different rings")
    ring = m.ring
    # P0 = M0 (x) N0 (+) M1 (x) N1 ; P1 = M0 (x) N1 (+) M1 (x) N0
    def pairs(ga, gb):
        return [Generator(f"{a.name}*{b.name}", a.weight + b.weight) for a in ga for b in gb]

    p0 = pairs(m.p0_gens, n.p0_gens) + pairs(m.p1_gens, n.p1_gens)
    p1 = pairs(m.p0_gens, n.p1_gens) + pairs(m.p1_gens, n.p0_gens)
    r0a = len(m.p0_gens) * len(n.p0_gens)
    r1a = len(m.p0_gens) * len(n.p1_gens)
    delta0 = [[ring.zero] * len(p0) for _ in range(len(p1))]
    delta1 = [[ring.zero] * len(p1) for _ in range(len(p0))]

    def idx(block_offset, i, j, width):
        return block_offset + i * width + j

    nm0, nm1 = len(m.p0_gens), len(m.p1_gens)
    nn0, nn1 = len(n.p0_gens), len(n.p1_gens)
    # delta on M0 (x) N0: delta_m (x) 1 into M1N0 block, 1 (x) delta_n into M0N1
    for i in range(nm0):
        for j in range(nn0):
            col = idx(0, i, j, nn0)
            for i2 in range(nm1):
                c = m.delta0[i2][i]
                if c:
                    delta0[idx(r1a, i2, j, nn0)][col] = c
            for j2 in range(nn1):
                c = n.delta0[j2][j]
                if c:
                    delta0[idx(0, i, j2, nn1)][col] = c
    # delta on M1 (x) N1: delta_m (x) 1 into M0N1, -(1 (x) delta_n) into M1N0
    for i in range(nm1):
        for j in range(nn1):
            col = idx(r0a, i, j, nn1)
            for i2 in range(nm0):
                c = m.delta1[i2][i]
                if c:
                    delta0[idx(0, i2, j, nn1)][col] = c
            for j2 in range(nn0):
                c = n.delta1[j2][j]
                if c:
                    delta0[idx(r1a, i, j2, nn0)][col] = -c
    # delta on M0 (x) N1: 1 (x) delta_n into M0N0, delta_m (x) 1 into M1N1
    for i in range(nm0):
        for j in range(nn1):
            col = idx(0, i, j, nn1)
            for j2 in range(nn0):
                c = n.delta1[j2][j]
                if c:
                    delta1[idx(0, i, j2, nn0)][col] = c
            for i2 in range(nm1):
                c = m.delta0[i2][i]
                if c:
                    delta1[idx(nm0 * nn0, i2, j, nn1)][col] = c
    # delta on M1 (x) N0: delta_m (x) 1 into M0N0, -(1 (x) delta_n) into M1N1
    for i in range(nm1):
        for j in range(nn0):
            col = idx(r1a, i, j, nn0)
            for i2 in range(nm0):
                c = m.delta1[i2][i]
                if c:
                    delta1[idx(0, i2, j, nn0)][col] = c
            for j2 in range(nn1):
                c = n.delta0[j2][j]
                if c:
                    delta1[idx(nm0 * nn0, i, j2, nn1)][col] = -c
    return MatrixFactorization(ring, p0, p1, delta0, delta1,
                               m.potential + n.potential)


def unit_mf(ring):
    """Rank (1|0) matrix factorization of potential 0: the monoidal unit."""
    return MatrixFactorization(ring, [Generator("1", 0)], [], [], [[]], ring.zero,
                               check=False)


# -- homotopy solving ------------------------------------------------------


def nullhomotopy_solve(mf, target0=None, target1=None, degree_bound=4):
    """Search for an odd h with delta h + h delta = target.

    ``target0``/``target1`` are the even endomorphism's blocks (default: the
    identity).  Unknown entries are polynomials of total degree <= the bound;
    the search is one exact linear solve.  Returns (h0, h1) or None; a
    returned homotopy has been verified exactly (CertificateError if not).
    """
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be >= 0, got {degree_bound}")
    ring = mf.ring
    field = ring.field
    n0, n1 = mf.rank0, mf.rank1
    if target0 is None:
        target0 = [[ring.one if i == j else ring.zero for j in range(n0)]
                   for i in range(n0)]
    if target1 is None:
        target1 = [[ring.one if i == j else ring.zero for j in range(n1)]
                   for i in range(n1)]
    monos = _monomials_up_to(ring, degree_bound)
    shifts = [next(iter(mono.terms)) for mono in monos]
    # unknowns: h0[i1][j0] (P0->P1) and h1[i0][j1] (P1->P0), each a combo of monos
    nvars_h0 = n1 * n0 * len(monos)
    nvars_h1 = n0 * n1 * len(monos)

    def h0_var(i, j, k):
        return (i * n0 + j) * len(monos) + k

    def h1_var(i, j, k):
        return nvars_h0 + (i * n1 + j) * len(monos) + k

    equations = {}  # (block, i, j, exponent) -> row dict var -> Scalar

    def add_term(block, i, j, poly, var, shift):
        # poly * monomial: a monomial factor shifts exponents and cancels nothing
        for e, c in poly.terms.items():
            key = (block, i, j, tuple([a + b for a, b in zip(e, shift)]))
            row = equations.setdefault(key, {})
            row[var] = row[var] + c if var in row else c

    # block 0: delta1 h0 + h1 delta0 = target0  (P0 -> P0)
    for i in range(n0):
        for j in range(n0):
            for k in range(n1):
                for mi, shift in enumerate(shifts):
                    add_term(0, i, j, mf.delta1[i][k], h0_var(k, j, mi), shift)
            for k in range(n1):
                for mi, shift in enumerate(shifts):
                    add_term(0, i, j, mf.delta0[k][j], h1_var(i, k, mi), shift)
    # block 1: delta0 h1 + h0 delta1 = target1  (P1 -> P1)
    for i in range(n1):
        for j in range(n1):
            for k in range(n0):
                for mi, shift in enumerate(shifts):
                    add_term(1, i, j, mf.delta0[i][k], h1_var(k, j, mi), shift)
            for k in range(n0):
                for mi, shift in enumerate(shifts):
                    add_term(1, i, j, mf.delta1[k][j], h0_var(i, k, mi), shift)

    rhs_map = {}
    for i in range(n0):
        for j in range(n0):
            for e, c in target0[i][j].terms.items():
                rhs_map[(0, i, j, e)] = c
    for i in range(n1):
        for j in range(n1):
            for e, c in target1[i][j].terms.items():
                rhs_map[(1, i, j, e)] = c
    keys = sorted(set(equations) | set(rhs_map))
    nvars = nvars_h0 + nvars_h1
    matrix = []
    rhs = []
    for key in keys:
        row = [field.zero] * nvars
        for var, c in equations.get(key, {}).items():
            row[var] = c
        matrix.append(row)
        rhs.append(rhs_map.get(key, field.zero))
    sol = linalg.solve(matrix, rhs, field) if matrix else []
    if sol is None:
        return None
    h0 = [[_from_combo(ring, monos, sol, h0_var(i, j, 0)) for j in range(n0)]
          for i in range(n1)]
    h1 = [[_from_combo(ring, monos, sol, h1_var(i, j, 0)) for j in range(n1)]
          for i in range(n0)]
    if (first_mismatch([(mf.delta1, h0), (h1, mf.delta0)], target0, field) is not None
            or first_mismatch([(mf.delta0, h1), (h0, mf.delta1)], target1, field) is not None):
        raise CertificateError("solved homotopy fails delta h + h delta = target")
    return h0, h1


def _monomials_up_to(ring, bound):
    out = []
    for total in range(bound + 1):
        for exps in _exps_of_total(ring.nvars, total):
            out.append(Poly(ring, {tuple(exps): ring.field.one}))
    return out


def _exps_of_total(nvars, total):
    if nvars == 0:
        if total == 0:
            yield []
        return
    for first in range(total + 1):
        for rest in _exps_of_total(nvars - 1, total - first):
            yield [first] + rest


def _from_combo(ring, monos, sol, base):
    p = ring.zero
    for k, mono in enumerate(monos):
        c = sol[base + k]
        if c:
            p = p + c * mono
    return p


CONTRACTIBLE = "contractible"
NONCONTRACTIBLE = "noncontractible"


def point_homology(mf, point):
    """(h0, h1) of the restriction of an MF to a point, exactly.

    If W(p) != 0 the restriction is contractible (delta is invertible) and
    both vanish; if W(p) = 0 it is a 2-periodic complex of vector spaces and
    h_i = rank P_i - rank delta0 - rank delta1.
    """
    field = mf.ring.field
    # an MF over the point base (no variables) is its own restriction
    restricted = mf.restrict_to_point(point) if mf.ring.nvars else mf
    if restricted.potential:
        return (0, 0)
    d0 = [[c.constant_value() for c in row] for row in restricted.delta0]
    d1 = [[c.constant_value() for c in row] for row in restricted.delta1]
    r0 = linalg.rank(d0, field) if d0 and d0[0] else 0
    r1 = linalg.rank(d1, field) if d1 and d1[0] else 0
    return (restricted.rank0 - r0 - r1, restricted.rank1 - r0 - r1)


def point_verdict(mf, point):
    """Exact contractibility verdict for the restriction of an MF to a point:
    contractible iff its homology vanishes."""
    return CONTRACTIBLE if point_homology(mf, point) == (0, 0) else NONCONTRACTIBLE


def support_check(mf, points, degree_bound=4, with_certificates=True):
    """Per-point contractibility report; certificates come from the homotopy
    solver and are verified exactly before being reported.  At a point every
    contracting homotopy is constant, so a contractible verdict without one
    means the solver and the rank verdict disagree: CertificateError.
    Each point restricts the MF once (one delta^2 check); the verdict and
    the certificate both read that restriction."""
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be >= 0, got {degree_bound}")
    report = []
    for point in points:
        restricted = mf.restrict_to_point(point)
        verdict = point_verdict(restricted, ())
        cert = None
        if verdict == CONTRACTIBLE and with_certificates:
            cert = nullhomotopy_solve(restricted, degree_bound=degree_bound)
            if cert is None:
                raise CertificateError(
                    f"no contracting homotopy at the contractible point {point}")
        report.append({"point": tuple(point), "verdict": verdict,
                       "certificate": cert})
    return report


# -- gauge transformations -------------------------------------------------


def exp_multiplication_operator(scheme, h, parity_basis):
    """Matrix of multiplication by exp(h) on the chosen exterior-basis list.

    ``h`` must be even and nilpotent (it lives in the exterior factor), so the
    series terminates exactly."""
    ring = scheme.ring
    index = {s: i for i, s in enumerate(parity_basis)}
    cols = []
    for s in parity_basis:
        elt = SuperElement(scheme, {s: ring.one})
        acc = elt
        total = elt
        k = 1
        while True:
            acc = h * acc
            if not acc:
                break
            from fractions import Fraction
            coeff = ring.field.scalar(Fraction(1))
            for i in range(1, k + 1):
                coeff = coeff * ring.field.scalar(Fraction(1, i))
            term = SuperElement(scheme, {t: c * coeff for t, c in acc.coefficients.items()})
            total = total + term
            k += 1
        col = [ring.zero] * len(parity_basis)
        for t, c in total.coefficients.items():
            col[index[t]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(len(parity_basis))]
            for i in range(len(parity_basis))]


def gauge_intertwiner(scheme, f_a, f_b, weight=None, check_fold=True):
    """If f_b - f_a = d(h) for an even h of degree -2, return (h, E0, E1):
    multiplication by exp(-h) intertwines delta_a = d + f_a and
    delta_b = d + f_b on the folded modules.  Returns None when the difference
    is not exact at the searched weight."""
    ring = scheme.ring
    field = ring.field
    diff = f_b - f_a
    if not diff:
        h = scheme.zero_element()
    else:
        if weight is None:
            weight = diff.weight()
            if not isinstance(weight, int):
                raise ValueError("cannot infer the weight of the difference")
        h = _solve_d_preimage(scheme, diff, degree=-2, weight=weight)
        if h is None:
            return None
    minus_h = -h
    even = scheme.basis_subsets(parity=0)
    odd = scheme.basis_subsets(parity=1)
    e0 = exp_multiplication_operator(scheme, minus_h, even)
    e1 = exp_multiplication_operator(scheme, minus_h, odd)
    if check_fold:
        mfa = fold_to_mf(dgmf_from_homotopy(scheme, f_a))
        mfb = fold_to_mf(dgmf_from_homotopy(scheme, f_b))
        # delta_b o E = E o delta_a (E multiplies by exp(-h))
        left0 = linalg.mat_mul(mfb.delta0, e0, ring)
        right0 = linalg.mat_mul(e1, mfa.delta0, ring)
        left1 = linalg.mat_mul(mfb.delta1, e1, ring)
        right1 = linalg.mat_mul(e0, mfa.delta1, ring)
        if left0 != right0 or left1 != right1:
            raise CertificateError("gauge intertwiner failed exact verification")
    return h, e0, e1


def _solve_d_preimage(scheme, target, degree, weight, col_order=None):
    """Solve d(h) = target with h of pure exterior degree ``degree`` and exact
    R-weight ``weight``; exact linear algebra on the monomial basis.

    ``col_order`` controls pivoting and thereby which of the (gauge-equivalent)
    solutions is returned; the default is the deterministic monomial order."""
    ring = scheme.ring
    field = ring.field
    size = -degree
    basis = []
    for subset in combinations(range(scheme.n_odd), size):
        wodd = sum(scheme.odd_gens[k].weight for k in subset)
        for exps in ring.monomials_of_weight(weight - wodd):
            basis.append((subset, exps))
    # target rows indexed by (subset of size-1, exponent)
    rows = {}
    columns = []
    for subset, exps in basis:
        elt = SuperElement(scheme, {subset: Poly(ring, {exps: field.one})})
        image = scheme.d(elt)
        col = {}
        for t, c in image.coefficients.items():
            for e, cc in c.terms.items():
                col[(t, e)] = cc
                rows.setdefault((t, e), len(rows))
        columns.append(col)
    for t, c in target.coefficients.items():
        for e, cc in c.terms.items():
            rows.setdefault((t, e), len(rows))
    matrix = [[field.zero] * len(basis) for _ in range(len(rows))]
    for j, col in enumerate(columns):
        for key, c in col.items():
            matrix[rows[key]][j] = c
    rhs = [field.zero] * len(rows)
    for t, c in target.coefficients.items():
        for e, cc in c.terms.items():
            rhs[rows[(t, e)]] = cc
    sol = linalg.solve(matrix, rhs, field, col_order=col_order) if matrix else (
        [] if not target else None)
    if sol is None:
        return None
    terms = {}
    for j, (subset, exps) in enumerate(basis):
        if sol[j]:
            cur = terms.get(subset, ring.zero)
            terms[subset] = cur + Poly(ring, {exps: sol[j]})
    return SuperElement(scheme, terms)
