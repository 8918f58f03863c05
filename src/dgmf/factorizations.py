"""Dg-schemes presented by a two-term complex, dg-matrix factorizations,
Koszul matrix factorizations, 2-periodic folding, and homotopy solvers.

A dg-scheme presentation is the function algebra S(A_dual) (x) Wedge(B_dual):
even polynomial generators in degree 0, odd exterior generators in degree -1,
and an odd derivation d sending each odd generator to an even function.  A
function of degree -1 with square zero curves the differential,
delta = d + f . (-), and folding over Z/2 produces an honest matrix
factorization of the curvature d(f).

Every operator on the exterior basis is written by one index map,
``_exterior_matrix``: the fold's delta (contraction by the d(b_k), wedge by
the terms of f), the Koszul factorization {alpha, beta} (the fold of the
derived zero locus Z(beta) curved by sum alpha_k e_k, with ``unit_mf`` its
n = 0 case), and the gauge operators exp(-h) (wedge only).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, islice

from . import linalg
from .complexes import Generator, _coerce, _rank, _tensor
from .cyclotomic import Scalar, _lowest, _product
from .poly import Poly, PolyRing, _linear_forms, _point_substituter, substituter


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


def _subsets(n, parity=None):
    """All sorted subsets of range(n), ordered by (size, lex); optionally
    only even- or odd-sized ones."""
    return [s for k in range(n + 1) if parity is None or k % 2 == parity
            for s in combinations(range(n), k)]


@lru_cache(maxsize=None)
def _cells(n, source, target, term):
    """The cells (row, column, negated) that one term of ``_exterior_matrix``
    fills, from the exterior basis of parity ``source`` on n generators to
    that of parity ``target``, both in (size, lex) order: contraction by
    e_k for the int ``term`` = k, wedge by e_t for the tuple ``term`` = t.
    Keyed by shape alone, so every operator of one shape fills one list."""
    rows = {s: i for i, s in enumerate(_subsets(n, target))}
    cells = []
    for j, s in enumerate(_subsets(n, source)):
        if isinstance(term, int):
            if term in s:
                pos = s.index(term)
                cells.append((rows[s[:pos] + s[pos + 1:]], j, pos % 2))
        else:
            sign = _merge_sign(term, s)
            if sign is not None:
                cells.append((rows[tuple(sorted(term + s))], j, sign < 0))
    return cells


def _exterior_matrix(n, source, target, contract, wedge, zero):
    """The matrix, from the exterior basis of parity ``source`` on n
    generators to that of parity ``target`` (columns and rows, each in
    (size, lex) order), of the operator

        e_s -> sum_pos (-1)^pos c_{s[pos]} e_{s - s[pos]}
               + sum_{t disjoint from s} sign(t, s) g_t e_{t u s}.

    ``contract[k]`` is None or the pair (c_k, -c_k), ``wedge`` a list of
    (t, (g_t, -g_t)).  No two terms share a cell: contraction targets have
    size |s| - 1 and differ for each removed index, wedge targets have size
    >= |s| and t -> t u s is injective.  So each entry is one of the given
    objects, written once, and every zero cell holds ``zero``: one fill of
    the memoized cells of each term (``_cells``).

    The Clifford identity.  With contract = beta and wedge = ((k,), alpha_k),
    this is delta = sum_k (beta_k i_k + alpha_k w_k): i_k and w_k send e_s to
    (-1)^#{a in s: a < k} times e_{s - k} and e_{s u k}, or to 0 if k is not
    in s, resp. in s.  On e_s one of i_k w_k, w_k i_k acts, by one sign
    twice, so i_k w_k + w_k i_k = id; and i_k i_k = w_k w_k = 0.  For k != l,
    i_k i_l + i_l i_k, w_k w_l + w_l w_k and i_k w_l + w_l i_k each send e_s
    to 0 or to one basis vector twice, with signs that differ by
    (-1)^([k < l] + [l < k]) = -1: the l-operator acting first moves k's
    count by [l < k], and acting second has its own moved by [k < l].  So
    delta^2 = (sum_k alpha_k beta_k) . id, on both blocks (``KoszulMF``),
    for values alpha_k, beta_k in any commutative ring."""
    size = lambda parity: 1 << (n - 1) if n else 1 - parity
    out = [[zero] * size(source) for _ in range(size(target))]
    for term, c in chain(enumerate(contract), wedge):
        if c:
            for i, j, negated in _cells(n, source, target, term):
                out[i][j] = c[negated]
    return out


def _signed(c):
    """(c, -c), negated once and shared by every cell it fills; None for 0."""
    return (c, -c) if c else None


class DgSchemePresentation:
    """[A -> B]: Spec of S(B_dual -> A_dual).

    ``ring`` is the even coordinate ring S(A_dual); ``odd_gens`` the odd
    generators (basis of B_dual, cohomological degree -1, with R-weights);
    ``differential`` the list of even functions d(b_k), the duals of f: A -> B.
    """

    def __init__(self, ring, odd_gens, differential):
        self.ring = ring
        self.odd_gens = [g if isinstance(g, Generator) else Generator(*g)
                         for g in odd_gens]
        if len(differential) != len(self.odd_gens):
            raise ValueError("one differential image per odd generator")
        self.differential = [_coerce(ring, p, f"d({g.name})")
                             for g, p in zip(self.odd_gens, differential)]
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
        return SuperElement(self, {(): _coerce(self.ring, p, "scalar")})

    def odd_coordinate(self, k):
        return SuperElement(self, {(k,): self.ring.one})

    def basis_subsets(self, parity=None):
        """All sorted index subsets, ordered by (size, lex); optionally only
        even- or odd-sized ones."""
        return _subsets(self.n_odd, parity)

    def d(self, elt):
        """The odd derivation: e_k -> d(b_k), extended by the Leibniz rule."""
        terms = {}
        for subset, coeff in elt.coefficients.items():
            for pos, k in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1:]
                sign = 1 if pos % 2 == 0 else -1
                contrib = sign * coeff * self.differential[k]
                if contrib:
                    terms[rest] = terms.get(rest, self.ring.zero) + contrib
        return SuperElement(self, terms)


class SuperElement:
    """An element of S(A_dual) (x) Wedge(B_dual): subset -> even coefficient.
    A subset is the increasing tuple of its odd generators' indices: the
    keys must already be sorted, since sorting a wedge product changes its
    sign and the constructor's sort does not.  Zero coefficients are dropped
    when the element is built."""

    __slots__ = ("scheme", "coefficients")

    def __init__(self, scheme, coefficients):
        self.scheme = scheme
        self.coefficients = {tuple(sorted(s)): c for s, c in coefficients.items() if c}

    def __bool__(self):
        return bool(self.coefficients)

    def __eq__(self, other):
        return (isinstance(other, SuperElement) and other.scheme.ring == self.scheme.ring
                and other.coefficients == self.coefficients)

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
            terms[s] = terms.get(s, self.scheme.ring.zero) + c
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
                terms[key] = terms.get(key, self.scheme.ring.zero) + sign * c * e
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


def _odd_gens(beta):
    """The odd generators e_k with d(e_k) = beta_k; the R-weight of e_k is
    the weight of beta_k, or 1 when beta_k is zero or not quasihomogeneous."""
    return [Generator(f"e{k}", w if isinstance(w, int) else 1)
            for k, (w, _) in enumerate(b.weight() for b in beta)]


def derived_zero_locus(ring, beta):
    """The dg-scheme Z(beta): odd generator e_k with d(e_k) = beta_k."""
    beta = [_coerce(ring, b, "beta entry") for b in beta]
    return DgSchemePresentation(ring, _odd_gens(beta), beta)


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

    ``f_minus_1`` must be odd.  An odd element of S (x) Wedge squares to
    zero (odd elements anticommute and e_t ^ e_t = 0), so delta^2 is
    multiplication by d(f_{-1}), which must be an even function; the fold
    certifies delta^2 = d(f_{-1}) . id exactly when it builds the MF.
    """
    if f_minus_1 and f_minus_1.parity() != 1:
        raise ValueError("the curving function must be odd")
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
    """(P0, P1, delta0, delta1) with both composites equal to W . id,
    certified by ``verify`` when the object is built."""

    def __init__(self, ring, p0_gens, p1_gens, delta0, delta1, potential):
        self.ring = ring
        self.p0_gens = [g if isinstance(g, Generator) else Generator(*g) for g in p0_gens]
        self.p1_gens = [g if isinstance(g, Generator) else Generator(*g) for g in p1_gens]
        # delta0: P0 -> P1 (rows indexed by P1), delta1: P1 -> P0
        coerce = lambda c: _coerce(ring, c, "matrix factorization entry")
        self.delta0, self.delta1, [[self.potential]] = linalg.entrywise(
            coerce, delta0, delta1, [[potential]])
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
        reported in a CertificateError.  This is the certificate of every MF
        read as cells, a parsed ``.mf`` (the trust boundary) that is no Koszul
        fold included; a ``KoszulMF``, a ``.mf`` that spells one among them
        (``koszul_of_cells``), is certified instead by
        sum_k alpha_k beta_k = W.

        A square MF with W != 0 checks delta1 . delta0 alone, as the other
        composite follows.  Its ring (Q(zeta_N)[x...], the point base or
        k[t]) is a domain, and over the fraction field det delta1 .
        det delta0 = W^n != 0, so delta1 = W . delta0^-1 and
        delta0 . delta1 = W . id."""
        if len(self.delta0) != self.rank1 or any(len(r) != self.rank0 for r in self.delta0):
            raise ValueError("delta0 has wrong shape")
        if len(self.delta1) != self.rank0 or any(len(r) != self.rank1 for r in self.delta1):
            raise ValueError("delta1 has wrong shape")
        zero = self.ring.zero
        checks = [(self.delta1, self.delta0, self.rank0)]
        if not self.potential or self.rank0 != self.rank1:
            checks.append((self.delta0, self.delta1, self.rank1))
        for a, b, n in checks:
            target = [[self.potential if i == j else zero for j in range(n)]
                      for i in range(n)]
            bad = linalg.first_mismatch([(a, b)], target, self.ring.field)
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
        """The certified MF over the point base of the values at a Scalar tuple
        (``_at_point``); an MF over the point base is its own restriction to ()."""
        return _at_point(self, point)[2]()

    def restrict_to_line(self, point_images):
        """Substitute each variable by a univariate polynomial in t (a Poly
        over a one-variable ring), for fiberwise homology.  One substitution
        map serves delta0, delta1 and the potential, so each monomial's image
        on the line is computed once for the whole MF.  The line MF is
        certified by its own ``verify``.  An MF over the point base has no
        variable to substitute: restrict it with ``restrict_to_point(())``."""
        if not point_images:
            raise ValueError("restrict_to_line needs one image per variable; "
                             "an MF over the point base has none, use "
                             "restrict_to_point(())")
        target = point_images[0].ring
        return self._mapped(target, substituter(self.ring, point_images, target))

    def _mapped(self, target, sub):
        """The MF over ``target`` whose entries are the images under ``sub``,
        computed once per distinct entry object and shared as it is."""
        delta0, delta1 = linalg.entrywise(sub, self.delta0, self.delta1)
        return MatrixFactorization(target, self.p0_gens, self.p1_gens, delta0,
                                   delta1, sub(self.potential))


def _at_point(mf, point):
    """(W(p), values, restricted): W's value at ``point`` over the point base,
    and functions giving the values the MF is read from at p and its
    restriction there, certified by its ``verify``: the point's one memoized
    substituter (``poly``), each distinct entry evaluated once, and nothing
    but W until asked for.  A ``KoszulMF`` is read from (alpha(p), beta(p))
    alone and restricts to their KoszulMF, certified by
    sum_k alpha_k(p) beta_k(p) = W(p); any other MF from (delta0(p),
    delta1(p)), certified cell by cell.  An MF over the point base is its
    own value at the point (), read as it is."""
    ring, koszul = mf.ring, isinstance(mf, KoszulMF)
    data = [mf.alpha, mf.beta] if koszul else [mf.delta0, mf.delta1]
    if len(point) != ring.nvars:
        raise ValueError("an MF over the point base is restricted to the point ()"
                         if not ring.nvars else f"a point needs one scalar per "
                         f"variable ({ring.nvars}), got {len(point)}")
    if not ring.nvars:
        return mf.potential, lambda: data, lambda: mf
    sub = _point_substituter(ring, tuple(map(ring.field.scalar, point)))
    w = sub(mf.potential)
    if koszul:
        values = lambda: linalg.entrywise(sub, data)[0]
        return w, values, lambda: KoszulMF(w.ring, mf.odd_gens, *values(), w)
    values = lambda: linalg.entrywise(sub, *data)
    return w, values, lambda: MatrixFactorization(w.ring, mf.p0_gens, mf.p1_gens,
                                                  *values(), w)


class KoszulMF(MatrixFactorization):
    """The Koszul MF K{alpha, beta}: the fold of d(e_k) = beta_k curved by
    sum_k alpha_k e_k.  Its data of record is (alpha, beta, W), and both
    deltas are written from it (``_fold_data``), not read as cells.  So are
    its restrictions: to a line (``_mapped``) and to a point (``_at_point``),
    each the KoszulMF of the images of alpha, beta and W; and at a point
    where W(p) != 0, ``support_check``'s homotopy (``_unit_homotopy``)."""

    def __init__(self, ring, odd_gens, alpha, beta, potential):
        self.ring, self.odd_gens = ring, list(odd_gens)
        self.alpha = [_coerce(ring, a, "alpha entry") for a in alpha]
        self.beta = [_coerce(ring, b, "beta entry") for b in beta]
        self.potential = _coerce(ring, potential, "matrix factorization entry")
        if not len(self.alpha) == len(self.beta) == len(self.odd_gens):
            raise ValueError("alpha, beta and the odd generators must have the same length")
        self.p0_gens, self.p1_gens, self.delta0, self.delta1 = _fold_data(
            ring, self.odd_gens, self.beta, {(k,): a for k, a in enumerate(self.alpha)})
        self.verify()

    def verify(self):
        """Certify delta^2 = W . id by sum_k alpha_k beta_k = W
        (``koszul_identity_fails``).  Both composites of the deltas are
        (sum_k alpha_k beta_k) . id by the Clifford identity
        (``_exterior_matrix``), for W = 0 too."""
        if koszul_identity_fails(self.ring, self.alpha, self.beta, self.potential):
            total = sum((a * b for a, b in zip(self.alpha, self.beta)), self.ring.zero)
            raise CertificateError(f"delta^2 != W . id: sum_k alpha_k beta_k = "
                                   f"{total} vs {self.potential}")
        return True

    def _mapped(self, target, sub):
        """The Koszul MF of the images of alpha, beta and W under ``sub``."""
        [alpha], [beta], [[w]] = linalg.entrywise(sub, [self.alpha], [self.beta],
                                                  [[self.potential]])
        return KoszulMF(target, self.odd_gens, alpha, beta, w)


def koszul_identity_fails(ring, alpha, beta, w):
    """Whether sum_k alpha_k beta_k != w over ``ring``: one exact
    ``first_mismatch`` of the 1 x n by n x 1 product against [[w]]."""
    return linalg.first_mismatch([([alpha], [[b] for b in beta])], [[w]],
                                 ring.field) is not None


def koszul_of_cells(ring, p0_gens, p1_gens, delta0, delta1, potential):
    """The ``KoszulMF`` equal to the MF of these cells (Generators and Poly
    cells over ``ring``) if they are exactly a Koszul fold, else None.

    With rank0 + rank1 = 2^n, alpha_k = delta0[{k}][{}] and
    beta_k = delta1[{}][{k}] are read from the cells: row and column k of
    the (size, lex) exterior basis.  ``KoszulMF(ring, p1_gens[:n], alpha,
    beta, W)`` checks sum_k alpha_k beta_k = W exactly.  Then both generator
    lists must equal its fold's (``_fold_data``) and every cell its fold's
    cell, each distinct (cell, fold cell) pair of objects compared once and
    a cell that is its fold cell's object not at all.

    That certifies delta^2 = W . id for the cells: they equal
    ``_exterior_matrix`` of contraction by beta and wedge by alpha, so by
    the Clifford identity both composites are (sum_k alpha_k beta_k) . id,
    and that sum is W.  Any failed check, sum_k alpha_k beta_k != W
    included, gives None, so the caller certifies the cells as a plain
    ``MatrixFactorization``, with its own report of the first bad entry."""
    r0, r1 = len(p0_gens), len(p1_gens)
    size, shape = r0 + r1, lambda m: [len(row) for row in m]
    if (not size or size & (size - 1) or r0 != (size + 1) // 2
            or shape(delta0) != [r0] * r1 or shape(delta1) != [r1] * r0):
        return None
    n = size.bit_length() - 1
    try:
        mf = KoszulMF(ring, p1_gens[:n], [delta0[k][0] for k in range(n)],
                      delta1[0][:n], potential)
    except CertificateError:
        return None
    if mf.p0_gens != list(p0_gens) or mf.p1_gens != list(p1_gens):
        return None
    pairs = {(id(a), id(b)): (a, b)
             for cells, fold in ((delta0, mf.delta0), (delta1, mf.delta1))
             for row, fold_row in zip(cells, fold)
             for a, b in zip(row, fold_row) if a is not b}
    return mf if all(a == b for a, b in pairs.values()) else None


def koszul_mf(ring, alpha, beta):
    """The Koszul matrix factorization {alpha, beta} of W = <alpha, beta>.

    Underlying module Wedge of the free rank-n module on odd generators;
    delta = (wedge by sum alpha_k e_k) + (Koszul contraction by beta).  That
    is the fold of the derived zero locus Z(beta) curved by sum alpha_k e_k,
    written by the fold's closed form.  beta need not be quasihomogeneous:
    no dg-scheme is built, so no R-weight is checked."""
    alpha = [_coerce(ring, a, "alpha entry") for a in alpha]
    beta = [_coerce(ring, b, "beta entry") for b in beta]
    return KoszulMF(ring, _odd_gens(beta), alpha, beta,
                    sum((a * b for a, b in zip(alpha, beta)), ring.zero))


def _linear_rows(scheme):
    """The coefficient vector of each d(b_k), a linear form."""
    ring = scheme.ring
    units = [tuple(int(i == v) for i in range(ring.nvars)) for v in range(ring.nvars)]
    return [[p.terms.get(u, ring.field.zero) for u in units] for p in scheme.differential]


def _substitute_pivot(forms, j, c, row):
    """Map y_j to y_j - row/c in every linear form (coefficient vector)."""
    for vec in forms:
        if vec[j]:
            x = vec[j] / c
            vec[:] = [a - x * b for a, b in zip(vec, row)]


def koszul_steps(scheme, n_keep):
    """The steps (j, k, c) of the Koszul reduction of a dg-scheme whose d(b_k)
    are linear forms, which removes its auxiliary coordinates y_j, j >= n_keep:
    Gauss-Jordan on the d(b) coefficients, row by row, with b_k pivoting at
    its first y_j whose coefficient c is nonzero after the earlier steps."""
    rows = _linear_rows(scheme)
    steps = []
    for k, row in enumerate(rows):
        j = next((j for j in range(n_keep, len(row)) if row[j]), None)
        if j is not None:
            steps.append((j, k, row[j]))
            _substitute_pivot(rows, j, row[j], list(row))
    return steps


def koszul_reduce(scheme, f, steps):
    """The dg-scheme and curving that ``steps`` reduce ``scheme`` and ``f`` to.

    A step (j, k, c) claims that d(b_k) = c y_j + r after the earlier steps,
    with c != 0 and r free of y_j; it maps y_j to -r/c, the solution of
    d(b_k) = 0, and b_k to 0.  That commutes with d, as d(b_k) goes to
    0 = d(0), and is a quasi-isomorphism: in the coordinate y' = d(b_k)/c the
    algebra is the rest tensored with the Koszul complex k[y'] (x) Wedge(b_k),
    d(b_k) = c y', which resolves k since c is a unit.  The steps are
    replayed, and a claim that does not hold raises a CertificateError.
    Every d(b_i) and f are then transported by one substitution, the b_k of
    the steps and the terms of f that contain one are dropped, and the
    certificate is checked exactly: the image of every pivot d(b_k) is 0."""
    ring, n = scheme.ring, scheme.ring.nvars
    rows, images = _linear_rows(scheme), linalg.identity(ring.field, n)
    for j, k, c in steps:
        row = list(rows[k])
        if not c or row[j] != c:
            raise CertificateError(f"reduction step {j, k}: the coefficient of "
                                   f"{ring.names[j]} in d(b_{k}) is {row[j]}, not {c}")
        _substitute_pivot(rows + images, j, c, row)
    pivots = {j for j, _k, _c in steps}
    keep = [v for v in range(n) if v not in pivots]
    reduced = PolyRing(ring.field, [ring.names[v] for v in keep],
                       [ring.weights[v] for v in keep])
    sub = substituter(ring, _linear_forms([[vec[v] for v in keep] for vec in images],
                                          reduced), reduced)
    forms = [sub(p) for p in scheme.differential]
    killed = {k for _j, k, _c in steps}
    for k in killed:
        if forms[k]:
            raise CertificateError(f"the reduction maps d(b_{k}) to {forms[k]}, not 0")
    odd = [k for k in range(scheme.n_odd) if k not in killed]
    scheme_out = DgSchemePresentation(reduced, [scheme.odd_gens[k] for k in odd],
                                      [forms[k] for k in odd])
    return scheme_out, SuperElement(scheme_out, {
        tuple(map(odd.index, s)): sub(c)
        for s, c in f.coefficients.items() if killed.isdisjoint(s)})


def _fold_data(ring, odd_gens, differential, f_terms):
    """(P0 gens, P1 gens, delta0, delta1) of delta = d + f on Wedge(odd_gens),
    d(e_k) = differential[k], f = sum_t f_terms[t] e_t (odd t): the even/odd
    exterior parts in (size, lex) order, and ``_exterior_matrix`` of the
    same contraction and wedge terms."""
    contract = [_signed(c) for c in differential]
    wedge = [(t, _signed(c)) for t, c in f_terms.items() if c]
    n, zero = len(odd_gens), ring.zero
    gen = lambda s: Generator("^".join(odd_gens[k].name for k in s) or "1",
                              sum(odd_gens[k].weight for k in s))
    return ([gen(s) for s in _subsets(n, 0)], [gen(s) for s in _subsets(n, 1)],
            _exterior_matrix(n, 0, 1, contract, wedge, zero),
            _exterior_matrix(n, 1, 0, contract, wedge, zero))


def fold_to_mf(curved):
    """2-periodization of (O_X, delta): P0/P1 are the even/odd exterior parts
    over the even coordinate ring.

    In closed form, delta(e_s) = sum_pos (-1)^pos d(b_{s[pos]}) e_{s - s[pos]}
    + sum_{t disjoint from s} sign(t, s) f_t e_{t u s}, so each entry is one
    signed copy of a d(b_k) or an f_t (``_exterior_matrix``).

    Each d(b_k) and f_t is negated once, and its two signed copies are
    shared, immutable Poly objects written into every cell they fill; every
    zero cell holds one zero.  So the MF has at most 2 (#d(b) + #f) + 1
    distinct entry objects, and every walk keyed by entry object (``verify``,
    the restrictions, ``write_mf``) works once per distinct entry.

    A curving linear in the odd generators folds to a ``KoszulMF``,
    certified by sum_k f_k d(b_k) = W, as its ``.mf`` file is when read back;
    any other curving to a ``MatrixFactorization`` checked cell by cell."""
    scheme, terms, w = curved.scheme, curved.f_minus_1.coefficients, curved.curvature
    ring, odd_gens, differential = scheme.ring, scheme.odd_gens, scheme.differential
    if all(len(t) == 1 for t, c in terms.items() if c):
        alpha = [terms.get((k,), ring.zero) for k in range(len(odd_gens))]
        return KoszulMF(ring, odd_gens, alpha, differential, w)
    return MatrixFactorization(ring, *_fold_data(ring, odd_gens, differential, terms), w)


def mf_tensor(m, n):
    """Z/2-graded tensor product; potentials add.

    The graded tensor product of the two 2-periodic complexes
    (``complexes._tensor`` with period 2): P0 = M0 (x) N0 (+) M1 (x) N1 and
    P1 = M0 (x) N1 (+) M1 (x) N0, and on the block M_a (x) N_b, delta is
    delta_m (x) 1 + (-1)^a 1 (x) delta_n.  Cells share entry objects: each
    of m's as it is, each of n's and its negation (computed once), and one
    zero."""
    if m.ring != n.ring:
        raise ValueError("tensor of matrix factorizations over different rings")
    _, gens, delta = _tensor({0: m.p0_gens, 1: m.p1_gens}, {0: m.delta0, 1: m.delta1},
                             {0: n.p0_gens, 1: n.p1_gens}, {0: n.delta0, 1: n.delta1},
                             m.ring.zero, period=2)
    return MatrixFactorization(m.ring, gens[0], gens[1], delta[0], delta[1],
                               m.potential + n.potential)


def unit_mf(ring):
    """Rank (1|0) matrix factorization of potential 0, the monoidal unit:
    the Koszul factorization with n = 0."""
    return koszul_mf(ring, [], [])


# -- homotopy solving ------------------------------------------------------


def nullhomotopy_solve(mf):
    """An odd h = (h0, h1) with delta h + h delta = id (a contracting
    homotopy) of an MF over the point base, or None if it has none.

    If W(p) != 0, h = (delta0 / W(p), 0), with W(p) inverted once and each
    distinct delta0 entry scaled by one integer product, checked by
    delta1 h0 = id alone (``_unit_homotopy``).  The MF is square:
    delta1 delta0 = W . id and delta0 delta1 = W . id with W != 0 make both
    deltas injective over the field, so n0 = n1 (``verify`` checks both
    composites when the ranks differ).  With h1 = 0 the blocks of
    delta h + h delta are delta1 h0 and h0 delta1, and a square one-sided
    inverse over Q(zeta_N) is two-sided.
    Times W(p), delta1 h0 = id is delta1 delta0 = W(p) . id, so the check
    certifies the values of delta as an MF too.  The general solve below
    gives the same h, as it is injective on {h1 = 0}.

    If W(p) = 0, delta h + h delta = id is one constant linear system in the
    2 . n0 . n1 entries of h (h0 row-major, then h1 row-major, so
    vec(a h b) = (a (x) b^T) vec h), solved exactly once with free unknowns
    set to 0; both blocks are checked exactly (CertificateError if not).
    """
    ring = mf.ring
    if ring.nvars:
        raise ValueError("nullhomotopy_solve needs an MF over the point base; "
                         "restrict it to a point first")
    if mf.potential:
        return _unit_homotopy(mf.potential, mf.delta0, mf.delta1)
    field = ring.field
    n0, n1 = mf.rank0, mf.rank1
    d0 = [[c.constant_value() for c in row] for row in mf.delta0]
    d1 = [[c.constant_value() for c in row] for row in mf.delta1]
    # transposes built with their shapes (``transpose`` of a 0-row matrix is [])
    d0t = [[row[j] for row in d0] for j in range(n0)]
    d1t = [[row[j] for row in d1] for j in range(n1)]
    zero = field.zero
    # delta1 h0 + h1 delta0 = id on P0, delta0 h1 + h0 delta1 = id on P1
    matrix = linalg.blocks([[linalg.kron(d1, n0, zero), linalg.kron(n0, d0t, zero)],
                            [linalg.kron(n1, d1t, zero), linalg.kron(d0, n1, zero)]])
    rhs = [c for n in (n0, n1) for row in linalg.identity(field, n) for c in row]
    sol = linalg.solve(matrix, rhs, field)
    if sol is None:
        return None
    entries = iter(map(ring.constant, sol))
    h0 = [list(islice(entries, n0)) for _ in range(n1)]
    h1 = [list(islice(entries, n1)) for _ in range(n0)]
    for products, n in (([(mf.delta1, h0), (h1, mf.delta0)], n0),
                        ([(mf.delta0, h1), (h0, mf.delta1)], n1)):
        if linalg.first_mismatch(products, linalg.identity(ring, n), field) is not None:
            raise CertificateError("solved homotopy fails delta h + h delta = id")
    return h0, h1


def _unit_homotopy(w, a, b, koszul=False):
    """h = (delta0(p) / w, 0) at a point where w = W(p) != 0, from the values
    ``_at_point`` reads there: (a, b) = (delta0(p), delta1(p)) of a certified
    MF, or (alpha(p), beta(p)) of a KoszulMF if ``koszul``.  W(p) is
    inverted once, by ``Scalar.inverse``; each distinct nonzero value is
    scaled by it as one integer product brought to lowest terms
    (``cyclotomic._product``, ``_lowest``), straight into a point-base Poly:
    the same h0 as the Scalar product, with no Scalar built twice.  Every
    zero cell of h0 and h1 is one shared zero.

    From the cells, h0 is checked by delta1(p) h0 = id alone
    (``nullhomotopy_solve``).  From Koszul values, h0 is ``_exterior_matrix``
    of the 2n scaled values W(p)^-1 alpha_k(p) and W(p)^-1 beta_k(p), each
    negated once: W(p)^-1 delta0(p) entry for entry, as each cell of
    delta0(p) is one signed value.  It is certified by two scalar checks,
    s = sum_k alpha_k(p) beta_k(p) equals W(p), and W(p) W(p)^-1 = 1.
    Proof: the Clifford identity (``_exterior_matrix``) holds for values in
    any commutative ring, so delta1(p) delta0(p) = s . id on P0 and
    delta0(p) delta1(p) = s . id on P1.  Hence delta1(p) h0 = W(p)^-1 s . id
    and h0 delta1(p) = W(p)^-1 s . id, and the checks make both id: with
    h1 = 0 these are the two blocks of delta h + h delta = id.  They also
    certify delta(p) as an MF of W(p), with no product of matrices."""
    ring, field, zero = w.ring, w.ring.field, w.ring.zero
    value = w.constant_value()
    inv = value.inverse()

    def scaled(c):
        if not c:
            return zero
        s = c.constant_value()
        return Poly._trusted(ring, {(): Scalar(field, *_lowest(
            *_product(field, s.ints, s.den, inv.ints, inv.den)))})

    if koszul:
        total = sum((x.constant_value() * y.constant_value() for x, y in zip(a, b)),
                    field.zero)
        if total != value or value * inv != field.one:
            raise CertificateError(f"solved homotopy fails delta h + h delta = id: "
                                   f"sum_k alpha_k(p) beta_k(p) = {total}, W(p) = {value}")
        h0 = _exterior_matrix(len(a), 0, 1, [_signed(scaled(c)) for c in b],
                              [((k,), _signed(scaled(c))) for k, c in enumerate(a)], zero)
        return h0, [[zero] * len(h0) for _ in h0]
    h0, = linalg.entrywise(scaled, a)
    if linalg.first_mismatch([(b, h0)], linalg.identity(ring, len(b)),
                             field) is not None:
        raise CertificateError("solved homotopy fails delta h + h delta = id")
    return h0, [[zero] * len(a) for _ in b]


CONTRACTIBLE = "contractible"
NONCONTRACTIBLE = "noncontractible"


def point_homology(mf, point):
    """(h0, h1) of the restriction of an MF to a point, exactly, from one
    substitution (``_at_point``).  If W(p) != 0 both vanish, read from W(p)
    alone (the MF is certified, so delta(p) is invertible).  If W(p) = 0 the
    restriction is certified, and h_i = rank P_i - rank delta0 - rank delta1,
    each rank read by ``complexes._rank``."""
    w, _, restricted = _at_point(mf, point)
    if w:
        return (0, 0)
    at = restricted()
    r0, r1 = _rank(at.ring, at.delta0), _rank(at.ring, at.delta1)
    return (at.rank0 - r0 - r1, at.rank1 - r0 - r1)


def point_verdict(mf, point):
    """Exact contractibility verdict for the restriction of an MF to a point:
    contractible iff its homology vanishes."""
    return CONTRACTIBLE if point_homology(mf, point) == (0, 0) else NONCONTRACTIBLE


def support_check(mf, points, degree_bound=4, with_certificates=True):
    """Per point, ``point_verdict``'s verdict and, if ``with_certificates``
    and it is contractible, a contracting homotopy checked exactly.  Every
    such homotopy is constant, so a contractible verdict without one is a
    CertificateError, and ``degree_bound`` bounds nothing (it must be >= 0).
    W and the values share the point's table (``_at_point``): alpha(p) and
    beta(p) for a ``KoszulMF``, both deltas for any other MF.  Where
    W(p) != 0 no restricted MF is built, ``point_verdict`` re-reads W(p)
    from that table, and h = (delta0(p) / W(p), 0) takes one inverse and one
    integer product per distinct value (``_unit_homotopy``).  It is checked
    by sum_k alpha_k(p) beta_k(p) = W(p) and W(p) W(p)^-1 = 1 for a
    KoszulMF, by delta1(p) h0 = id for any other MF.  Where W(p) = 0 the
    verdict and the solve read one certified restriction, a KoszulMF's
    certified by sum_k alpha_k(p) beta_k(p) = 0."""
    if degree_bound < 0:
        raise ValueError(f"degree_bound must be >= 0, got {degree_bound}")
    koszul = isinstance(mf, KoszulMF)
    report = []
    for point in points:
        w, values, restricted = _at_point(mf, point)
        at, at_point = (mf, point) if w else (restricted(), ())
        verdict = point_verdict(at, at_point)
        cert = None
        if with_certificates and verdict == CONTRACTIBLE:
            cert = _unit_homotopy(w, *values(), koszul) if w else nullhomotopy_solve(at)
            if cert is None:
                raise CertificateError(
                    f"no contracting homotopy at the contractible point {point}")
        report.append({"point": tuple(point), "verdict": verdict,
                       "certificate": cert})
    return report


# -- gauge transformations -------------------------------------------------


def exp_multiplication_operator(scheme, h, parity_basis):
    """Matrix of multiplication by exp(h) on ``parity_basis``, the exterior
    basis of one parity, ``scheme.basis_subsets(parity)``.

    ``h`` must be even and nilpotent (it lives in the exterior factor), so the
    series terminates exactly.  exp(h) = sum_t g_t e_t is summed once, and
    e_s -> sum_t sign(t, s) g_t e_{t u s} is written by ``_exterior_matrix``
    with no contraction.  A degree-0 or odd term of h, or a basis list of
    another order, is a ValueError."""
    if any(not t or len(t) % 2 for t in h.coefficients):
        raise ValueError("exp(h) needs an even nilpotent h: "
                         "no degree-0 or odd exterior term")
    parity = len(parity_basis[0]) % 2 if parity_basis else 1
    if list(parity_basis) != scheme.basis_subsets(parity):
        raise ValueError("exp(h) acts on scheme.basis_subsets(parity)")
    acc = total = scheme.scalar_element(scheme.ring.one)
    k = 1
    while True:
        acc = h * acc
        if not acc:
            break
        acc = acc * Fraction(1, k)  # h^k / k!
        total = total + acc
        k += 1
    wedge = [(t, _signed(g)) for t, g in total.coefficients.items()]
    return _exterior_matrix(scheme.n_odd, parity, parity, [], wedge, scheme.ring.zero)


def gauge_intertwiner(scheme, f_a, f_b):
    """If f_b - f_a = d(h) for an even h of degree -2, return (h, E0, E1):
    multiplication by exp(-h) intertwines delta_a = d + f_a and
    delta_b = d + f_b on the folded modules, which is checked exactly
    (CertificateError if not).  Returns None when the difference is not
    exact at its weight."""
    ring = scheme.ring
    field = ring.field
    diff = f_b - f_a
    if not diff:
        h = scheme.zero_element()
    else:
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
    mfa = fold_to_mf(dgmf_from_homotopy(scheme, f_a))
    mfb = fold_to_mf(dgmf_from_homotopy(scheme, f_b))
    # delta_b o E = E o delta_a (E multiplies by exp(-h)), block by block
    for k, delta_a, delta_b, e_in, e_out in ((0, mfa.delta0, mfb.delta0, e0, e1),
                                              (1, mfa.delta1, mfb.delta1, e1, e0)):
        bad = linalg.first_mismatch(
            [(delta_b, e_in), (linalg.mat_neg(e_out), delta_a)],
            linalg.zeros(ring, len(e_out), len(e_in)), field)
        if bad is not None:
            i, j = bad
            raise CertificateError(
                f"gauge intertwiner failed exact verification: "
                f"delta_b{k} o E{k} != E{1 - k} o delta_a{k} at entry ({i},{j})")
    return h, e0, e1


def _d_system(scheme, target, degree, weight):
    """(basis, matrix, rhs) of d(h) = target for h of pure exterior degree
    ``degree`` and R-weight ``weight``, one unknown per x^e e_s in ``basis``.
    The column of x^e e_s is sum_pos (-1)^pos x^e d(b_{s[pos]}) e_{s - s[pos]}:
    each term c x^f of d(b_k), signed, in the row (s - s[pos], e + f).  Rows
    are numbered in order of first use, the target's last."""
    ring = scheme.ring
    field = ring.field
    terms = [[(f, (c, -c)) for f, c in p.terms.items()] for p in scheme.differential]
    basis, columns, rows = [], [], {}
    for subset in combinations(range(scheme.n_odd), -degree):
        wodd = sum(scheme.odd_gens[k].weight for k in subset)
        for exps in ring.monomials_of_weight(weight - wodd):
            basis.append((subset, exps))
            col = []
            for pos, k in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1:]
                for f, c in terms[k]:
                    key = (rest, tuple(a + b for a, b in zip(exps, f)))
                    col.append((rows.setdefault(key, len(rows)), c[pos % 2]))
            columns.append(col)
    values = {rows.setdefault((t, e), len(rows)): cc
              for t, c in target.coefficients.items() for e, cc in c.terms.items()}
    matrix = [[field.zero] * len(basis) for _ in range(len(rows))]
    for j, col in enumerate(columns):
        for i, c in col:
            matrix[i][j] = c
    return basis, matrix, [values.get(i, field.zero) for i in range(len(rows))]


def _solve_d_preimage(scheme, target, degree, weight, col_order=None):
    """Solve d(h) = target with h of pure exterior degree ``degree`` and exact
    R-weight ``weight``; exact linear algebra on the system of ``_d_system``.

    ``col_order`` controls pivoting and thereby which of the (gauge-equivalent)
    solutions is returned; the default is the deterministic monomial order."""
    ring = scheme.ring
    basis, matrix, rhs = _d_system(scheme, target, degree, weight)
    sol = linalg.solve(matrix, rhs, ring.field, col_order=col_order) if matrix else (
        [] if not target else None)
    if sol is None:
        return None
    terms = {}
    for j, (subset, exps) in enumerate(basis):
        if sol[j]:
            cur = terms.get(subset, ring.zero)
            terms[subset] = cur + Poly(ring, {exps: sol[j]})
    return SuperElement(scheme, terms)
