"""Bounded complexes of free graded modules.

Generators carry R-weights; differentials are matrices of polynomials (or
scalars when the base ring has no variables, i.e. over a point).  The
mapping cone (with the convention d_cone = [[d_D, f], [0, -d_C]]) gives Rj^!
of a pair and the ranks of induced maps on homology; one cone writer,
``_cone_diff``, writes its blocks for both, and an induced rank reads one
block without building the cone.  The graded tensor
product with Koszul signs, ``_tensor``, is shared with matrix
factorizations, which are 2-periodic complexes: ``tensor``,
``pairs.pair_tensor`` and ``factorizations.mf_tensor`` write their bases and
matrices with it.
Homology is exact Gaussian elimination, available over the field.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .poly import exponents_of_weight


class Generator:
    """A named basis element with an R-weight."""

    __slots__ = ("name", "weight")

    def __init__(self, name, weight):
        self.name = name
        self.weight = int(weight)

    def __eq__(self, other):
        return isinstance(other, Generator) and other.name == self.name and other.weight == self.weight

    def __hash__(self):
        return hash((self.name, self.weight))

    def __repr__(self):
        return f"{self.name}<{self.weight}>"


class NotAChainMap(ValueError):
    """Raised with the first offending square when a purported chain map fails."""


class FreeComplex:
    """A bounded complex of free modules over a PolyRing."""

    def __init__(self, ring, objects, diffs):
        self.ring = ring
        self.objects = {n: list(gens) for n, gens in objects.items() if gens}
        self.diffs = {}
        for n, m in diffs.items():
            if self.rank(n) and self.rank(n + 1):
                self.diffs[n] = [[_coerce(ring, c, "differential entry") for c in row]
                                 for row in m]
        self._check_shapes()
        self._check_d_squared()

    # -- bookkeeping ------------------------------------------------------

    def degrees(self):
        return sorted(self.objects)

    def rank(self, n):
        return len(self.objects.get(n, []))

    def gens(self, n):
        return self.objects.get(n, [])

    def diff(self, n):
        """Matrix of d: C^n -> C^{n+1} (rows = target generators)."""
        if n in self.diffs:
            return self.diffs[n]
        return [[self.ring.zero] * self.rank(n) for _ in range(self.rank(n + 1))]

    def _check_shapes(self):
        for n, m in self.diffs.items():
            if len(m) != self.rank(n + 1) or any(len(row) != self.rank(n) for row in m):
                raise ValueError(f"differential at degree {n} has wrong shape")

    def _check_d_squared(self):
        for n in self.degrees():
            if self.rank(n + 2) == 0 or self.rank(n) == 0:
                continue
            zero = linalg.zeros(self.ring, self.rank(n + 2), self.rank(n))
            bad = linalg.first_mismatch([(self.diff(n + 1), self.diff(n))], zero,
                                        self.ring.field)
            if bad is not None:
                i, j = bad
                raise ValueError(f"d o d != 0 at degree {n}, entry ({i},{j})")

    def __eq__(self, other):
        if not isinstance(other, FreeComplex) or other.ring != self.ring:
            return False
        if other.objects != self.objects:
            return False
        for n in self.degrees():
            if self.diff(n) != other.diff(n):
                return False
        return True

    def euler_characteristic(self):
        return sum((-1) ** n * self.rank(n) for n in self.degrees())

    # -- constructors -----------------------------------------------------

    @classmethod
    def single(cls, ring):
        """The base ring in degree 0, on one generator of weight 0."""
        return cls(ring, {0: [Generator("e", 0)]}, {})

    @classmethod
    def zero_complex(cls, ring):
        return cls(ring, {}, {})

    def shift(self, k):
        """C[k]: degree n holds C^{n+k}; the differential picks up (-1)^k."""
        objects = {n - k: gens for n, gens in self.objects.items()}
        sign = 1 if k % 2 == 0 else -1
        diffs = {n - k: [[sign * c for c in row] for row in m]
                 for n, m in self.diffs.items()}
        return FreeComplex(self.ring, objects, diffs)

    def direct_sum(self, other):
        ring = self.ring
        objects = {n: self.gens(n) + other.gens(n)
                   for n in set(self.degrees()) | set(other.degrees())}
        diffs = {n: linalg.blocks(
                     [[self.diff(n), linalg.zeros(ring, self.rank(n + 1), other.rank(n))],
                      [linalg.zeros(ring, other.rank(n + 1), self.rank(n)), other.diff(n)]])
                 for n in objects}
        return FreeComplex(ring, objects, diffs)


class ChainMap:
    """A degree-0 map of complexes; commutation with d is checked."""

    def __init__(self, source, target, components):
        if source.ring != target.ring:
            raise ValueError("chain map between complexes over different rings")
        self.source = source
        self.target = target
        self.components = {}
        for n, m in components.items():
            if source.rank(n) and target.rank(n):
                self.components[n] = [[_coerce(source.ring, c, "chain map component")
                                       for c in row] for row in m]
        self._check()

    def component(self, n):
        if n in self.components:
            return self.components[n]
        return [[self.source.ring.zero] * self.source.rank(n)
                for _ in range(self.target.rank(n))]

    def _check(self):
        """d_target o f_n = f_{n+1} o d_source in every degree, exactly; the
        first failing entry is reported in a NotAChainMap."""
        ring = self.source.ring
        for n, m in self.components.items():
            if len(m) != self.target.rank(n) or any(len(r) != self.source.rank(n) for r in m):
                raise ValueError(f"chain map component at degree {n} has wrong shape")
        for n in sorted(set(self.source.degrees()) | set(self.target.degrees())):
            d_t, f_n = self.target.diff(n), self.component(n)
            f_next, d_s = self.component(n + 1), self.source.diff(n)
            zero = linalg.zeros(ring, self.target.rank(n + 1), self.source.rank(n))
            bad = linalg.first_mismatch([(d_t, f_n), (linalg.mat_neg(f_next), d_s)],
                                        zero, ring.field)
            if bad is not None:
                i, j = bad
                left = sum((c * row[j] for c, row in zip(d_t[i], f_n)), ring.zero)
                right = sum((c * row[j] for c, row in zip(f_next[i], d_s)), ring.zero)
                raise NotAChainMap(
                    f"square at degree {n} does not commute at entry ({i},{j}): "
                    f"d_target o f = {left}, f o d_source = {right}")

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, {})

    @classmethod
    def identity(cls, c):
        comps = {n: linalg.identity(c.ring, c.rank(n)) for n in c.degrees()}
        return cls(c, c, comps)


def _coerce(ring, c, what):
    """A Poly of ``ring`` as it is, a constant into it; a Poly of another
    ring is a ValueError (its exponents would be read by position)."""
    if hasattr(c, "terms"):
        if c.ring is not ring and c.ring != ring:
            raise ValueError(f"{what} from a different ring")
        return c
    return ring.constant(c)


# -- cone, tensor, symmetric powers ---------------------------------------


def _cone_diff(f, n):
    """The cone's differential out of degree n, from D^n (+) C^{n+1} to
    D^{n+1} (+) C^{n+2}: [[d_D^n, f_{n+1}], [0, -d_C^{n+1}]], each distinct
    entry of d_C negated once.  The one cone writer: ``cone`` is its
    generators plus these blocks, and ``induced_homology_map_rank`` ranks one
    block without building a complex."""
    C, D = f.source, f.target
    negated, = linalg.entrywise(lambda c: -c, C.diff(n + 1))
    return linalg.blocks([[D.diff(n), f.component(n + 1)],
                          [linalg.zeros(C.ring, C.rank(n + 2), D.rank(n)), negated]])


def cone(f):
    """Mapping cone of a chain map f: C -> D.

    Degree n is D^n (+) C^{n+1}, with differential ``_cone_diff(f, n)``.
    """
    C, D = f.source, f.target
    objects = {}
    for n in set(D.degrees()) | {m - 1 for m in C.degrees()}:
        gens = [Generator(f"D.{g.name}", g.weight) for g in D.gens(n)]
        gens += [Generator(f"C.{g.name}", g.weight) for g in C.gens(n + 1)]
        if gens:
            objects[n] = gens
    return FreeComplex(C.ring, objects,
                       {n: _cone_diff(f, n) for n in objects if n + 1 in objects})


def cone_inclusion(f):
    """The canonical chain map D -> cone(f)."""
    C, D = f.source, f.target
    comps = {n: linalg.blocks([[linalg.identity(D.ring, D.rank(n))],
                               [linalg.zeros(D.ring, C.rank(n + 1), D.rank(n))]])
             for n in D.degrees()}
    return ChainMap(D, cone(f), comps)


def cone_projection(f):
    """The canonical chain map cone(f) -> C[1]."""
    return _projection(f, cone(f))


def _projection(f, cf):
    """The canonical chain map cf -> C[1], for cf = cone(f)."""
    C, D = f.source, f.target
    comps = {n: linalg.blocks([[linalg.zeros(C.ring, C.rank(n + 1), D.rank(n)),
                                linalg.identity(C.ring, C.rank(n + 1))]])
             for n in cf.degrees()}
    return ChainMap(cf, C.shift(1), comps)


def _tensor(c_gens, c_diff, d_gens, d_diff, zero, period=0):
    """The graded tensor product of two factors, each given as degree ->
    generators and degree -> matrix of d out of that degree (rows = the next
    degree).  Degrees add, mod 2 when ``period`` is 2 (a matrix
    factorization is a 2-periodic complex).

    Returns (index, gens, diffs): ``index`` maps (n, i, m, j) to (degree,
    position) of c_i (x) d_j, ordered by n, m, i, j within each degree.  The
    Koszul sign rule d(c (x) e) = dc (x) e + (-1)^{|c|} c (x) de writes each
    cell at most once: the two terms land in the blocks (n + 1, m) and
    (n, m + 1), which differ even mod 2, and distinct rows of one factor's
    matrix give distinct rows.  So each entry is an entry of the first factor
    as it is, or one of the second factor or its negation (computed once per
    distinct object), and every zero cell holds ``zero``."""
    add = (lambda n, m: (n + m) % period) if period else (lambda n, m: n + m)
    index, gens = {}, {}
    for n, cg in sorted(c_gens.items()):
        for m, dg in sorted(d_gens.items()):
            deg = add(n, m)
            out = gens.setdefault(deg, [])
            for i, g in enumerate(cg):
                for j, h in enumerate(dg):
                    index[n, i, m, j] = (deg, len(out))
                    out.append(Generator(f"{g.name}*{h.name}", g.weight + h.weight))
    diffs = {deg: [[zero] * len(g) for _ in gens.get(add(deg, 1), ())]
             for deg, g in gens.items()}
    negate = linalg.per_object(lambda c: -c)
    for (n, i, m, j), (deg, col) in index.items():
        out = diffs[deg]
        for i2, row in enumerate(c_diff.get(n, ())):
            if row[i]:
                out[index[add(n, 1), i2, m, j][1]][col] = row[i]
        for j2, row in enumerate(d_diff.get(m, ())):
            if row[j]:
                c = row[j] if n % 2 == 0 else negate(row[j])
                out[index[n, i, add(m, 1), j2][1]][col] = c
    return index, gens, diffs


def tensor(C, D):
    """Graded tensor product with the Koszul sign rule
    d(c (x) e) = dc (x) e + (-1)^{|c|} c (x) de; basis ordered
    degree-lexicographically for bit-reproducible output (``_tensor``)."""
    if C.ring != D.ring:
        raise ValueError("tensor of complexes over different rings")
    _, gens, diffs = _tensor(C.objects, C.diffs, D.objects, D.diffs, C.ring.zero)
    return FreeComplex(C.ring, gens, diffs)


def sym_power_two_term(ring, a_gens, b_gens, f_matrix, weight):
    """The weight-``weight`` piece of the symmetric power of the two-term
    complex [A -> B] (A in degree 0, B in degree 1): term k is
    (S(A) (x) Wedge^k B)_weight, with the Koszul derivation extending f.

    ``f_matrix`` is the matrix of f: A -> B over the base ring (rows = B).
    All generator weights must be positive so each graded piece is finite.
    """
    a_gens = list(a_gens)
    b_gens = list(b_gens)
    if any(g.weight <= 0 for g in a_gens + b_gens):
        raise ValueError("a generator of weight <= 0 makes the graded piece "
                         "infinite-dimensional")
    if weight < 0:
        return FreeComplex.zero_complex(ring)

    a_weights = [g.weight for g in a_gens]
    objects = {}
    index = {}
    for k in range(len(b_gens) + 1):
        gens = []
        for subset in combinations(range(len(b_gens)), k):
            wsub = sum(b_gens[i].weight for i in subset)
            for exps in exponents_of_weight(a_weights, weight - wsub):
                index[(exps, subset)] = (k, len(gens))
                name_parts = [f"{a_gens[i].name}^{e}" for i, e in enumerate(exps) if e]
                name_parts += [b_gens[i].name for i in subset]
                gens.append(Generator("*".join(name_parts) or "1", weight))
        if gens:
            objects[k] = gens

    diffs = {}
    for k in range(len(b_gens)):
        if k in objects and k + 1 in objects:
            diffs[k] = [[ring.zero] * len(objects[k]) for _ in range(len(objects[k + 1]))]
    for (exps, subset), (k, col) in index.items():
        if k not in diffs:
            continue
        mat = diffs[k]
        for i, e in enumerate(exps):
            if e == 0:
                continue
            lowered = list(exps)
            lowered[i] -= 1
            lowered = tuple(lowered)
            for bj in range(len(b_gens)):
                c = f_matrix[bj][i]
                if not c or bj in subset:
                    continue
                pos = sum(1 for s in subset if s < bj)
                newsub = tuple(sorted(subset + (bj,)))
                _, row = index[(lowered, newsub)]
                sign = 1 if pos % 2 == 0 else -1
                mat[row][col] = mat[row][col] + sign * e * c
    return FreeComplex(ring, objects, diffs)


# -- homology over the field ----------------------------------------------


def _rank(ring, m):
    """Rank over the field of a matrix of constants of ``ring``, a point."""
    if ring.nvars != 0:
        raise ValueError("homology only over a point; restrict to a fiber first")
    return linalg.rank([[c.constant_value() for c in row] for row in m], ring.field) if m else 0


def homology_ranks(C):
    """Exact homology ranks, degree -> rank; requires a point base."""
    rank_d = {n: _rank(C.ring, C.diff(n)) for n in C.degrees()}
    return {n: C.rank(n) - rank_d[n] - rank_d.get(n - 1, 0) for n in C.degrees()}


def induced_homology_map_rank(f, n):
    """Rank of H^n(f) for a chain map f: C -> D, over the field, read from
    one block of the cone, ``_cone_diff(f, n - 1)``; no complex is built.

    The cone's differential out of degree n - 1 is [[d_D, f_n], [0, -d_C]] on
    D^{n-1} (+) C^n, with image I.  The projection of I onto C^{n+1} is
    im d_C^n.  Its kernel on I is {(d_D x + f_n y, 0) : d_C y = 0} =
    B^n(D) + f_n(Z^n(C)), which contains B^n(D) with quotient the image of
    H^n(f).  So rank d_cone = rank d_C^n + rank d_D^{n-1} + rank H^n(f)."""
    ring = f.source.ring
    return (_rank(ring, _cone_diff(f, n - 1)) - _rank(ring, f.source.diff(n))
            - _rank(ring, f.target.diff(n - 1)))


def triangle_les_exact(f):
    """Verify exactness of the homology long exact sequence of the triangle
    C --f--> D --> cone(f) --> C[1], over a point base.  Returns True/False."""
    C, D = f.source, f.target
    inc = cone_inclusion(f)
    cf = inc.target
    proj = _projection(f, cf)
    hC = homology_ranks(C)
    hD = homology_ranks(D)
    hCf = homology_ranks(cf)
    degs = sorted(set(hC) | set(hD) | set(hCf) | {n - 1 for n in hC})
    for n in degs:
        # exactness at H^n(D): im H(f) = ker H(inc)
        if hD.get(n, 0) != induced_homology_map_rank(f, n) + induced_homology_map_rank(inc, n):
            return False
        # exactness at H^n(cone): im H(inc) = ker H(proj)
        if hCf.get(n, 0) != induced_homology_map_rank(inc, n) + induced_homology_map_rank(proj, n):
            return False
        # exactness at H^{n+1}(C) = H^n(C[1]): im H(proj) = ker H(f)[1]
        if hC.get(n + 1, 0) != induced_homology_map_rank(proj, n) + induced_homology_map_rank(f, n + 1):
            return False
    return True
