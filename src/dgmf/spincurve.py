"""The fixed genus-0 pipeline: two-term realization of the pushforward of the
spin bundle, residue structures, the obstruction function, the homotopy that
trivializes it, and assembly of the fundamental matrix factorization.

The base is a point: every sheaf-level statement becomes finite exact linear
algebra over Q(zeta_N).  Curves are trees of P^1's; line-bundle summands are
embedded in the rational-function field of each component (sections of L_j(D)
are p(t)/prod (t-q)^m with deg p bounded by the twisted degree), and all
cohomology is realized by the two-term complex A = H^0(V(D)) -> B = jets
along D.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import mul

from . import linalg
from .complexes import (ChainMap, FreeComplex, Generator, NotAChainMap,
                        homology_ranks, induced_homology_map_rank)
from .factorizations import (CONTRACTIBLE, NONCONTRACTIBLE, CertificateError,
                             CurvedStructure, DgSchemePresentation, dgmf_from_homotopy,
                             fold_to_mf, koszul_identity_fails, koszul_reduce,
                             koszul_steps, point_homology, _solve_d_preimage)
from .pairs import PairObject, rj_shriek
from .poly import PolyRing, _linear_forms, substituter
from .ratfun import (RationalFunction, UPoly, _series_inverse, _taylor, _with_roots,
                     two_periodic_homology_dims)


class SpinDataError(ValueError):
    pass


SIGN_CONVENTION = "delta = d - f_{-1}; emitted potential is sum_i W_i"


def _wrong_length(what, values, n):
    return SpinDataError(f"{what}: {len(values)} values given, {n} expected (one per "
                         f"V-variable)")


class Marking:
    """A marked point: component, finite coordinate, diagonal group element,
    and the rigidification scalars (one per V-coordinate)."""

    def __init__(self, component, point, gamma, rig):
        self.component = component
        self.point = point
        self.gamma = gamma
        self.rig = list(rig)

    def broad_indices(self):
        """Indices of V-coordinates fixed by gamma (the sector V^gamma)."""
        if not self.gamma.is_diagonal():
            raise SpinDataError("pipeline markings require diagonal gamma")
        one = self.gamma.ring.field.one
        return [j for j, e in enumerate(self.gamma.diagonal_entries()) if e == one]


class Node:
    """Two glued branches; the fiber identification composes the two
    rigidifications with the square root of J."""

    def __init__(self, branch1, branch2):
        # branch = (component, point, rig scalars)
        self.branch1 = branch1
        self.branch2 = branch2


class PotentialError(SpinDataError):
    """W is not quasihomogeneous of weight d, or a group generator moves it."""


def check_symmetry(field, vring, W, d, generators, J):
    """The checks of a spec's symmetry data that need no curve: W is
    quasihomogeneous of weight d and invariant under each generator
    (PotentialError otherwise), and J is the R-charge element of order d,
    diag(zeta_d^{w_j}) (SpinDataError otherwise)."""
    if not W.is_quasihomogeneous_of(d):
        raise PotentialError(f"W is not quasihomogeneous of weight {d}")
    for g in generators:
        if g.act(W) != W:
            raise PotentialError(f"W is not invariant under a group generator, {g!r}")
    if field.order % d:
        raise SpinDataError(
            f"cyclotomic order {field.order} does not accommodate the "
            f"exponent group of order {d}; supplied matrix order must divide N")
    zeta_d = field.zeta ** (field.order // d)
    if not (J.is_diagonal() and J.diagonal_entries() == [zeta_d ** w for w in vring.weights]):
        raise SpinDataError("J must act diagonally by the d-th roots of the "
                            "R-charge weights")


class SpinCurveSpec:
    def __init__(self, field, vring, W, degree_d, group_generators, J,
                 components, bundle_degrees, markings, nodes=(), divisor=(),
                 eta=None, J_sqrt_lambda=None):
        self.field = field
        self.vring = vring
        self.W = W
        self.degree_d = int(degree_d)
        self.group_generators = list(group_generators)
        self.J = J
        self.components = list(components)
        self.bundle_degrees = dict(bundle_degrees)
        self.markings = list(markings)
        self.nodes = list(nodes)
        self.divisor = list(divisor)  # (component, point, multiplicity)
        self.eta = dict(eta) if eta else {}
        self.J_sqrt_lambda = J_sqrt_lambda
        self.validate()

    # -- validation -------------------------------------------------------

    def validate(self):
        check_symmetry(self.field, self.vring, self.W, self.degree_d,
                       self.group_generators, self.J)
        for comp in self.components:
            if comp not in self.bundle_degrees:
                raise SpinDataError(f"component {comp} has no bundle degrees")
        # one bundle degree and one rig scalar per V-variable
        n = self.vring.nvars
        for comp, degrees in self.bundle_degrees.items():
            if len(degrees) != n:
                raise _wrong_length(f"bundle {comp}", degrees, n)
        for node in self.nodes:
            for comp, q, rig in (node.branch1, node.branch2):
                if len(rig) != n:
                    raise _wrong_length(f"the rig of node branch {comp} at {q}", rig, n)
        for i, m in enumerate(self.markings, start=1):
            m.broad_indices()  # raises for non-diagonal gamma
            if m.component not in self.components:
                raise SpinDataError(f"marking on unknown component {m.component}")
            if len(m.rig) != n:
                raise _wrong_length(f"the rig of marking {i} ({m.component} at {m.point})",
                                    m.rig, n)
        for (comp, _q, mult) in self.divisor:
            if comp not in self.components:
                raise SpinDataError(f"divisor point on unknown component {comp}")
            if mult < 1:
                raise SpinDataError("divisor multiplicities must be positive")
        # markings and node branches are distinct points, and so are the
        # points of D, which avoid them
        points = {}
        special = [(m.component, m.point) for m in self.markings] + [
            branch[:2] for node in self.nodes for branch in (node.branch1, node.branch2)]
        for (comp, q) in special:
            if q in points.setdefault(comp, []):
                raise SpinDataError(f"the point {q} of {comp} repeats among the "
                                    f"markings and nodes")
            points[comp].append(q)
        on_divisor = {}
        for (comp, q, _mult) in self.divisor:
            if q in points.get(comp, []):
                raise SpinDataError("divisor must avoid markings and nodes")
            if q in on_divisor.setdefault(comp, []):
                raise SpinDataError(f"the divisor point {q} of {comp} repeats: give "
                                    f"it once, with its total multiplicity")
            on_divisor[comp].append(q)
        self._validate_eta()

    def _validate_eta(self):
        """Each eta has simple poles exactly at the markings of its component
        and none at infinity.  Then its residue num(mu)/den'(mu) at each
        marking mu is nonzero: ``RationalFunction`` divides num and den by
        their gcd, so num(mu) = 0 would put (t - mu) in that gcd, den would
        lose its root mu, and the pole check would already have failed."""
        for comp, form in self.eta.items():
            marks = [m.point for m in self.markings if m.component == comp]
            if form is None:
                continue
            if form.den.monic() != _with_roots(self.field, [(mu, 1) for mu in marks]):
                raise SpinDataError(
                    f"eta on {comp} must have simple poles exactly at the markings")
            if form.num.degree() > len(marks) - 2:
                raise SpinDataError(f"eta on {comp} has a pole at infinity")

    # -- sectors ----------------------------------------------------------

    def sectors(self):
        """(marking index, V-coordinate index) for every broad coordinate."""
        out = []
        for i, m in enumerate(self.markings):
            for j in m.broad_indices():
                out.append((i, j))
        return out

    def sector_ring(self):
        names = []
        weights = []
        for (i, j) in self.sectors():
            names.append(f"{self.vring.names[j]}{i + 1}")
            weights.append(self.vring.weights[j])
        return PolyRing(self.field, names, weights)

    def sector_potential(self, ring=None):
        """sum_i W_i, W restricted to V^{gamma_i}, in the sector coordinates:
        the k-th generator of ``ring`` (by default ``sector_ring()``) is the
        coordinate of ``sectors()[k]``.  Generators past the sectors, such as
        the auxiliary coordinates of an output ring, do not occur."""
        ring = ring or self.sector_ring()
        gens = ring.gens()
        images = [[ring.zero] * self.vring.nvars for _ in self.markings]
        for k, (i, j) in enumerate(self.sectors()):
            images[i][j] = gens[k]
        total = ring.zero
        for marking_images in images:
            total = total + self.W.substitute(marking_images)
        return total

    def degD(self, comp):
        return sum(mult for (c, _q, mult) in self.divisor if c == comp)

    def divisor_points(self, comp):
        return [(q, mult) for (c, q, mult) in self.divisor if c == comp]


# -- two-term realization --------------------------------------------------


class TwoTermModel:
    """A = H^0(V(D)) -> B = H^0(V(D)|_D), with the sector evaluation Z.

    ``raw_basis`` lists the ambient basis (component, var, p), the section
    t^p / D(t) of L_var(D) with D = prod (t - q)^mult over the divisor
    points of the component;
    for a nodal curve A is the kernel of the node-matching map, encoded by the
    ``embed`` matrix (columns = A basis in the ambient basis).  Each A-basis
    vector is built from sections of one V-coordinate, ``a_coords[k]``.
    """

    def __init__(self, spec, raw_basis, embed, b_basis, f_matrix, z_matrix):
        self.spec = spec
        self.raw_basis = raw_basis
        self.embed = embed
        self.b_basis = b_basis
        self.f_matrix = f_matrix  # rows = B, cols = A
        self.z_matrix = z_matrix  # rows = sectors, cols = A
        # An A-basis vector has support in one V-coordinate, so its first
        # nonzero row names it: each node-matching row touches the columns of
        # one V-coordinate, Gauss-Jordan combines only rows with a nonzero in
        # a shared column, so every reduced row stays in one coordinate, and
        # the nullspace vector of a free column is nonzero only at that
        # column and at pivots of rows meeting it.
        self.a_coords = [raw_basis[next(r for r, row in enumerate(embed) if row[col])][1]
                         for col in range(self.dim_a)]
        self.a_weights = [spec.vring.weights[j] for j in self.a_coords]
        self.b_weights = [spec.vring.weights[j] for (_c, j, _q, _o) in b_basis]
        self.f_rank = linalg.rank(f_matrix, spec.field)

    @property
    def dim_a(self):
        return len(self.embed[0]) if self.embed and self.embed[0] else 0

    @property
    def dim_b(self):
        return len(self.b_basis)

    def homology(self):
        """(h0, h1) of [A -> B]: (dim A - rank F, dim B - rank F)."""
        return (self.dim_a - self.f_rank, self.dim_b - self.f_rank)

    def z_surjective(self):
        if not self.z_matrix:
            return True
        return linalg.rank(self.z_matrix, self.spec.field) == len(self.z_matrix)

    def z_square_invertible(self):
        return (len(self.z_matrix) == self.dim_a and self.z_surjective())


def _principal_parts(field, poles, q, top):
    """For p = 0..top, the principal part at q of t^p / D(t), D = prod
    (t - r)^m over the (r, m) of ``poles``, (q, mult) one of them: the
    coefficients of (t - q)^-1, ..., (t - q)^-mult.

    Near q, t^p / D = (t - q)^-mult t^p / D_q with D_q = D / (t - q)^mult,
    so they are the Taylor coefficients at q of t^p / D_q of orders mult - 1
    down to 0: those of t^p are column p of one binomial Taylor shift
    (``_taylor``), and one series inverse of D_q(t + q) serves every p."""
    mult = dict(poles)[q]
    d_q = _with_roots(field, [(r - q, m) for r, m in poles if r != q])  # D_q(t + q)
    inverse = _series_inverse(field, d_q.coeffs, mult)
    jets = _taylor(field, q, top, mult)  # jets[a][p]: the (t - q)^a coefficient of t^p
    parts = []
    for p in range(top + 1):
        taylor = [(a, row[p]) for a, row in enumerate(jets) if row[p]]
        parts.append([sum((c * inverse[i - a] for a, c in taylor if a <= i), field.zero)
                      for i in range(mult - 1, -1, -1)])
    return parts


def _node_matching(spec, basis, value):
    """The node-matching map on the sections ``basis`` of (component,
    V-coordinate, p), one row per node and V-coordinate j:
    r2_j s(q2) - lambda^{w_j} r1_j s(q1), with s(q) = value(component, p, q)."""
    field, lam = spec.field, spec.J_sqrt_lambda
    if spec.nodes and lam is None:
        raise SpinDataError("nodal curve requires J_sqrt (lambda with lambda^d = -1)")
    rows = []
    for node in spec.nodes:
        (c1, q1, r1) = node.branch1
        (c2, q2, r2) = node.branch2
        for j in range(spec.vring.nvars):
            tw = lam ** spec.vring.weights[j]
            row = []
            for (comp, var, p) in basis:
                if var != j:
                    row.append(field.zero)
                elif comp == c1:
                    row.append(-tw * r1[j] * value(comp, p, q1))
                elif comp == c2:
                    row.append(r2[j] * value(comp, p, q2))
                else:
                    row.append(field.zero)
            rows.append(row)
    return rows


def two_term_realization(spec):
    field = spec.field
    # the basis of (+)_j H^0(L_j(D)): (comp, j, p) for t^p / D(t), p <= top
    raw = []
    for comp in spec.components:
        for j in range(spec.vring.nvars):
            top = spec.bundle_degrees[comp][j] + spec.degD(comp)
            if top < -1:
                raise SpinDataError(
                    f"divisor not ample enough: H^1(L_{j}(D)) != 0 on {comp}")
            raw.extend((comp, j, p) for p in range(top + 1))
    values = {}  # (comp, q) -> [q^p / D(q) for p = 0, 1, ...], for q off D

    def value(comp, p, q):
        if (comp, q) not in values:
            d = reduce(mul, [(q - r) ** m for r, m in spec.divisor_points(comp)], field.one)
            values[comp, q] = [d.inverse()]
        row = values[comp, q]
        while len(row) <= p:
            row.append(row[-1] * q)
        return row[p]

    rows = _node_matching(spec, raw, value)
    if rows:
        kernel = linalg.nullspace(rows, field)
        if len(raw) - len(kernel) < len(rows):
            raise SpinDataError("divisor not ample enough: node-matching map "
                                "is not surjective, H^1(V(D)) != 0")
        embed = [[kernel[c][r] for c in range(len(kernel))] for r in range(len(raw))]
    else:
        embed = linalg.identity(field, len(raw))
    # B: jets along D, read from the principal parts at each point
    b_basis = []
    f_raw = []
    for comp in spec.components:
        poles = spec.divisor_points(comp)
        top = max((p for (c, _j, p) in raw if c == comp), default=-1)
        for (q, mult) in poles:
            parts = _principal_parts(field, poles, q, top)
            for j in range(spec.vring.nvars):
                for order in range(1, mult + 1):
                    b_basis.append((comp, j, q, order))
                    f_raw.append([parts[p][order - 1] if (c2, j2) == (comp, j)
                                  else field.zero for (c2, j2, p) in raw])
    # without nodes, embed is the identity
    f_matrix = linalg.mat_mul(f_raw, embed, field) if rows and f_raw else f_raw
    # Z: evaluate-then-rigidify at broad coordinates of markings
    z_raw = []
    for (i, j) in spec.sectors():
        m = spec.markings[i]
        z_raw.append([m.rig[j] * value(comp, p, m.point)
                      if comp == m.component and var == j else field.zero
                      for (comp, var, p) in raw])
    z_matrix = linalg.mat_mul(z_raw, embed, field) if rows and z_raw else z_raw
    model = TwoTermModel(spec, raw, embed, b_basis, f_matrix, z_matrix)
    # oracle comparison and surjectivity checks
    oracle = cech_oracle(spec)
    if model.homology() != oracle:
        raise SpinDataError(
            f"two-term model homology {model.homology()} disagrees with the "
            f"Cech oracle {oracle}")
    if not model.z_surjective():
        raise SpinDataError("divisor misses markings: increase D")
    return model


def cech_oracle(spec):
    """(h^0, h^1) of V on the curve, computed independently of the divisor
    model: polynomial sections of each L_j, matched at the nodes of the tree
    (on a curve without nodes, a monomial count)."""
    field = spec.field
    # polynomial model: sections of L_j are polynomials of degree <= a_j
    basis = []
    for comp in spec.components:
        for j, a in enumerate(spec.bundle_degrees[comp]):
            for p in range(a + 1):
                basis.append((comp, j, p))
    rows = _node_matching(spec, basis, lambda _c, p, q: q ** p)
    r = linalg.rank(rows, field)
    h0 = len(basis) - r
    chi = sum(a + 1 for comp in spec.components for a in spec.bundle_degrees[comp])
    chi -= len(spec.nodes) * spec.vring.nvars
    h1 = h0 - chi
    return (h0, h1)


# -- obstruction, homotopy, fundamental MF ---------------------------------


class ObstructionData:
    def __init__(self, u_ring, c, scheme):
        self.u_ring = u_ring       # S(A_dual) coordinates u0, u1, ...
        self.c = c                 # Z^*(sum_i W_i), weight-d even function
        self.scheme = scheme       # dg-scheme presentation in u coordinates


def build_obstruction(spec, model):
    u_ring = PolyRing(spec.field, [f"u{k}" for k in range(model.dim_a)],
                      model.a_weights)
    # c = (sum_i W_i) composed with Z
    sring = spec.sector_ring()
    c = substituter(sring, _linear_forms(model.z_matrix, u_ring),
                    u_ring)(spec.sector_potential(sring))
    # dg-scheme in u coordinates: odd generator per B-basis jet
    odd = [Generator(f"b{k}", w) for k, w in enumerate(model.b_weights)]
    scheme = DgSchemePresentation(u_ring, odd,
                                  _linear_forms(model.f_matrix, u_ring))
    return ObstructionData(u_ring, c, scheme)


def solve_f_minus_one(spec, model, obstruction, pivot_order=None):
    """Exact linear solve for f_{-1} with d(f_{-1}) = -c, in the weight-d
    piece of degree -1.  The pivot order is the determinism knob; any two
    solutions differ by an exact element (gauge)."""
    scheme, minus_c = obstruction.scheme, -obstruction.c
    f = _solve_d_preimage(scheme, scheme.scalar_element(minus_c), degree=-1,
                          weight=spec.degree_d, col_order=pivot_order)
    if f is None:
        raise SpinDataError("spin-structure data violates the residue constraint")
    # f = sum_k f_k b_k has exterior degree 1, so d(f) = sum_k f_k d(b_k)
    alpha = [f.coefficients.get((k,), scheme.ring.zero) for k in range(scheme.n_odd)]
    if not f.is_pure_degree(-1) or koszul_identity_fails(
            scheme.ring, alpha, scheme.differential, minus_c):
        raise CertificateError("solved f_{-1} fails d(f_{-1}) = -c")
    return f


class PipelineResult:
    """The curved dg-scheme ``scheme_out``, curving -``f_out``, curvature
    ``potential``; its folds ``mf`` and ``sector_mf`` are built on first read."""

    def __init__(self, spec, model, scheme_out, f_out, potential, sector_names,
                 extra_names, change_matrix, narrow_concentrated):
        self.spec = spec
        self.model = model
        self.scheme_out = scheme_out  # presentation over the output ring
        self.f_out = f_out            # f_{-1} in output coordinates
        self.potential = potential
        self.sector_names = sector_names
        self.extra_names = extra_names
        self.change_matrix = change_matrix  # y = M u
        self.narrow_concentrated = narrow_concentrated

    @cached_property
    def mf(self):
        return fold_to_mf(CurvedStructure(self.scheme_out, -self.f_out, self.potential))

    def pulled_back(self, images, target):
        """The curved dg-scheme with ``images[v]`` put for coordinate v."""
        sub = substituter(self.scheme_out.ring, images, target)
        scheme = DgSchemePresentation(target, self.scheme_out.odd_gens,
                                      [sub(p) for p in self.scheme_out.differential])
        return dgmf_from_homotopy(scheme, -scheme.element(
            {t: sub(c) for t, c in self.f_out.coefficients.items()}))

    def certificate(self):
        h0, h1 = self.model.homology()
        n = self.scheme_out.n_odd  # folds to rank 2^(n-1) | 2^(n-1), or 1 | 0
        return {
            "field_order": self.spec.field.order,
            "two_term_homology": {"h0": h0, "h1": h1},
            "rank": [2 ** (n - 1)] * 2 if n else [1, 0],
            "potential": str(self.potential),
            "sector_variables": list(self.sector_names),
            "auxiliary_variables": list(self.extra_names),
            "sign_convention": SIGN_CONVENTION,
        }

    @cached_property
    def sector_reduction(self):
        """(steps, sector MF): ``scheme_out`` with curving ``f_out``,
        Koszul-reduced to the sector coordinates by certified steps and
        folded; built on first use.  An auxiliary coordinate without a pivot
        (a nonzero section of V that vanishes at the broad markings) stays in
        its ring: every section of a summand L_j with no broad marking, as in
        ``x^2 + y^2`` with both markings ``gamma diag(1, -1)``."""
        steps = koszul_steps(self.scheme_out, len(self.sector_names))
        scheme, f = koszul_reduce(self.scheme_out, self.f_out, steps)
        return steps, fold_to_mf(
            CurvedStructure(scheme, -f, self.spec.sector_potential(scheme.ring)))

    sector_steps = property(lambda self: self.sector_reduction[0])
    sector_mf = property(lambda self: self.sector_reduction[1])

    def fiber_data(self, point):
        """(h0, h1, verdict) over a sector point, one scalar per sector
        coordinate: the ranks of the sector MF at the point, or its exact
        homology over k[t] along the one auxiliary coordinate it keeps.
        Where W(p) != 0 the fiber is contractible, however many it keeps."""
        if len(point) != len(self.sector_names):
            raise ValueError(f"fiber_data needs one scalar per sector coordinate "
                             f"({len(self.sector_names)}), got {len(point)}")
        mf = self.sector_mf
        kept = mf.ring.names[len(point):]
        if not kept:
            h0, h1 = point_homology(mf, point)
        elif mf.potential.evaluate(list(point) + [0] * len(kept)):
            h0, h1 = 0, 0  # W(p) != 0 is a unit on the whole fiber
        elif len(kept) > 1:
            raise NotImplementedError(f"fiber homology along the auxiliary "
                                      f"coordinates {', '.join(kept)}, which the "
                                      f"Koszul reduction keeps")
        else:
            tring = PolyRing(mf.ring.field, ["t"], [1])
            fiber = mf.restrict_to_line([tring.constant(c) for c in point]
                                        + tring.gens())
            d0, d1 = ([[UPoly.from_poly(c) for c in row] for row in d]
                      for d in (fiber.delta0, fiber.delta1))
            h0, h1 = two_periodic_homology_dims(d0, d1)
        return (h0, h1, CONTRACTIBLE if (h0, h1) == (0, 0) else NONCONTRACTIBLE)


def fundamental_mf(spec, pivot_order=None):
    """The curved dg-scheme of ``spec``, whose fold is the fundamental MF.
    Its ring has one layout, addressed by position everywhere: generator
    k < n_sect = len(spec.sectors()) is the sector coordinate of
    ``spec.sectors()[k]``, and generator n_sect + m is the auxiliary
    coordinate t{m+1}, dual to the unit A-basis vector of the m-th non-pivot
    column of Z."""
    model = two_term_realization(spec)
    obstruction = build_obstruction(spec, model)
    f = solve_f_minus_one(spec, model, obstruction, pivot_order=pivot_order)
    field = spec.field
    sring = spec.sector_ring()
    narrow = not model.z_matrix and model.homology() == (0, 0)
    if narrow:
        # narrow concentrated case: [A -> B] acyclic, pushforward is the unit
        scheme_out = DgSchemePresentation(sring, [], [])
        f_out, extra_names, m_rows = scheme_out.zero_element(), [], []
    else:
        # choose coordinates: sector rows of Z first, then the unit vectors
        # e_k for the k that are not the last nonzero index of any vector in
        # row(Z); those last indices are the pivots of Z's right-to-left
        # echelon form (Z is surjective, as two_term_realization checked)
        _, pivots = linalg.rref(model.z_matrix, field,
                                col_order=range(model.dim_a - 1, -1, -1))
        pivot_cols = {j for _, j in pivots}
        extra_indices = [k for k in range(model.dim_a) if k not in pivot_cols]
        units = linalg.identity(field, model.dim_a)
        m_rows = [list(row) for row in model.z_matrix] + [units[k] for k in extra_indices]
        extra_names = [f"t{i + 1}" for i in range(len(extra_indices))]
        for (_i, j), name in zip(spec.sectors(), sring.names):
            if name in extra_names:
                raise SpinDataError(
                    f"the sector coordinate {name} of V-variable "
                    f"{spec.vring.names[j]!r} clashes with an auxiliary coordinate: "
                    f"auxiliary coordinates are named t1, t2, ...; rename the variable")
        weights = list(sring.weights) + [model.a_weights[k] for k in extra_indices]
        out_ring = PolyRing(field, list(sring.names) + extra_names, weights)
        # u_k = sum_i (M^{-1})[k][i] y_i
        to_out = substituter(obstruction.u_ring,
                             _linear_forms(linalg.invert(m_rows, field), out_ring),
                             out_ring)
        scheme_out = DgSchemePresentation(
            out_ring, obstruction.scheme.odd_gens,
            [to_out(img) for img in obstruction.scheme.differential])
        f_out = scheme_out.element({s: to_out(c) for s, c in f.coefficients.items()})
    # global sign convention: delta = d - f_{-1}, potential = + sum_i W_i.
    # The curving is certified already: the solve checked d(f_{-1}) = -c, and
    # u = M^{-1} y is a ring isomorphism commuting with d that sends
    # c = Z^*(sum_i W_i) to sum_i W_i (the first rows of M are Z); every fold
    # checks delta^2 = W . id again.
    potential = spec.sector_potential(scheme_out.ring)
    return PipelineResult(spec, model, scheme_out, f_out, potential, list(sring.names),
                          extra_names, m_rows, narrow)


# -- equivariance ----------------------------------------------------------


def check_equivariance(spec, result, elements=None):
    """Exact equivariance check on the curved dg-scheme the fundamental MF is
    folded from, ``result.scheme_out`` with curving ``result.f_out``.
    g = diag(g_j) scales an output coordinate of V-coordinate j, and the odd
    generator b_k of a jet of V-coordinate j, by g_j^{-1} (r_k for b_k).  g
    is equivariant exactly when every monomial of each d(b_k) scales by r_k
    and every monomial of each coefficient f_t of f_{-1} by 1 / prod_{k in t}
    r_k.  That is the per-cell test on the folded MF: a free generator e_s
    carries rho(s) = prod_{k in s} r_k, the fold writes +-d(b_k) into the
    cell (s - k <- s) and +-f_t into (t u s <- s), rho is multiplicative so
    s cancels, and every nonzero d(b_k) and f_t fills a cell (s = {k}, {}).

    The output coordinates are addressed by position: y_k for k < len(sectors)
    is the sector ``spec.sectors()[k]``, of its own V-coordinate; the others
    are dual to the unit A-basis vectors of the auxiliary rows of
    ``change_matrix``, of the V-coordinate ``model.a_coords`` records.  Only
    a non-diagonal element is skipped."""
    if result.narrow_concentrated:
        return {"trivial": True, "elements": []}
    elements = elements if elements is not None else [spec.J] + spec.group_generators
    one, model, sectors = spec.field.one, result.model, spec.sectors()
    coords = [j for (_i, j) in sectors] + [
        model.a_coords[next(k for k, c in enumerate(row) if c)]
        for row in result.change_matrix[len(sectors):]]
    odd_coords = [j for (_c, j, _q, _o) in model.b_basis]
    report = []
    for g in elements:
        if not g.is_diagonal():
            report.append({"element": repr(g), "verdict": "skipped: not diagonal"})
            continue
        diag = g.diagonal_entries()
        inv = [diag[j].inverse() for j in coords]
        r = [diag[j].inverse() for j in odd_coords]
        # (polynomial, the scale every one of its monomials must have)
        wanted = [(p, r[k]) for k, p in enumerate(result.scheme_out.differential)]
        wanted += [(c, reduce(mul, (r[k] for k in t), one).inverse())
                   for t, c in result.f_out.coefficients.items()]
        good = all(reduce(mul, (x ** n for x, n in zip(inv, e) if n), one) == scale
                   for p, scale in wanted for e in p.terms)
        report.append({"element": repr(g),
                       "verdict": "equivariant" if good else "broken"})
    return {"trivial": False, "elements": report}


def rigidification_transport_check(spec, result, marking_index, eps):
    """Re-run the pipeline with the rigidification at one marking changed by a
    centralizer element; the output must be the coordinate transport of the
    original, bit-exactly.  Returns True/False.  The curved dg-schemes are
    compared; the fold is a fixed, injective index map in which every nonzero
    d(b_k) and f_t fills a cell, so that is the comparison of the folds."""
    if not 0 <= marking_index < len(spec.markings):
        raise SpinDataError(f"marking index {marking_index} is not one of the "
                            f"{len(spec.markings)} markings")
    if not eps.is_diagonal():
        raise SpinDataError("centralizer transport implemented for diagonal "
                            "elements")
    m = spec.markings[marking_index]
    wit = eps.commutator_witness(m.gamma)
    if wit is not None:
        raise SpinDataError(f"element does not centralize gamma: commutator "
                            f"witness {wit}")
    diag = eps.diagonal_entries()
    new_markings = list(spec.markings)
    new_markings[marking_index] = Marking(m.component, m.point, m.gamma,
                                          [diag[j] * r for j, r in enumerate(m.rig)])
    spec2 = SpinCurveSpec(spec.field, spec.vring, spec.W, spec.degree_d,
                          spec.group_generators, spec.J, spec.components,
                          spec.bundle_degrees, new_markings, spec.nodes,
                          spec.divisor, spec.eta, spec.J_sqrt_lambda)
    result2 = fundamental_mf(spec2)
    # transported original: substitute the changed marking's sector
    # coordinates x -> eps^{-1} x
    ring, new = result.scheme_out.ring, result2.scheme_out
    images = ring.gens()
    for k, (i, j) in enumerate(spec.sectors()):
        if i == marking_index:
            images[k] = diag[j].inverse() * images[k]
    moved = result.pulled_back(images, ring)
    return (moved.scheme.odd_gens, moved.scheme.differential, moved.f_minus_1) == (
        new.odd_gens, new.differential, -result2.f_out)


# -- log forms and residues ------------------------------------------------


class LogFormModel:
    """Two-term models for omega^log(D) and omega(D) on a single P^1 with
    markings, together with the residue map at the markings.

    Forms are written g(t) dt with g rational: poles of order <= 1 at the
    markings (log poles), arbitrary principal parts along D, regular
    elsewhere including infinity.
    """

    def __init__(self, spec):
        if spec.nodes:
            raise SpinDataError("log-form models are per irreducible component")
        comp = spec.components[0]
        field = spec.field
        self.spec = spec
        self.component = comp
        self.field = field
        self.marks = [m.point for m in spec.markings if m.component == comp]
        self.n = len(self.marks)
        self.div_points = spec.divisor_points(comp)
        self.degD = spec.degD(comp)
        self.markden = _with_roots(field, [(mu, 1) for mu in self.marks])
        self.divden = _with_roots(field, self.div_points)
        # omega^log(D): p in a_log stands for t^p dt / (markden divden),
        # numerators of degree <= n + degD - 2
        top_log = self.n + self.degD - 2
        if top_log < -1:
            raise SpinDataError("divisor not ample enough for the log model")
        self.a_log = range(top_log + 1)
        # omega(D): p in a_om stands for t^p dt / divden, degree <= degD - 2
        self.a_om = range(max(self.degD - 1, 0))
        # jets along D, and residues at the markings (simple poles)
        self.b_basis = [(q, o) for (q, mult) in self.div_points
                        for o in range(1, mult + 1)]
        log_poles = [(mu, 1) for mu in self.marks] + self.div_points

        def jets(poles, top):
            return [[part[o] for part in _principal_parts(field, poles, q, top)]
                    for (q, mult) in self.div_points for o in range(mult)]

        self.f_log = jets(log_poles, top_log)
        self.f_om = jets(self.div_points, len(self.a_om) - 1)
        self.res = [[part[0] for part in _principal_parts(field, log_poles, mu, top_log)]
                    for mu in self.marks]
        # inclusion omega(D) -> omega^log(D), dim_log x dim_om: multiply the
        # numerator by markden, so column p holds its coefficients from row p
        m = self.markden.coeffs
        self.incl = [[m[k - p] if 0 <= k - p < len(m) else field.zero
                      for p in self.a_om] for k in self.a_log]

    def _two_term(self, a_dims, f_matrix, prefix):
        base = PolyRing(self.field, [], [])
        objects = {}
        if a_dims:
            objects[0] = [Generator(f"{prefix}{k}", 1) for k in range(a_dims)]
        if self.b_basis:
            objects[1] = [Generator(f"j{k}", 1) for k in range(len(self.b_basis))]
        diffs = {}
        if a_dims and self.b_basis:
            diffs[0] = [[base.constant(c) for c in row] for row in f_matrix]
        return FreeComplex(base, objects, diffs)

    def log_complex(self):
        return self._two_term(len(self.a_log), self.f_log, "w")

    def omega_complex(self):
        return self._two_term(len(self.a_om), self.f_om, "v")

    def pair(self):
        """The pushed pair (sections away from the markings; log forms with
        their residues mapping to the boundary copies)."""
        base = PolyRing(self.field, [], [])
        f_beta = self.log_complex()
        f_alpha = FreeComplex(base, {0: [Generator(f"r{i}", 0)
                                         for i in range(self.n)]} if self.n else {},
                              {})
        comps = {}
        if self.n and len(self.a_log):
            comps[0] = [[base.constant(c) for c in row] for row in self.res]
        phi = ChainMap(f_beta, f_alpha, comps)
        return PairObject(f_alpha, f_beta, phi)

    def random_form(self, rng):
        """A random global section of omega^log(D), as a RationalFunction."""
        num = UPoly(self.field, [self.field.scalar(rng.randint(-5, 5)) for _ in self.a_log])
        return RationalFunction(num, self.markden * self.divden)

    def total_residue(self, form):
        total = self.field.zero
        for mu in self.marks:
            total = total + form.residue(mu)
        for (q, _mult) in self.div_points:
            total = total + form.residue(q)
        return total + form.residue_at_infinity()

    def residue_triangle_report(self):
        """Exactness of 0 -> omega(D) -> omega^log(D) -> O_Sigma -> 0 and the
        identification of the connecting map with summation."""
        field = self.field
        dim_log, dim_om = len(self.a_log), len(self.a_om)
        report = {}
        report["dimensions_exact"] = (dim_log == dim_om + self.n)
        report["inclusion_injective"] = (
            linalg.rank(self.incl, field) == dim_om if dim_om else True)
        comp = linalg.mat_mul(self.res, self.incl, field) if (self.n and dim_om) else []
        report["residue_kills_omega"] = all(not c for row in comp for c in row)
        report["residue_surjective"] = (
            linalg.rank(self.res, field) == self.n if self.n else True)
        # connecting map H^0(O_Sigma) -> H^1(omega(D)-model): lift and reduce
        values = []
        if self.n and self.b_basis:
            # functional on coker(f_om): left kernel of f_om
            lnull = linalg.nullspace(linalg.transpose(self.f_om), field) if dim_om \
                else linalg.identity(field, len(self.b_basis))
            report["coker_omega_dim"] = len(lnull)
            if len(lnull) == 1:
                # ell . F_log . [lifts of the unit vectors through res]
                lifts = [linalg.solve(self.res, e_i, field)
                         for e_i in linalg.identity(field, self.n)]
                values = None if None in lifts else linalg.mat_mul(
                    [lnull[0]], linalg.mat_mul(self.f_log, linalg.transpose(lifts), field),
                    field)[0]
        if values:
            first = values[0]
            report["connecting_is_summation"] = bool(first) and all(
                v == first for v in values)
        else:
            report["connecting_is_summation"] = None
        report["exact"] = (report["dimensions_exact"]
                           and report["inclusion_injective"]
                           and report["residue_kills_omega"]
                           and report["residue_surjective"])
        return report


def residue_structure(spec):
    return LogFormModel(spec)


def check_projection_commutation(logmodel):
    """Both orders of (restrict away from the boundary) and (push to the
    point) for the log-form pair: compare homology ranks and, when they
    agree, exhibit the natural comparison map omega(D) -> Cone(phi)[-1] if it
    is a quasi-isomorphism: the inclusion omega(D) -> omega^log(D) in degree
    0 and the identity on jets in degree 1."""
    omega_cx = logmodel.omega_complex()  # restrict, then push
    rj_cx = rj_shriek(logmodel.pair())   # push, then restrict
    h_a, h_b = homology_ranks(omega_cx), homology_ranks(rj_cx)
    ok = all(h_a.get(n, 0) == h_b.get(n, 0) for n in set(h_a) | set(h_b))
    report = {"rj_then_push": h_a, "push_then_rj": h_b, "quasi_iso": None}
    if not ok:
        return ok, report
    base, nb = omega_cx.ring, len(logmodel.b_basis)
    # degree 1 of Cone(phi)[-1] is the residues r_i, then the jets
    comps = {1: linalg.blocks([[linalg.zeros(base, logmodel.n, nb)],
                               [linalg.identity(base, nb)]])}
    if logmodel.a_om and rj_cx.rank(0):
        comps[0] = [[base.constant(c) for c in row] for row in logmodel.incl]
    try:
        f = ChainMap(omega_cx, rj_cx, comps)
    except NotAChainMap:
        return ok, report
    # the ranks agree, so H(f) is an isomorphism exactly when it has full rank
    if all(induced_homology_map_rank(f, n) == h_a.get(n, 0) for n in (0, 1)):
        report["quasi_iso"] = f
    return ok, report


# -- gluing ----------------------------------------------------------------


def twisted_diagonal_glue(disconnected, glued):
    """Cartesian-square certificate for gluing two marked points into a node,
    plus the pullback of the disconnected curved dg-scheme along the twisted
    diagonal, a CurvedStructure.  Returns a report dict; raises SpinDataError
    on bad input."""
    field = disconnected.field
    lam = glued.J_sqrt_lambda
    if lam is None:
        raise SpinDataError("glued spec must carry J_sqrt")
    d = disconnected.degree_d
    if lam ** d != field.scalar(-1):
        raise SpinDataError("chi(J^{1/2}) != -1: lambda^d must equal -1")
    # identify the new node and the two markings it replaces
    new_nodes = [n for n in glued.nodes if not any(
        n.branch1[:2] == m.branch1[:2] and n.branch2[:2] == m.branch2[:2]
        for m in disconnected.nodes)]
    if len(new_nodes) != 1:
        raise SpinDataError("expected exactly one new node in the glued spec")
    node = new_nodes[0]

    def find_marking(spec, comp, point):
        for i, m in enumerate(spec.markings):
            if m.component == comp and m.point == point:
                return i
        raise SpinDataError(f"the glued node branch or marking ({comp}, {point}) "
                            f"is not a marking of the disconnected spec")

    i1 = find_marking(disconnected, *node.branch1[:2])
    i2 = find_marking(disconnected, *node.branch2[:2])
    m1, m2 = disconnected.markings[i1], disconnected.markings[i2]
    if m1.broad_indices() != m2.broad_indices():
        raise SpinDataError("glued sectors must have matching fixed subspaces")

    result_disc = fundamental_mf(disconnected)
    model_disc = result_disc.model
    model_glued = two_term_realization(glued)
    # both live in the same ambient space (same components and divisor)
    if [b[:2] for b in model_glued.raw_basis] != [b[:2] for b in model_disc.raw_basis]:
        raise SpinDataError("disconnected and glued specs use different section "
                            "models; same components and divisor required")
    sectors = disconnected.sectors()
    vweights = disconnected.vring.weights
    broad = m1.broad_indices()
    rows1 = [k for k, (i, _j) in enumerate(sectors) if i == i1]
    rows2 = [k for k, (i, _j) in enumerate(sectors) if i == i2]
    twists = [lam ** vweights[j] for j in broad]
    # fiber product inside the ambient section space: embed . K, with K the
    # kernel of Z_{i2} - J^{1/2} . Z_{i1}; without a broad coordinate, all of A
    z = model_disc.z_matrix
    mismatch = [[b - tw * a for a, b in zip(z[ka], z[kb])]
                for ka, kb, tw in zip(rows1, rows2, twists)]
    fiber = model_disc.embed
    if mismatch:
        kernel = linalg.transpose(linalg.nullspace(mismatch, field))
        fiber = linalg.mat_mul(fiber, kernel, field)
    # span(glued A) must equal the fiber product
    cartesian, witness = _same_span(model_glued.embed, fiber, field)
    # pull back the disconnected curved dg-scheme along the twisted diagonal:
    # output coordinate k is sectors[k] for k < len(sectors), then auxiliary
    ring_disc = result_disc.scheme_out.ring
    kept = [k for k in range(ring_disc.nvars) if k not in rows1 and k not in rows2]
    target_ring = PolyRing(field,
                           [f"{disconnected.vring.names[j]}n" for j in broad]
                           + [ring_disc.names[k] for k in kept],
                           [vweights[j] for j in broad]
                           + [ring_disc.weights[k] for k in kept])
    gens = target_ring.gens()
    images = [None] * ring_disc.nvars
    for y, k1, k2, tw in zip(gens, rows1, rows2, twists):
        images[k1], images[k2] = y, tw * y
    for y, k in zip(gens[len(broad):], kept):
        images[k] = y
    pulled = result_disc.pulled_back(images, target_ring)
    # the glued potential, embedded into the same ring: each glued sector is
    # matched by component and point to a disconnected one
    position = {sector: k for k, sector in enumerate(sectors)}
    emb_images = []
    for (i, j) in glued.sectors():
        m = glued.markings[i]
        k = position.get((find_marking(disconnected, m.component, m.point), j))
        if k is None:
            raise SpinDataError(f"glued marking ({m.component}, {m.point}) is broad "
                                f"where the disconnected marking is not")
        emb_images.append(images[k])
    glued_sring = glued.sector_ring()
    glued_pot_embedded = substituter(glued_sring, emb_images, target_ring)(
        glued.sector_potential(glued_sring))
    potentials_match = (pulled.curvature == glued_pot_embedded)
    return {
        "cartesian": cartesian,
        "counterexample": witness,
        "pulled_back_scheme": pulled,
        "pulled_back_potential": pulled.curvature,
        "glued_potential": glued_pot_embedded,
        "potentials_match": potentials_match,
    }


def _same_span(a, b, field):
    """Do the columns of two ambient matrices span the same subspace?
    Returns (bool, witness column or None): the first column of b outside
    span(a), else the first column of a outside span(b)."""
    both = [ra + rb for ra, rb in zip(a, b)]
    if linalg.rank(a, field) == linalg.rank(b, field) == linalg.rank(both, field):
        return True, None
    # the ranks differ, so some column lies outside the other span
    for x, y in ((a, b), (b, a)):
        for col in linalg.transpose(y):
            if linalg.solve(x, col, field) is None:
                return False, col
