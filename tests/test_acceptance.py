"""Acceptance gate: nine exact, zero-tolerance criteria for the full stack,
from the curved-algebra core up through the genus-0 pipeline.  Each test
prints a single pass/fail line; everything is exact arithmetic, no epsilons.
"""

import random
import time

from dgmf import (
    CONTRACTIBLE,
    NONCONTRACTIBLE,
    CyclotomicField,
    GroupElement,
    PolyRing,
    check_equivariance,
    check_projection_commutation,
    derived_zero_locus,
    dgmf_from_homotopy,
    fold_to_mf,
    fundamental_mf,
    gauge_intertwiner,
    koszul_mf,
    leibniz_holds,
    mf_tensor,
    point_verdict,
    residue_structure,
    rigidification_transport_check,
    rj_shriek_triangle_exact,
    support_check,
    twisted_diagonal_glue,
    two_term_realization,
    unit_mf,
)
from dgmf.factorizations import SuperElement
from dgmf.specfile import parse_spec
from dgmf.poly import Poly
from test_factorizations import _reference_koszul_mf

F1 = CyclotomicField(1)

BROAD = """[field]
order = 4
[potential]
variables = x:1
W = x^2
d = 2
[group]
generator = diag(-1)
J = diag(-1)
J_sqrt = z
[curve]
component c0
bundle c0 = 0
marking c0 at 1 gamma diag(1) rig 1
marking c0 at -1 gamma diag(1) rig z
divisor c0 at 0 mult 1
eta c0 = (2) / (t^2 + (-1))
"""

NARROW = BROAD.replace("bundle c0 = 0", "bundle c0 = -1").replace(
    "gamma diag(1)", "gamma diag(-1)").replace(
    "rig z", "rig 1").replace("eta c0 = (2) / (t^2 + (-1))\n", "")

DISCONNECTED = """[field]
order = 4
[potential]
variables = x:1
W = x^2
d = 2
[group]
generator = diag(-1)
J = diag(-1)
J_sqrt = z
[curve]
component c0
component c1
bundle c0 = 0
bundle c1 = 0
marking c0 at 1 gamma diag(1) rig 1
marking c0 at -1 gamma diag(1) rig z
marking c1 at 1 gamma diag(1) rig 1
marking c1 at -1 gamma diag(1) rig z
divisor c0 at 0 mult 1
divisor c1 at 0 mult 1
eta c0 = (2) / (t^2 + (-1))
eta c1 = (2) / (t^2 + (-1))
"""

GLUED = """[field]
order = 4
[potential]
variables = x:1
W = x^2
d = 2
[group]
generator = diag(-1)
J = diag(-1)
J_sqrt = z
[curve]
component c0
component c1
bundle c0 = 0
bundle c1 = 0
marking c0 at 1 gamma diag(1) rig 1
marking c1 at -1 gamma diag(1) rig z
node c0 at -1 rig z ~ c1 at 1 rig 1
divisor c0 at 0 mult 1
divisor c1 at 0 mult 1
"""


def _spec(text):
    return parse_spec(text).spin_spec()


def _report(num, label, start, bound):
    elapsed = time.monotonic() - start
    assert elapsed < bound, f"criterion {num} exceeded {bound}s ({elapsed:.1f}s)"
    print(f"criterion {num}: PASS - {label} ({elapsed:.2f}s)")


def _random_poly(rng, ring, weight):
    p = ring.zero
    for exps in ring.monomials_of_weight(weight):
        p = p + rng.randint(-3, 3) * Poly(ring, {tuple(exps): ring.field.one})
    return p


def _random_element(rng, scheme, parity=None):
    elt = scheme.zero_element()
    ring = scheme.ring
    for s in scheme.basis_subsets(parity=parity):
        c = ring.zero
        for name in ring.names:
            c = c + rng.randint(-1, 1) * ring.gen(name)
        c = c + ring.constant(rng.randint(-1, 1))
        term = scheme.scalar_element(c)
        for k in s:
            term = term * scheme.odd_coordinate(k)
        elt = elt + term
    return elt


def _random_pair(rng):
    from dgmf import ChainMap, FreeComplex, PairObject
    from dgmf.complexes import Generator, NotAChainMap
    ring = PolyRing(F1, [], [])

    def cx():
        rows = rng.randint(0, 2)
        cols = rng.randint(1, 2)
        objs = {0: [Generator(f"a{i}", 0) for i in range(cols)]}
        diffs = {}
        if rows:
            objs[1] = [Generator(f"b{i}", 0) for i in range(rows)]
            diffs[0] = [[rng.randint(-2, 2) for _ in range(cols)]
                        for _ in range(rows)]
        return FreeComplex(ring, objs, diffs)

    fa, fb = cx(), cx()
    for _ in range(30):
        comps = {n: [[rng.randint(-2, 2) for _ in range(fb.rank(n))]
                     for _ in range(fa.rank(n))]
                 for n in set(fa.degrees()) | set(fb.degrees())}
        try:
            return PairObject(fa, fb, ChainMap(fb, fa, comps))
        except NotAChainMap:
            continue
    return PairObject(fa, fb)


def test_criterion_1_random_constructions():
    """200 randomized curved constructions: delta^2 = W . id, the Leibniz
    rule, and d^2 = 0, all exact."""
    start = time.monotonic()
    rng = random.Random(2024)
    built = 0
    while built < 200:
        n = rng.randint(1, 3)
        ring = PolyRing(F1, [f"x{i}" for i in range(n)], [1] * n)
        xs = ring.gens()
        beta = xs
        alpha = []
        for i in range(n):
            p = _random_poly(rng, ring, rng.randint(1, 3))
            alpha.append(p if p else xs[i])
        kind = built % 3
        if kind == 0:
            mf = koszul_mf(ring, alpha, beta)
            mf.verify()
        elif kind == 1:
            a = koszul_mf(ring, [alpha[0]], [beta[0]])
            b = koszul_mf(ring, [alpha[-1]], [beta[-1]])
            t = mf_tensor(a, b)
            t.verify()
        else:
            scheme = derived_zero_locus(ring, beta)  # d^2 = 0 by construction
            f = scheme.zero_element()
            for k in range(n):
                f = f + alpha[k] * scheme.odd_coordinate(k)
            curved = dgmf_from_homotopy(scheme, f)
            fold_to_mf(curved).verify()
            phi = _random_element(rng, scheme, parity=rng.randint(0, 1))
            p = _random_element(rng, scheme)
            assert leibniz_holds(curved, phi, p)
        built += 1
    _report(1, "200 randomized constructions verified exactly", start, 10)


def test_criterion_2_fold_equals_koszul():
    """Folding the curved structure sheaf reproduces the Koszul
    factorization bit-for-bit on 20 random instances, and so does
    koszul_mf: both are compared with the Koszul factorization built by
    its own exterior combinatorics, independent of the fold."""
    start = time.monotonic()
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 3)
        ring = PolyRing(F1, [f"x{i}" for i in range(n)], [1] * n)
        xs = ring.gens()
        alpha = []
        for i in range(n):
            p = _random_poly(rng, ring, rng.randint(1, 4))
            alpha.append(p if p else xs[i])
        want = _reference_koszul_mf(ring, alpha, xs)
        scheme = derived_zero_locus(ring, xs)
        f = scheme.zero_element()
        for k in range(n):
            f = f + alpha[k] * scheme.odd_coordinate(k)
        for mf in (koszul_mf(ring, alpha, xs), fold_to_mf(dgmf_from_homotopy(scheme, f))):
            assert mf.p0_gens == want.p0_gens and mf.p1_gens == want.p1_gens
            assert mf.delta0 == want.delta0 and mf.delta1 == want.delta1
            assert mf.potential == want.potential
    _report(2, "fold path reproduces the Koszul path bit-exactly (20 instances)",
            start, 5)


def test_criterion_3_support_of_koszul():
    """{x^{r-1}, x} is contractible exactly away from the origin, with
    verified homotopy certificates at degree bound 4."""
    start = time.monotonic()
    for r in (2, 3, 5):
        ring = PolyRing(F1, ["x"], [1])
        x = ring.gen("x")
        mf = koszul_mf(ring, [x ** (r - 1)], [x])
        assert point_verdict(mf, [F1.zero]) == NONCONTRACTIBLE
        for val in (1, -1, 2, -3, 5):
            report = support_check(mf, [[F1.scalar(val)]], degree_bound=4)
            assert report[0]["verdict"] == CONTRACTIBLE
            assert report[0]["certificate"] is not None
    _report(3, "Koszul support is exactly the origin for r in {2, 3, 5}",
            start, 5)


def test_criterion_4_shriek_triangles_and_projection():
    """The local cohomology triangle is exact on 50 random pair objects, and
    pushing along the projection commutes with the shriek functor for
    1, 2, and 3 markings, with homology ranks {0: 0, 1: 1}."""
    start = time.monotonic()
    rng = random.Random(4)
    for _ in range(50):
        assert rj_shriek_triangle_exact(_random_pair(rng))
    for n in (1, 2, 3):
        pts = {1: ["1"], 2: ["1", "-1"], 3: ["0", "1", "-1"]}[n]
        marks = "\n".join(f"marking c0 at {p} gamma diag(-1) rig 1"
                          for p in pts)
        text = NARROW.replace("bundle c0 = -1", "bundle c0 = 0").replace(
            "marking c0 at 1 gamma diag(-1) rig 1\n"
            "marking c0 at -1 gamma diag(-1) rig 1", marks).replace(
            "divisor c0 at 0 mult 1", "divisor c0 at 2 mult 1")
        lm = residue_structure(_spec(text))
        ok, info = check_projection_commutation(lm)
        assert ok
        hr = info["push_then_rj"]
        assert hr.get(0, 0) == 0 and hr.get(1, 0) == 1
    _report(4, "shriek triangles exact (50 random pairs); projection "
               "commutation for 1-3 markings", start, 10)


def test_criterion_5_residue_theorem_and_triangle():
    """30 random log forms have total residue zero, and the residue triangle
    is exact with connecting map equal to summation."""
    start = time.monotonic()
    lm = residue_structure(_spec(BROAD))
    rng = random.Random(12)
    for _ in range(30):
        assert not lm.total_residue(lm.random_form(rng))
    report = lm.residue_triangle_report()
    assert report["exact"]
    assert report["coker_omega_dim"] == 1
    assert report["connecting_is_summation"]
    _report(5, "total residue vanishes (30 random forms); residue triangle "
               "exact with summation connecting map", start, 5)


def test_criterion_6_fundamental_mf():
    """The pipeline sends the narrow curve to the unit object and the broad
    two-marking curve to a rank-2^{rk B} factorization of x1^2 + x2^2 whose
    support is exactly the origin."""
    start = time.monotonic()
    rn = fundamental_mf(_spec(NARROW))
    assert rn.narrow_concentrated is True
    assert (rn.mf.rank0, rn.mf.rank1) == (1, 0)
    rb = fundamental_mf(_spec(BROAD))
    ring = rb.mf.ring
    x1, x2 = ring.gen("x1"), ring.gen("x2")
    assert rb.mf.potential == x1 * x1 + x2 * x2
    rk_b = rb.model.dim_b
    assert rb.mf.rank0 + rb.mf.rank1 == 2 ** rk_b
    rb.mf.verify()  # delta^2 = (x1^2 + x2^2) . id exactly
    zero = rb.spec.field.zero
    assert point_verdict(rb.mf, [zero, zero]) == NONCONTRACTIBLE
    rng = random.Random(66)
    pts = []
    while len(pts) < 10:
        p = [rb.spec.field.scalar(rng.randint(-9, 9)) for _ in range(2)]
        if any(p) and p not in pts:
            pts.append(p)
    report = support_check(rb.mf, pts, degree_bound=4)
    assert all(e["verdict"] == CONTRACTIBLE for e in report)
    _report(6, "narrow -> unit; broad -> rank-2^{rk B} factorization of "
               "x1^2 + x2^2 supported at the origin", start, 30)


def test_criterion_7_divisor_stability():
    """Enlarging the auxiliary divisor leaves every verdict unchanged,
    including exact fiber homology at five zero-locus points."""
    start = time.monotonic()
    spec_a = _spec(BROAD)
    spec_b = _spec(BROAD.replace(
        "divisor c0 at 0 mult 1",
        "divisor c0 at 0 mult 1\ndivisor c0 at 2 mult 1"))
    ra = fundamental_mf(spec_a)
    rb = fundamental_mf(spec_b)
    F = spec_a.field
    z = F.zeta
    pts = [(F.zero, F.zero), (F.one, z), (F.one, -z),
           (F.scalar(2), F.scalar(2) * z), (F.scalar(-3), F.scalar(3) * z)]
    for p in pts:
        da = ra.fiber_data(list(p))
        db = rb.fiber_data(list(p))
        assert da == db
    assert ra.fiber_data([F.zero, F.zero]) == (1, 1, "noncontractible")
    for p in pts[1:]:
        assert ra.fiber_data(list(p))[2] == "contractible"
    _report(7, "divisor enlargement changes nothing: fiber homology agrees "
               "at 5 zero-locus points", start, 30)


def test_criterion_8_gauge_and_equivariance():
    """Changing the pivot order yields a gauge-equivalent answer with an
    exact intertwiner; the output is equivariant for J and the symmetry
    group; transporting a rigidification by a centralizer element acts by
    the predicted coordinate change, bit-exactly."""
    start = time.monotonic()
    spec = _spec(BROAD)
    r1 = fundamental_mf(spec)
    r2 = fundamental_mf(spec, pivot_order=[1, 0])
    assert r1.mf.potential == r2.mf.potential
    f_b = SuperElement(r1.scheme_out, dict(r2.f_out.coefficients))
    got = gauge_intertwiner(r1.scheme_out, -r1.f_out, -f_b)
    assert got is not None  # exp(-h) intertwiner verified exactly inside
    report = check_equivariance(spec, r1)
    assert report["elements"]
    assert all(e["verdict"] == "equivariant" for e in report["elements"])
    eps = GroupElement.diagonal(spec.vring, [spec.field.scalar(-1)])
    assert rigidification_transport_check(spec, r1, 0, eps)
    assert rigidification_transport_check(spec, r1, 1, eps)
    _report(8, "pivot-order gauge, J-equivariance, and centralizer transport "
               "all verified bit-exactly", start, 20)


def test_criterion_9_gluing():
    """Gluing the cylinder pair along a twisted diagonal: the glued sections
    are exactly the fiber product, and the pulled-back potential equals the
    glued potential."""
    start = time.monotonic()
    report = twisted_diagonal_glue(_spec(DISCONNECTED), _spec(GLUED))
    assert report["cartesian"]
    assert report["counterexample"] is None
    assert report["potentials_match"]
    assert report["pulled_back_potential"] == report["glued_potential"]
    _report(9, "cylinder-pair gluing is cartesian with matching potentials",
            start, 10)
