import json
import random
import re
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul
from types import SimpleNamespace

import pytest

from dgmf import (
    CertificateError,
    CyclotomicField,
    DgSchemePresentation,
    GroupElement,
    MatrixFactorization,
    SpinDataError,
    build_obstruction,
    check_equivariance,
    check_projection_commutation,
    fundamental_mf,
    gauge_intertwiner,
    homology_ranks,
    residue_structure,
    rigidification_transport_check,
    solve_f_minus_one,
    twisted_diagonal_glue,
    two_term_realization,
    two_periodic_homology_dims,
    cech_oracle,
    point_homology,
    support_check,
    UPoly,
)
from dgmf.cli import main
from dgmf.ratfun import RationalFunction
from dgmf import factorizations, linalg, spincurve
from dgmf.poly import Poly, PolyRing, substituter
from dgmf.specfile import SpecParseError, parse_spec, write_mf
from dgmf.factorizations import (SuperElement, _d_system, _solve_d_preimage,
                                 dgmf_from_homotopy, fold_to_mf, koszul_mf, koszul_reduce,
                                 koszul_steps, unit_mf)

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

NARROW = """[field]
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
bundle c0 = -1
marking c0 at 1 gamma diag(-1) rig 1
marking c0 at -1 gamma diag(-1) rig 1
divisor c0 at 0 mult 1
"""

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


# a chain c0 - c1 - c2 of A_1 over Q(i), marked on the two ends: each node
# row has a column on the third component, which it does not meet
CHAIN = """[field]
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
component c2
bundle c0 = 0
bundle c1 = 0
bundle c2 = 0
marking c0 at 1 gamma diag(1) rig 1
marking c2 at -1 gamma diag(1) rig z
node c0 at -1 rig z ~ c1 at 1 rig 1
node c1 at -1 rig z ~ c2 at 1 rig 1
divisor c0 at 0 mult 1
divisor c1 at 0 mult 1
divisor c2 at 0 mult 1
"""


# W = x^3 over Q(zeta_12): J = diag(zeta_3) = diag(z^4)
A2_ZETA12 = """[field]
order = 12
[potential]
variables = x:1
W = x^3
d = 3
[group]
generator = diag(z^4)
J = diag(z^4)
[curve]
component c0
bundle c0 = -1
marking c0 at 1 gamma diag(1) rig 1
marking c0 at -1 gamma diag(1) rig z^3
divisor c0 at 0 mult 2
"""

XY = """[field]
order = 4
[potential]
variables = x:1, y:1
W = x^2 + y^2
d = 2
[group]
generator = diag(-1, -1)
J = diag(-1, -1)
J_sqrt = z
[curve]
component c0
bundle c0 = 0, 0
marking c0 at 1 gamma diag(1, 1) rig 1, 1
marking c0 at -1 gamma diag(1, 1) rig z, z
divisor c0 at -2 mult 2
eta c0 = (2) / (t^2 + (-1))
"""


def _spec(text):
    return parse_spec(text).spin_spec()


def test_two_term_realization_frozen_example():
    spec = _spec(BROAD)
    model = two_term_realization(spec)
    F = spec.field
    z = F.zeta
    assert model.dim_a == 2 and model.dim_b == 1
    assert model.z_matrix == [[F.one, F.one], [-z, z]]
    assert model.homology() == cech_oracle(spec)
    assert model.z_square_invertible()


def test_fundamental_mf_frozen_example():
    spec = _spec(BROAD)
    r = fundamental_mf(spec)
    F = spec.field
    z = F.zeta
    ring = r.mf.ring
    x1, x2 = ring.gen("x1"), ring.gen("x2")
    assert (r.mf.rank0, r.mf.rank1) == (1, 1)
    assert r.mf.potential == x1 * x1 + x2 * x2
    assert r.mf.delta0 == [[2 * x1 + (-2 * z) * x2]]
    half = F.scalar(1) / F.scalar(2)
    assert r.mf.delta1 == [[half * x1 + half * z * x2]]
    r.mf.verify()


def test_certificate_shape():
    r = fundamental_mf(_spec(BROAD))
    cert = r.certificate()
    assert cert["rank"] == [1, 1]
    assert cert["two_term_homology"] == {"h0": 1, "h1": 0}
    assert "sign_convention" in cert


def test_narrow_concentrated_gives_unit():
    r = fundamental_mf(_spec(NARROW))
    assert r.narrow_concentrated is True
    # the empty scheme over the sector ring, whose fold is the unit MF
    assert r.scheme_out.n_odd == 0 and not r.f_out
    unit = unit_mf(r.spec.sector_ring())
    assert r.mf == unit and write_mf(r.mf) == write_mf(unit)
    assert (r.mf.rank0, r.mf.rank1) == (1, 0)
    assert not r.mf.potential
    assert r.sector_mf == unit and r.sector_steps == []


def test_narrow_general_zero_potential():
    r = fundamental_mf(_spec(NARROW.replace("bundle c0 = -1",
                                            "bundle c0 = 0")))
    assert not r.mf.potential
    assert r.sector_names == [] and not r.narrow_concentrated


def test_missing_bundle_degrees_rejected():
    with pytest.raises(SpinDataError, match="bundle"):
        _spec(BROAD.replace("bundle c0 = 0\n", ""))


def test_divisor_on_marking_rejected():
    with pytest.raises(SpinDataError, match="avoid markings"):
        _spec(BROAD.replace("divisor c0 at 0 mult 1",
                            "divisor c0 at 1 mult 1"))


def test_spec_rejects_a_node_at_a_marking():
    with pytest.raises(SpinDataError, match="repeats"):
        _spec(GLUED.replace("node c0 at -1", "node c0 at 1"))


def test_eta_validation():
    with pytest.raises(SpinDataError, match="pole at infinity"):
        _spec(BROAD.replace("(2) / (t^2 + (-1))", "(2*t) / (t^2 + (-1))"))
    with pytest.raises(SpinDataError, match="simple poles"):
        _spec(BROAD.replace("(2) / (t^2 + (-1))", "(2) / (t^2 + (-4))"))


def test_divisor_too_small():
    with pytest.raises(SpinDataError, match="increase D"):
        fundamental_mf(_spec(BROAD.replace("divisor c0 at 0 mult 1\n", "")))


def test_residue_constraint_violation():
    spec = _spec(BROAD)
    model = two_term_realization(spec)
    obs = build_obstruction(spec, model)
    u = obs.u_ring
    # perturb the obstruction class off the image of the differential
    obs.c = obs.c + u.gen("u1") * u.gen("u1")
    with pytest.raises(SpinDataError, match="residue constraint"):
        solve_f_minus_one(spec, model, obs)


def test_divisor_stability():
    """Enlarging D must not change the answer: same potential up to the
    sector coordinates, same fiber homology at zero-locus points."""
    spec_a = _spec(BROAD)
    spec_b = _spec(BROAD.replace("divisor c0 at 0 mult 1",
                                 "divisor c0 at 0 mult 1\ndivisor c0 at 2 mult 1"))
    ra = fundamental_mf(spec_a)
    rb = fundamental_mf(spec_b)
    F = spec_a.field
    z = F.zeta
    pts = [(F.zero, F.zero), (F.one, z), (F.one, -z),
           (F.scalar(2), F.scalar(2) * z), (F.scalar(3), -F.scalar(3) * z)]
    for p in pts:
        assert ra.fiber_data(list(p)) == rb.fiber_data(list(p))
    # origin is the one noncontractible point of this family
    assert ra.fiber_data([F.zero, F.zero]) == (1, 1, "noncontractible")
    assert ra.fiber_data([F.one, z])[2] == "contractible"


def test_fiber_data_rejects_a_point_of_the_wrong_length():
    # one scalar per sector coordinate, without an auxiliary coordinate and
    # with one
    for mult in (1, 2):
        r = fundamental_mf(_spec(BROAD.replace("mult 1", f"mult {mult}")))
        assert len(r.extra_names) == mult - 1
        F = r.spec.field
        assert r.fiber_data([F.zero, F.zero])[2] == "noncontractible"
        for point in ([F.zero], [F.zero] * 3):
            with pytest.raises(ValueError, match="one scalar per sector"):
                r.fiber_data(point)


# -- the sector MF: Koszul reduction of the auxiliary coordinates -----------

# the test and benchmark specs whose output has exactly one auxiliary
# coordinate, where k[t] homology on the unreduced MF is the reference
ONE_AUXILIARY = {
    "a1-m2": BROAD.replace("mult 1", "mult 2"),
    "a1-off-m2": BROAD.replace("divisor c0 at 0 mult 1", "divisor c0 at -2 mult 2"),
    "a1-two-points": BROAD.replace("divisor c0 at 0 mult 1",
                                   "divisor c0 at 0 mult 1\ndivisor c0 at 2 mult 1"),
    "glued": GLUED,
    "a2-zeta12-m3": A2_ZETA12.replace("mult 2", "mult 3"),
    "a2-zeta12-off-m3": A2_ZETA12.replace("divisor c0 at 0 mult 2",
                                          "divisor c0 at 3 mult 3"),
}

DIHEDRAL = (XY.replace("generator = diag(-1, -1)",
                       "generator = diag(-1, 1)\ngenerator = matrix 0, 1; 1, 0")
            .replace("divisor c0 at -2 mult 2", "divisor c0 at 0 mult 2"))


def _line_reference(result, point):
    """(h0, h1) of the unreduced MF along its one auxiliary coordinate."""
    tring = PolyRing(result.spec.field, ["t"], [1])
    fiber = result.mf.restrict_to_line([tring.constant(c) for c in point] + tring.gens())
    if fiber.potential:
        return (0, 0)
    d0, d1 = ([[UPoly.from_poly(c) for c in row] for row in d]
              for d in (fiber.delta0, fiber.delta1))
    return two_periodic_homology_dims(d0, d1)


def _sample_points(field, degree, rng):
    """The origin, zero-locus points lam * (1, u) with u^d = -1, and points
    with random coordinates."""
    step = field.order // (2 * degree)
    roots = [field.zeta ** (step * k) for k in range(1, 2 * degree, 2)]
    value = lambda: field.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
    points = [[field.zero, field.zero]]
    points += [[lam, lam * u] for u in roots for lam in (value(), value())]
    points += [[value(), value() * field.zeta ** rng.randrange(field.order)]
               for _ in range(4)]
    return points


@pytest.mark.parametrize("name", list(ONE_AUXILIARY))
def test_sector_fiber_data_matches_line_homology_of_the_unreduced_mf(name):
    result = fundamental_mf(_spec(ONE_AUXILIARY[name]))
    assert len(result.extra_names) == 1
    assert result.sector_mf.ring.names == tuple(result.sector_names)
    rng = random.Random(f"sector:{name}")
    for point in _sample_points(result.spec.field, result.spec.degree_d, rng):
        h0, h1, _verdict = result.fiber_data(point)
        assert (h0, h1) == _line_reference(result, point), point


def test_sector_mf_of_a1_is_the_mult_1_mf_at_every_multiplicity():
    base = fundamental_mf(_spec(BROAD)).mf
    survivors = []
    for m in range(2, 9):
        result = fundamental_mf(_spec(BROAD.replace("mult 1", f"mult {m}")))
        reduced = result.sector_mf
        assert (reduced.ring, reduced.delta0, reduced.delta1, reduced.potential) == (
            base.ring, base.delta0, base.delta1, base.potential)
        assert len(result.sector_steps) == m - 1
        assert [g.name for g in reduced.p0_gens] == ["1"]
        survivors.append(reduced.p1_gens[0].name)
    assert survivors == ["b0", "b2", "b2", "b4", "b4", "b6", "b6"]


@pytest.mark.parametrize("text,origin", [
    (BROAD.replace("mult 1", "mult 3"), (1, 1, "noncontractible")),
    (BROAD.replace("mult 1", "mult 6"), (1, 1, "noncontractible")),
    (DIHEDRAL, (2, 2, "noncontractible")),
], ids=["a1-m3", "a1-m6", "dihedral"])
def test_fiber_data_answers_with_several_auxiliary_coordinates(text, origin):
    result = fundamental_mf(_spec(text))
    assert len(result.extra_names) >= 2
    F = result.spec.field
    n = len(result.sector_names)
    assert result.fiber_data([F.zero] * n) == origin
    assert result.fiber_data([F.one] + [F.zero] * (n - 1))[2] == "contractible"
    # W vanishes at (1, 0, ..., i, 0, ...), the sector MF is contractible there
    zero_locus = [F.one] + [F.zero] * (n - 1)
    zero_locus[n // 2] = F.zeta
    assert result.fiber_data(zero_locus) == (0, 0, "contractible")


def _reduction_inputs():
    result = fundamental_mf(_spec(BROAD.replace("mult 1", "mult 3")))
    scheme = result.scheme_out
    steps = koszul_steps(scheme, len(result.sector_names))
    assert steps == result.sector_steps and len(steps) == 2
    return scheme, result.f_out, steps


def test_sector_reduction_rejects_a_wrong_coefficient():
    scheme, f, steps = _reduction_inputs()
    (j, k, c), rest = steps[0], steps[1:]
    with pytest.raises(CertificateError, match="coefficient"):
        koszul_reduce(scheme, f, [(j, k, c + c)] + rest)


def test_sector_reduction_rejects_an_image_off_the_hyperplane():
    # each step's coordinate moved to the other step's: t2 is not in d(b_0),
    # so t2 -> t2 - d(b_0)/c does not solve d(b_0) = 0
    scheme, f, steps = _reduction_inputs()
    (j0, k0, c0), (j1, k1, c1) = steps
    with pytest.raises(CertificateError, match="coefficient"):
        koszul_reduce(scheme, f, [(j1, k0, c0), (j0, k1, c1)])


def test_sector_reduction_rejects_a_perturbed_curving(monkeypatch):
    # the fold of the reduced curving certifies delta^2 = W . id against the
    # sector potential, so a curvature that is not W fails on first read
    result = fundamental_mf(_spec(BROAD.replace("mult 1", "mult 3")))
    reduce_exactly = spincurve.koszul_reduce

    def doubled(scheme, f, steps):
        scheme_out, f_out = reduce_exactly(scheme, f, steps)
        t, c = next(iter(f_out.coefficients.items()))
        return scheme_out, scheme_out.element({**f_out.coefficients, t: c + c})

    monkeypatch.setattr(spincurve, "koszul_reduce", doubled)
    with pytest.raises(CertificateError, match="delta\\^2 != W"):
        result.sector_mf


def test_fiber_data_along_auxiliary_coordinates_the_reduction_keeps():
    # graft coordinates t2, t3 that no d(b) involves onto a real output
    result = fundamental_mf(_spec(BROAD.replace("mult 1", "mult 2")))
    old = result.scheme_out
    F = result.spec.field
    for extra in (["t2"], ["t2", "t3"]):
        ring = PolyRing(F, old.ring.names + tuple(extra), old.ring.weights + (1,) * len(extra))
        sub = substituter(old.ring, ring.gens()[:old.ring.nvars], ring)
        graft = fundamental_mf(_spec(BROAD.replace("mult 1", "mult 2")))
        graft.scheme_out = DgSchemePresentation(ring, old.odd_gens,
                                                [sub(p) for p in old.differential])
        graft.f_out = graft.scheme_out.element(
            {s: sub(c) for s, c in result.f_out.coefficients.items()})
        if len(extra) == 2:
            with pytest.raises(NotImplementedError, match="t2, t3"):
                graft.fiber_data([F.zero, F.zero])
            continue
        assert graft.sector_mf.ring.names == ("x1", "x2", "t2")
        # k[t] homology along t2: none off the zero locus, free at the origin
        assert graft.fiber_data([F.one, F.zero]) == (0, 0, "contractible")
        assert graft.fiber_data([F.zero, F.zero]) == (None, None, "noncontractible")


# both markings are broad for x only, so every section of L_y is an auxiliary
# coordinate without a pivot: the reduction keeps 1 + deg L_y of them
KEPT = """[field]
order = 4
[potential]
variables = x:1, y:1
W = x^2 + y^2
d = 2
[group]
generator = diag(-1, -1)
generator = diag(1, -1)
J = diag(-1, -1)
J_sqrt = z
[curve]
component c0
bundle c0 = 0, 0
marking c0 at 1 gamma diag(1, -1) rig 1, 1
marking c0 at -1 gamma diag(1, -1) rig z, z
divisor c0 at 0 mult 1
"""


def test_fiber_data_on_a_valid_spec_whose_reduction_keeps_auxiliary_coordinates():
    result = fundamental_mf(_spec(KEPT))
    F = result.spec.field
    assert result.sector_mf.ring.names == ("x1", "x2", "t2")
    assert result.fiber_data([F.zero, F.zero]) == (None, None, "noncontractible")
    assert result.fiber_data([F.one, F.zeta]) == (0, 0, "contractible")
    result = fundamental_mf(_spec(KEPT.replace("bundle c0 = 0, 0", "bundle c0 = 0, 1")))
    assert result.sector_mf.ring.names == ("x1", "x2", "t2", "t3")
    with pytest.raises(NotImplementedError, match="t2, t3"):
        result.fiber_data([F.zero, F.zero])
    # W(1, 1) = 2: the fiber is contractible, however many coordinates are kept
    assert result.fiber_data([F.one, F.one]) == (0, 0, "contractible")


def test_sector_reduction_keeps_an_auxiliary_coordinate_without_a_pivot():
    # d(b0) = x + 2 t1 removes t1; no d(b) involves t2, so t2 stays
    ring = PolyRing(CyclotomicField(4), ["x", "t1", "t2"], [1, 1, 1])
    x, t1, t2 = ring.gens()
    scheme = DgSchemePresentation(ring, [("b0", 1), ("b1", 1)], [x + 2 * t1, x])
    f = scheme.element({(0,): t2, (1,): t1})
    steps = koszul_steps(scheme, 1)
    assert [(j, k) for j, k, _c in steps] == [(1, 0)]
    reduced, f_red = koszul_reduce(scheme, f, steps)
    assert reduced.ring.names == ("x", "t2")
    rx, rt2 = reduced.ring.gens()
    assert [g.name for g in reduced.odd_gens] == ["b1"] and reduced.differential == [rx]
    # t1 -> -x/2, and the b0 term of f is dropped
    assert 2 * f_red.coefficients[(0,)] == -rx and len(f_red.coefficients) == 1


def test_cech_oracle_on_nodeless_curves_is_the_monomial_count():
    head = XY.split("[curve]")[0] + "[curve]\n"
    rng = random.Random(3)
    for _ in range(40):
        degrees = {f"c{c}": [rng.randint(-3, 3), rng.randint(-3, 3)]
                   for c in range(rng.randint(1, 3))}
        spec = _spec(head + "".join(f"component {c}\n" for c in degrees)
                     + "".join(f"bundle {c} = {a}, {b}\n" for c, (a, b) in degrees.items()))
        h0 = sum(max(a + 1, 0) for ds in degrees.values() for a in ds)
        chi = sum(a + 1 for ds in degrees.values() for a in ds)
        assert cech_oracle(spec) == (h0, h0 - chi)


def test_equivariance_report():
    spec = _spec(BROAD)
    r = fundamental_mf(spec)
    report = check_equivariance(spec, r)
    assert not report["trivial"]
    assert report["elements"]
    assert all(e["verdict"] == "equivariant" for e in report["elements"])


def test_pivot_order_gauge():
    spec = _spec(BROAD)
    r1 = fundamental_mf(spec)
    r2 = fundamental_mf(spec, pivot_order=[1, 0])
    assert r1.mf.potential == r2.mf.potential
    # the two curvings are gauge equivalent; verification is exact inside
    got = gauge_intertwiner(r1.scheme_out, -r1.f_out,
                            -_transplant(r2.f_out, r1.scheme_out))
    assert got is not None


def _transplant(elt, scheme):
    from dgmf.factorizations import SuperElement
    return SuperElement(scheme, dict(elt.coefficients))


def test_rigidification_transport():
    spec = _spec(BROAD)
    r = fundamental_mf(spec)
    F = spec.field
    eps = GroupElement.diagonal(spec.vring, [F.scalar(-1)])
    assert rigidification_transport_check(spec, r, 0, eps)
    assert rigidification_transport_check(spec, r, 1, eps)


def _recording(monkeypatch, rerun=lambda result: result):
    """Make the pipeline's own calls of fundamental_mf (the transport
    check's re-run, the glue's disconnected result) go through ``rerun``, and
    return the list of the results they got."""
    made = []

    def recording(spec, pivot_order=None):
        made.append(rerun(fundamental_mf(spec, pivot_order)))
        return made[-1]

    monkeypatch.setattr(spincurve, "fundamental_mf", recording)
    return made


def test_the_pipeline_readers_build_no_unreduced_fold(monkeypatch):
    made = _recording(monkeypatch)
    spec = _spec(BROAD.replace("mult 1", "mult 3"))
    r = fundamental_mf(spec)
    F = spec.field
    r.certificate()
    check_equivariance(spec, r)
    assert rigidification_transport_check(spec, r, 1, GroupElement.diagonal(spec.vring, [-F.one]))
    assert r.fiber_data([F.zero, F.zero]) == (1, 1, "noncontractible")
    assert twisted_diagonal_glue(_spec(DISCONNECTED), _spec(GLUED))["potentials_match"]
    assert len(made) == 2
    assert all("mf" not in vars(result) for result in [r] + made)
    # the fold is built on first read, and kept
    mf = r.mf
    assert "mf" in vars(r) and r.mf is mf and (mf.rank0, mf.rank1) == (4, 4)


CERTIFIED = {
    "a1-m1": BROAD,
    "a1-m3": BROAD.replace("mult 1", "mult 3"),
    "a1-m6": BROAD.replace("mult 1", "mult 6"),
    "a1-off-m2": ONE_AUXILIARY["a1-off-m2"],
    "xy": XY,
    "a2-zeta12": A2_ZETA12,
    "dihedral": DIHEDRAL,
    "kept": KEPT,
    "narrow": NARROW,
    "narrow-general": NARROW.replace("bundle c0 = -1", "bundle c0 = 0"),
}


@pytest.mark.parametrize("name", list(CERTIFIED))
def test_certificate_equals_its_value_from_the_fold(name):
    r = fundamental_mf(_spec(CERTIFIED[name]))
    cert = r.certificate()
    assert "mf" not in vars(r)
    assert cert == dict(cert, rank=[r.mf.rank0, r.mf.rank1], potential=str(r.mf.potential))


def _mf_transport(spec, result, rerun, marking_index, eps):
    """The reference: the folded MF of ``result``, transported, against the
    folded MF of the re-run."""
    diag = eps.diagonal_entries()
    ring = result.mf.ring
    images = ring.gens()
    for k, (i, j) in enumerate(spec.sectors()):
        if i == marking_index:
            images[k] = diag[j].inverse() * images[k]
    sub = substituter(ring, images, ring)
    return (linalg.entrywise(sub, result.mf.delta0, result.mf.delta1)
            == [rerun.mf.delta0, rerun.mf.delta1]
            and sub(result.mf.potential) == rerun.mf.potential)


@pytest.mark.parametrize("name", ["a1-m1", "a1-m3", "xy", "a2-zeta12", "dihedral", "narrow"])
def test_transport_check_matches_the_mf_comparison(monkeypatch, name):
    spec = _spec(CERTIFIED[name])
    r = fundamental_mf(spec)
    made = _recording(monkeypatch)
    F = spec.field
    verdicts = []
    for eps in ([-F.one] * spec.vring.nvars, [F.zeta_power(k + 1) for k in range(spec.vring.nvars)]):
        eps = GroupElement.diagonal(spec.vring, eps)
        for i in range(len(spec.markings)):
            try:
                got = rigidification_transport_check(spec, r, i, eps)
            except SpinDataError:
                continue  # the re-run's spin data are inconsistent
            assert got == _mf_transport(spec, r, made[-1], i, eps)
            verdicts.append(got)
    # x -> -x fixes x^2 but not x^3
    assert verdicts and all(verdicts) == (name != "a2-zeta12")


def _perturbed(k, what):
    """The re-run with d(b_k), or the coefficient f_{(k,)} of the curving,
    doubled, and its curvature computed again."""
    def rerun(result):
        old = result.scheme_out
        images = list(old.differential)
        coefficients = dict(result.f_out.coefficients)
        if what == "d":
            images[k] = 2 * images[k]
        else:
            coefficients[(k,)] = 2 * coefficients[(k,)]
        result.scheme_out = DgSchemePresentation(old.ring, old.odd_gens, images)
        result.f_out = result.scheme_out.element(coefficients)
        result.potential = dgmf_from_homotopy(result.scheme_out, -result.f_out).curvature
        return result
    return rerun


@pytest.mark.parametrize("what", ["d", "f"])
def test_transport_check_rejects_a_rerun_with_one_perturbed_term(monkeypatch, what):
    spec = _spec(BROAD.replace("mult 1", "mult 3"))
    r = fundamental_mf(spec)
    eps = GroupElement.diagonal(spec.vring, [-spec.field.one])
    assert rigidification_transport_check(spec, r, 0, eps)
    perturbed = [k for k in range(r.scheme_out.n_odd)
                 if (r.scheme_out.differential[k] if what == "d" else (k,) in r.f_out.coefficients)]
    assert len(perturbed) >= 2
    for k in perturbed:
        made = _recording(monkeypatch, _perturbed(k, what))
        assert not rigidification_transport_check(spec, r, 0, eps)
        assert not _mf_transport(spec, r, made[-1], 0, eps)


@pytest.mark.parametrize("index", [-1, -2, 2, 5])
def test_transport_check_rejects_a_marking_index_outside_the_markings(index):
    spec = _spec(BROAD)
    eps = GroupElement.diagonal(spec.vring, [-spec.field.one])
    with pytest.raises(SpinDataError, match="marking index"):
        rigidification_transport_check(spec, fundamental_mf(spec), index, eps)


# divisor multiplicity 1 (omega(D) = 0) and 2-4 (omega(D) != 0, so the
# degree-0 inclusion omega(D) -> omega^log(D) enters the comparison map), at
# the origin and off it
RESIDUE_DIVISORS = [f"divisor c0 at {q} mult {m}" for q in (0, 2) for m in (1, 2, 3, 4)]


def test_residue_structure_and_triangle():
    rng = random.Random(77)
    for divisor in RESIDUE_DIVISORS:
        lm = residue_structure(_spec(BROAD.replace("divisor c0 at 0 mult 1", divisor)))
        assert len(lm.a_om) == int(divisor[-1]) - 1
        for _ in range(10):
            form = lm.random_form(rng)
            assert not lm.total_residue(form)
        report = lm.residue_triangle_report()
        assert report["inclusion_injective"]
        assert report["residue_kills_omega"]
        assert report["connecting_is_summation"]
        assert report["exact"] and report["coker_omega_dim"] == 1


def test_projection_commutation():
    for divisor in RESIDUE_DIVISORS:
        lm = residue_structure(_spec(BROAD.replace("divisor c0 at 0 mult 1", divisor)))
        ok, info = check_projection_commutation(lm)
        assert ok and info["push_then_rj"] == {0: 0, 1: 1}
        # a quasi-isomorphism omega(D) -> Cone(phi)[-1], with the inclusion in
        # degree 0 once omega(D) != 0
        f = info["quasi_iso"]
        assert f is not None and (0 in f.components) == bool(lm.a_om)


def test_twisted_diagonal_glue():
    report = twisted_diagonal_glue(_spec(DISCONNECTED), _spec(GLUED))
    assert report["cartesian"]
    assert report["counterexample"] is None
    assert report["potentials_match"]
    assert report["pulled_back_potential"] == report["glued_potential"]


def test_glue_rejects_wrong_lambda():
    bad = GLUED.replace("J_sqrt = z", "J_sqrt = 1")
    with pytest.raises(SpinDataError, match="lambda"):
        twisted_diagonal_glue(_spec(DISCONNECTED.replace("J_sqrt = z",
                                                         "J_sqrt = 1")),
                              _spec(bad))


def test_glue_rejects_a_glued_sector_the_disconnected_marking_lacks():
    # the marking (c1, -1) is narrow before gluing and broad after
    disc = DISCONNECTED.replace("marking c1 at -1 gamma diag(1)",
                                "marking c1 at -1 gamma diag(-1)")
    with pytest.raises(SpinDataError, match="broad where the disconnected"):
        twisted_diagonal_glue(_spec(disc.replace("bundle c1 = 0", "bundle c1 = -1")),
                              _spec(GLUED.replace("bundle c1 = 0", "bundle c1 = -1")))


def test_solve_f_minus_one_rejects_a_wrong_solution(wrong_solve):
    spec = _spec(BROAD)
    model = two_term_realization(spec)
    obstruction = build_obstruction(spec, model)
    with pytest.raises(CertificateError, match=r"fails d\(f_\{-1\}\) = -c"):
        solve_f_minus_one(spec, model, obstruction)


def test_solve_f_minus_one_checks_one_1xn_product_and_rejects_a_wrong_solve(
        monkeypatch, request):
    """d(f_{-1}) = -c is checked as sum_k f_k d(b_k) = -c, one 1 x n by
    n x 1 ``first_mismatch``, with no derivation of a SuperElement; after a
    wrong solve (``wrong_solve``) the same one check fails."""
    spec = _spec(BROAD.replace("mult 1", "mult 4"))
    model = two_term_realization(spec)
    obstruction = build_obstruction(spec, model)
    n = obstruction.scheme.n_odd
    calls = []
    first_mismatch = linalg.first_mismatch

    def counting(products, target, field):
        calls.append([(len(a), len(b), len(b[0])) for a, b in products])
        return first_mismatch(products, target, field)

    monkeypatch.setattr(linalg, "first_mismatch", counting)
    monkeypatch.setattr(factorizations.DgSchemePresentation, "d",
                        lambda *args: pytest.fail("d(f_{-1}) derived"))
    f = solve_f_minus_one(spec, model, obstruction)
    assert n == 4 and calls == [[(1, n, 1)]] and f.is_pure_degree(-1)
    request.getfixturevalue("wrong_solve")
    calls.clear()
    with pytest.raises(CertificateError, match=r"fails d\(f_\{-1\}\) = -c"):
        solve_f_minus_one(spec, model, obstruction)
    assert calls == [[(1, n, 1)]]


@pytest.mark.parametrize("text", [BROAD, A2_ZETA12], ids=["a1-zeta4", "a2-zeta12"])
def test_equivariance_verdicts_follow_the_character(text):
    """diag(zeta^k) preserves sum_i W_i of degree d exactly when
    zeta^(kd) = 1; every other k must be reported broken."""
    spec = _spec(text)
    r = fundamental_mf(spec)
    F = spec.field
    elements = [GroupElement.diagonal(spec.vring, [F.zeta_power(k)])
                for k in range(F.order)]
    report = check_equivariance(spec, r, elements=elements)
    verdicts = [e["verdict"] for e in report["elements"]]
    assert verdicts == ["equivariant" if F.zeta_power(k * spec.degree_d) == F.one
                        else "broken" for k in range(F.order)]
    assert "broken" in verdicts


def test_fundamental_reports_the_dihedral_swap_as_skipped(tmp_path):
    """``dgmf fundamental`` on the dihedral spec: the two diagonal
    generators are checked, the coordinate swap is not diagonal and is
    reported skipped."""
    spec_file, out = tmp_path / "dihedral.txt", tmp_path / "out.txt"
    spec_file.write_text(DIHEDRAL)
    assert main(["fundamental", "--input", str(spec_file), "--output", str(out)]) == 0
    cert = json.loads(out.read_text().split("[certificate]\n", 1)[1])
    assert cert["equivariance"] == {"trivial": False, "elements": [
        {"element": "GroupElement([-1, 0; 0, -1], order=2)", "verdict": "equivariant"},
        {"element": "GroupElement([-1, 0; 0, 1], order=2)", "verdict": "equivariant"},
        {"element": "GroupElement([0, 1; 1, 0], order=2)",
         "verdict": "skipped: not diagonal"}]}


def test_equivariance_of_a_narrow_concentrated_spec_is_trivial():
    """Its fundamental MF is the unit MF: no element is checked."""
    spec = _spec(NARROW)
    assert check_equivariance(spec, fundamental_mf(spec)) == {"trivial": True, "elements": []}


def _greedy_complement(z_matrix, field, dim):
    """Reference: append e_0, e_1, ... to the rows of Z whenever the rank
    grows, until the rows form a basis."""
    rows, extra = [list(row) for row in z_matrix], []
    for k in range(dim):
        trial = rows + [[field.one if j == k else field.zero for j in range(dim)]]
        if linalg.rank(trial, field) == len(trial):
            rows, extra = trial, extra + [k]
        if len(rows) == dim:
            break
    return rows, extra


@pytest.mark.parametrize("text", [
    BROAD.replace("divisor c0 at 0 mult 1", "divisor c0 at 2 mult 3"),
    BROAD.replace("divisor c0 at 0 mult 1", "divisor c0 at 0 mult 4"),
    BROAD.replace("divisor c0 at 0 mult 1",
                  "divisor c0 at 0 mult 1\ndivisor c0 at -2 mult 2"),
    XY,
    XY.replace("gamma diag(1, 1) rig z, z", "gamma diag(1, -1) rig z, z")
      .replace("bundle c0 = 0, 0", "bundle c0 = 0, -1"),
    A2_ZETA12.replace("divisor c0 at 0 mult 2", "divisor c0 at 3 mult 3"),
], ids=["a1-off-m3", "a1-m4", "a1-two-points", "xy-off-m2", "xy-mixed-sectors",
        "a2-zeta12-off-m3"])
def test_complement_matches_the_greedy_choice(text):
    spec = _spec(text)
    r = fundamental_mf(spec)
    rows, extra = _greedy_complement(r.model.z_matrix, spec.field, r.model.dim_a)
    assert extra
    assert r.change_matrix == rows
    assert r.extra_names == [f"t{i + 1}" for i in range(len(extra))]
    n_sect = len(r.sector_names)
    assert list(r.mf.ring.weights[n_sect:]) == [r.model.a_weights[k] for k in extra]
    # each A-basis vector is built from sections of its one V-coordinate
    model = r.model
    for k, j in enumerate(model.a_coords):
        assert {var for (_c, var, _fn), row in zip(model.raw_basis, model.embed)
                if row[k]} == {j}


@pytest.mark.parametrize("order", [1, 4, 7])
def test_right_to_left_pivots_are_the_greedy_complement(order):
    F = CyclotomicField(order)
    rng = random.Random(order)
    values = [F.zero] * 3 + [F.scalar(v) for v in (1, -1, 2)] + [
        F.one + F.zeta_power(k) for k in range(1, order)]
    checked = 0
    while checked < 60:
        dim = rng.randint(1, 6)
        z = [[rng.choice(values) for _ in range(dim)]
             for _ in range(rng.randint(0, dim))]
        if z and linalg.rank(z, F) < len(z):
            continue
        _, pivots = linalg.rref(z, F, col_order=range(dim - 1, -1, -1))
        pivot_cols = {j for _, j in pivots}
        assert [k for k in range(dim) if k not in pivot_cols] == \
            _greedy_complement(z, F, dim)[1]
        checked += 1


def test_rank_64_fundamental_mf_is_certified():
    # the size knob: A_1 with the divisor at 0 of mult m has rank 2^(m-1)
    mf = fundamental_mf(_spec(BROAD.replace("divisor c0 at 0 mult 1",
                                            "divisor c0 at 0 mult 7"))).mf
    assert (mf.rank0, mf.rank1) == (64, 64)
    assert mf.verify()
    # adding x to delta0[r][c] changes column c of delta1 . delta0 by
    # delta1[i][r] * x: the first failing entry is (first i with
    # delta1[i][r] != 0, c)
    for r, c in ((0, 0), (5, 17), (63, 40)):
        delta0 = [list(row) for row in mf.delta0]
        delta0[r][c] = delta0[r][c] + mf.ring.gens()[0]
        i = next(i for i, row in enumerate(mf.delta1) if row[r])
        with pytest.raises(CertificateError, match=rf"at entry \({i},{c}\):"):
            MatrixFactorization(mf.ring, mf.p0_gens, mf.p1_gens, delta0,
                                mf.delta1, mf.potential)


# -- gluing: differential test against the name-keyed implementation --------


def _reference_glue(disconnected, glued):
    """twisted_diagonal_glue as it was written before the output layout was
    addressed by position: coordinates found by formatting and looking up
    their names, spans compared as lists of ambient columns."""
    field = disconnected.field
    lam = glued.J_sqrt_lambda
    new_nodes = [n for n in glued.nodes if not any(
        n.branch1[:2] == m.branch1[:2] and n.branch2[:2] == m.branch2[:2]
        for m in disconnected.nodes)]
    node = new_nodes[0]

    def find_marking(spec, comp, point):
        return next(i for i, m in enumerate(spec.markings)
                    if m.component == comp and m.point == point)

    i1 = find_marking(disconnected, *node.branch1[:2])
    i2 = find_marking(disconnected, *node.branch2[:2])
    m1 = disconnected.markings[i1]
    result_disc = fundamental_mf(disconnected)
    model_disc = result_disc.model
    model_glued = two_term_realization(glued)
    sectors = disconnected.sectors()
    rows1 = [r for r, (i, _j) in enumerate(sectors) if i == i1]
    rows2 = [r for r, (i, _j) in enumerate(sectors) if i == i2]
    mismatch = []
    for (ra, rb) in zip(rows1, rows2):
        tw = lam ** disconnected.vring.weights[sectors[ra][1]]
        mismatch.append([model_disc.z_matrix[rb][k] - tw * model_disc.z_matrix[ra][k]
                         for k in range(model_disc.dim_a)])
    fiber_kernel = linalg.nullspace(mismatch, field) if mismatch else \
        linalg.identity(field, model_disc.dim_a)
    glued_cols = [[model_glued.embed[r][c] for r in range(len(model_glued.raw_basis))]
                  for c in range(model_glued.dim_a)]
    disc_embed_cols = [[model_disc.embed[r][c] for r in range(len(model_disc.raw_basis))]
                       for c in range(model_disc.dim_a)]
    fiber_cols = []
    for vec in fiber_kernel:
        amb = [field.zero] * len(model_disc.raw_basis)
        for c, coeff in enumerate(vec):
            if coeff:
                for r in range(len(amb)):
                    amb[r] = amb[r] + coeff * disc_embed_cols[c][r]
        fiber_cols.append(amb)
    cartesian, witness = _reference_same_span(glued_cols, fiber_cols, field)
    ring_disc = result_disc.mf.ring
    vnames = disconnected.vring.names
    vweights = disconnected.vring.weights
    broad = m1.broad_indices()
    glue_names = [f"{vnames[j]}n" for j in broad]
    rem_names = [n for n in ring_disc.names
                 if n not in {f"{vnames[j]}{i1 + 1}" for j in broad}
                 and n not in {f"{vnames[j]}{i2 + 1}" for j in broad}]
    target_ring = PolyRing(field, glue_names + rem_names,
                           [vweights[j] for j in broad]
                           + [ring_disc.weights[ring_disc.names.index(n)]
                              for n in rem_names])
    images = []
    for name in ring_disc.names:
        matched = False
        for pos, j in enumerate(broad):
            if name == f"{vnames[j]}{i1 + 1}":
                images.append(target_ring.gen(glue_names[pos]))
                matched = True
            elif name == f"{vnames[j]}{i2 + 1}":
                images.append(lam ** vweights[j] * target_ring.gen(glue_names[pos]))
                matched = True
        if not matched:
            images.append(target_ring.gen(name))
    pulled = result_disc.mf._mapped(target_ring,
                                    substituter(ring_disc, images, target_ring))
    glued_sring = glued.sector_ring()
    emb_images = []
    for (i, j) in glued.sectors():
        m = glued.markings[i]
        src = find_marking(disconnected, m.component, m.point)
        emb_images.append(target_ring.gen(f"{vnames[j]}{src + 1}"))
    glued_pot = substituter(glued_sring, emb_images,
                            target_ring)(glued.sector_potential(glued_sring))
    return {"cartesian": cartesian, "counterexample": witness,
            "pulled_back_mf": pulled, "pulled_back_potential": pulled.potential,
            "glued_potential": glued_pot,
            "potentials_match": pulled.potential == glued_pot}


def _reference_same_span(cols_a, cols_b, field):
    if not cols_a and not cols_b:
        return True, None
    dim = len(cols_a[0]) if cols_a else len(cols_b[0])
    mat_a = [[col[r] for col in cols_a] for r in range(dim)]
    mat_b = [[col[r] for col in cols_b] for r in range(dim)]
    ra = linalg.rank(mat_a, field) if cols_a else 0
    rb = linalg.rank(mat_b, field) if cols_b else 0
    rboth = linalg.rank([[col[r] for col in cols_a + cols_b] for r in range(dim)], field)
    if ra == rb == rboth:
        return True, None
    for col in cols_b:
        if linalg.solve(mat_a, col, field) is None:
            return False, col
    for col in cols_a:
        if linalg.solve(mat_b, col, field) is None:
            return False, col
    return False, None


def _mult(text, m):
    return text.replace("at 0 mult 1", f"at 0 mult {m}")


def _narrow_pair(text):
    return text.replace("= 0\n", "= -1\n").replace("gamma diag(1)", "gamma diag(-1)")


def _xy_pair(text):
    return (text.replace("variables = x:1\nW = x^2", "variables = x:1, y:1\nW = x^2 + y^2")
            .replace("diag(-1)", "diag(-1, -1)").replace("diag(1)", "diag(1, 1)")
            .replace("= 0\n", "= 0, 0\n").replace("rig 1\n", "rig 1, 1\n")
            .replace("rig z\n", "rig z, z\n").replace("rig z ~", "rig z, z ~"))


GLUE_PAIRS = {
    "mult1": (DISCONNECTED, GLUED),
    "mult2": (_mult(DISCONNECTED, 2), _mult(GLUED, 2)),
    "mult3": (_mult(DISCONNECTED, 3), _mult(GLUED, 3)),
    "narrow": (_narrow_pair(DISCONNECTED), _narrow_pair(GLUED)),
    "xy": (_xy_pair(DISCONNECTED), _xy_pair(GLUED)),
}


@pytest.mark.parametrize("name", list(GLUE_PAIRS))
def test_glue_matches_the_name_keyed_reference(name):
    disc, glued = (_spec(t) for t in GLUE_PAIRS[name])
    got = twisted_diagonal_glue(disc, glued)
    want = _reference_glue(disc, glued)
    for key in ("cartesian", "counterexample", "pulled_back_potential",
                "glued_potential", "potentials_match"):
        assert got[key] == want[key], key
    assert str(got["pulled_back_potential"]) == str(want["pulled_back_potential"])
    assert str(got["glued_potential"]) == str(want["glued_potential"])
    # the fold of the pulled-back curved dg-scheme is the pulled-back MF
    mf = fold_to_mf(got["pulled_back_scheme"])
    assert mf == want["pulled_back_mf"]
    assert got["pulled_back_scheme"].curvature == mf.potential
    if name == "narrow":
        assert not got["cartesian"] and got["counterexample"] == [disc.field.one, disc.field.zero]
    if name == "xy":
        assert got["cartesian"] and (mf.rank0, mf.rank1) == (8, 8)


def _reference_equivariance(spec, result, elements):
    """The per-term verdicts: every monomial of every cell is compared on its
    own, rho_src[j] == rho_tgt[i] * prod_k s_k^{-e_k}."""
    field, model, mf = spec.field, result.model, result.mf
    sectors = spec.sectors()
    coords = [j for (_i, j) in sectors] + [
        model.a_coords[next(k for k, c in enumerate(row) if c)]
        for row in result.change_matrix[len(sectors):]]
    odd_coords = [j for (_c, j, _q, _o) in model.b_basis]
    verdicts = []
    for g in elements:
        diag = g.diagonal_entries()
        inv = [diag[j].inverse() for j in coords]
        odd_inv = [diag[j].inverse() for j in odd_coords]
        rho = [[reduce(mul, (odd_inv[k] for k in s), field.one)
                for s in result.scheme_out.basis_subsets(parity)] for parity in (0, 1)]
        good = all(rho[src][j] == rho[tgt][i] * reduce(
                       mul, (x ** n for x, n in zip(inv, e) if n), field.one)
                   for mat, src, tgt in ((mf.delta0, 0, 1), (mf.delta1, 1, 0))
                   for i, row in enumerate(mat) for j, c in enumerate(row)
                   for e in c.terms)
        verdicts.append("equivariant" if good else "broken")
    return verdicts


@pytest.mark.parametrize("text", [BROAD.replace("mult 1", "mult 3"),
                                  A2_ZETA12.replace("mult 2", "mult 3"), XY, DIHEDRAL],
                         ids=["a1-mult3", "a2-zeta12", "xy", "dihedral"])
def test_equivariance_matches_the_per_term_reference_on_folded_schemes(text):
    """The check on the curved dg-scheme gives the verdicts of the per-term
    reference on its fold: for the pipeline's scheme, for the gauge change
    f + d(y b_0 b_1) (same curvature), and, with two V-coordinates, for the
    scheme with the d(b)'s of two jets of different V-coordinates swapped."""
    spec = _spec(text)
    r = fundamental_mf(spec)
    F = spec.field
    n = spec.vring.nvars
    elements = [GroupElement.diagonal(spec.vring, [F.zeta_power(k * (v + 1)) for v in range(n)])
                for k in range(F.order)]
    elements += [GroupElement.diagonal(spec.vring, [F.zeta_power(k * v) for v in range(n)])
                 for k in range(F.order)]
    scheme, f = r.scheme_out, r.f_out
    gauge = f + scheme.d(scheme.element({(0, 1): scheme.ring.gens()[-1]}))
    assert gauge != f and scheme.d(gauge) == scheme.d(f)
    inputs = [(scheme, f), (scheme, gauge)]
    if n > 1:
        coords = [j for (_c, j, _q, _o) in r.model.b_basis]
        k = coords.index(1 - coords[0])
        images = list(scheme.differential)
        images[0], images[k] = images[k], images[0]
        assert images[0] != images[k]
        swapped = DgSchemePresentation(scheme.ring, scheme.odd_gens, images)
        inputs.append((swapped, swapped.element(f.coefficients)))
    for scheme_in, f_in in inputs:
        folded = SimpleNamespace(scheme_out=scheme_in, f_out=f_in, model=r.model,
                                 change_matrix=r.change_matrix, narrow_concentrated=False,
                                 mf=fold_to_mf(dgmf_from_homotopy(scheme_in, -f_in)))
        got = [e["verdict"] for e in check_equivariance(spec, folded, elements)["elements"]]
        assert got == _reference_equivariance(spec, folded, elements)
        assert {"equivariant", "broken"} <= set(got)


# -- closed forms of the sections t^p / D(t) --------------------------------

A2_ZETA6 = A2_ZETA12.replace("order = 12", "order = 6").replace("z^4", "z^2").replace(
    "rig z^3", "rig 1")

# one to three divisor points per component, multiplicities 1-6, off-origin
# points, Q(i), Q(zeta_6), Q(zeta_12) and the nodal glue specs
SECTION_SPECS = {
    "a1-m1": BROAD,
    "a1-m6": BROAD.replace("mult 1", "mult 6"),
    "a1-off-m4": BROAD.replace("divisor c0 at 0 mult 1", "divisor c0 at -2 mult 4"),
    "a1-three-points": BROAD.replace("divisor c0 at 0 mult 1",
                                     "divisor c0 at 0 mult 2\ndivisor c0 at 2 mult 3\n"
                                     "divisor c0 at (1+z) mult 1"),
    "xy-off-m2": XY,
    "kept": KEPT,
    "a2-zeta6-m4": A2_ZETA6.replace("mult 2", "mult 4"),
    "a2-zeta6-two-points": A2_ZETA6.replace("divisor c0 at 0 mult 2",
                                            "divisor c0 at z mult 2\ndivisor c0 at 3 mult 1"),
    "a2-zeta12-m2": A2_ZETA12,
    "a2-zeta12-three-points": A2_ZETA12.replace(
        "divisor c0 at 0 mult 2",
        "divisor c0 at z mult 1\ndivisor c0 at (1+z^3) mult 5\ndivisor c0 at -3 mult 2"),
    "narrow": NARROW,
    "disconnected": DISCONNECTED,
    "glued": GLUED,
    "glued-m3": _mult(GLUED, 3),
    "glued-off-points": GLUED.replace("divisor c1 at 0 mult 1",
                                      "divisor c1 at 2 mult 2\ndivisor c1 at -3 mult 1"),
    "glued-xy": _xy_pair(GLUED),
}


def _divisor_polynomial(spec, comp):
    """D(t) = prod (t - q)^mult over the divisor points of ``comp``."""
    field = spec.field
    t = UPoly.gen(field)
    return reduce(mul, [(t - UPoly.constant(field, q)) ** mult
                        for (q, mult) in spec.divisor_points(comp)], UPoly.constant(field, 1))


def _reference_realization(spec):
    """The two-term model from RationalFunction sections t^p / D(t): node
    rows and Z by ``evaluate``, F by ``laurent_coefficients``."""
    field = spec.field
    t = UPoly.gen(field)
    raw = [(comp, j, RationalFunction(t ** p, _divisor_polynomial(spec, comp)))
           for comp in spec.components for j in range(spec.vring.nvars)
           for p in range(spec.bundle_degrees[comp][j] + spec.degD(comp) + 1)]
    rows = []
    for node in spec.nodes:
        (c1, q1, r1), (c2, q2, r2) = node.branch1, node.branch2
        for j in range(spec.vring.nvars):
            tw = spec.J_sqrt_lambda ** spec.vring.weights[j]
            rows.append([field.zero if var != j else
                         -tw * r1[j] * fn.evaluate(q1) if comp == c1 else
                         r2[j] * fn.evaluate(q2) if comp == c2 else field.zero
                         for (comp, var, fn) in raw])
    if rows:
        kernel = linalg.nullspace(rows, field)
        embed = [[kernel[c][r] for c in range(len(kernel))] for r in range(len(raw))]
    else:
        embed = linalg.identity(field, len(raw))
    b_basis, f_raw = [], []
    for comp in spec.components:
        for (q, mult) in spec.divisor_points(comp):
            for j in range(spec.vring.nvars):
                for order in range(1, mult + 1):
                    b_basis.append((comp, j, q, order))
                    f_raw.append([fn.laurent_coefficients(q, [-order])[0]
                                  if (c, var) == (comp, j) else field.zero
                                  for (c, var, fn) in raw])
    z_raw = [[spec.markings[i].rig[j] * fn.evaluate(spec.markings[i].point)
              if (comp, var) == (spec.markings[i].component, j) else field.zero
              for (comp, var, fn) in raw] for (i, j) in spec.sectors()]
    product = lambda m: linalg.mat_mul(m, embed, field) if m else []
    return raw, rows, embed, b_basis, product(f_raw), product(z_raw)


@pytest.mark.parametrize("name", list(SECTION_SPECS))
def test_two_term_realization_matches_the_rational_function_reference(monkeypatch, name):
    """Every entry of the node rows, embed, F and Z equals the
    RationalFunction reference; embed is the identity without nodes."""
    spec = _spec(SECTION_SPECS[name])
    node_rows = []
    matching = spincurve._node_matching
    monkeypatch.setattr(spincurve, "_node_matching",
                        lambda *args: node_rows.append(matching(*args)) or node_rows[-1])
    model = two_term_realization(spec)
    raw, rows, embed, b_basis, f_matrix, z_matrix = _reference_realization(spec)
    t = UPoly.gen(spec.field)
    assert [(c, j, RationalFunction(t ** p, _divisor_polynomial(spec, c)))
            for (c, j, p) in model.raw_basis] == raw
    assert node_rows[0] == rows and bool(rows) == bool(spec.nodes)
    assert model.embed == embed
    assert model.b_basis == b_basis
    assert model.f_matrix == f_matrix
    assert model.z_matrix == z_matrix


@pytest.mark.parametrize("order", [4, 6, 12])
def test_principal_parts_match_laurent_coefficients(order):
    """Seeded pole sets: one to three points, multiplicities 1-6, points off
    the origin and away from Q."""
    field = CyclotomicField(order)
    rng = random.Random(f"principal-parts:{order}")
    t = UPoly.gen(field)
    candidates = [field.zero, field.scalar(2), field.scalar(-3), field.zeta,
                  field.one + field.zeta ** (order // 2 - 1), field.scalar(Fraction(1, 2))]
    for _ in range(12):
        points = rng.sample(candidates, rng.randint(1, 3))
        poles = [(q, rng.randint(1, 6)) for q in points]
        denom = reduce(mul, [(t - UPoly.constant(field, q)) ** m for q, m in poles],
                       UPoly.constant(field, 1))
        top = rng.randint(0, 8)
        for q, mult in poles:
            got = spincurve._principal_parts(field, poles, q, top)
            want = [RationalFunction(t ** p, denom).laurent_coefficients(
                q, range(-1, -mult - 1, -1)) for p in range(top + 1)]
            assert got == want


@pytest.mark.parametrize("name", ["a1-m1", "a1-m6", "a1-off-m4", "a1-three-points",
                                  "a2-zeta6-two-points", "a2-zeta12-three-points", "narrow"])
def test_log_form_model_matches_the_laurent_reference(name):
    """f_log, f_om and res equal the Laurent coefficients of the forms
    t^p dt / (markden divden) and t^p dt / divden."""
    spec = _spec(SECTION_SPECS[name])
    lm = residue_structure(spec)
    t = UPoly.gen(spec.field)
    log = [RationalFunction(t ** p, lm.markden * lm.divden) for p in lm.a_log]
    om = [RationalFunction(t ** p, lm.divden) for p in lm.a_om]
    assert lm.f_log == [[fn.laurent_coefficient(q, -o) for fn in log] for (q, o) in lm.b_basis]
    assert lm.f_om == [[fn.laurent_coefficient(q, -o) for fn in om] for (q, o) in lm.b_basis]
    assert lm.res == [[fn.residue(mu) for fn in log] for mu in lm.marks]


def _with_eta(spec, form):
    return spincurve.SpinCurveSpec(spec.field, spec.vring, spec.W, spec.degree_d,
                                   spec.group_generators, spec.J, spec.components,
                                   spec.bundle_degrees, spec.markings, spec.nodes,
                                   spec.divisor, {"c0": form}, spec.J_sqrt_lambda)


# four markings, so eta = num / prod (t - mu) may have num of degree <= 2
FOUR_MARKS = BROAD.replace("marking c0 at -1 gamma diag(1) rig z",
                           "marking c0 at -1 gamma diag(1) rig z\n"
                           "marking c0 at z gamma diag(1) rig 1\n"
                           "marking c0 at 3 gamma diag(1) rig 1").replace(
    "eta c0 = (2) / (t^2 + (-1))\n", "")


def test_eta_validation_rejects_a_vanishing_residue():
    # (t - 1) / prod (t - mu) has residue 0 at t = 1 on paper; built by
    # RationalFunction it is in lowest terms, has lost its pole at 1, and
    # the pole check rejects it
    spec = _spec(FOUR_MARKS)
    field = spec.field
    t = UPoly.gen(field)
    den = reduce(mul, [t - UPoly.constant(field, m.point) for m in spec.markings])
    form = RationalFunction(t - UPoly.constant(field, 1), den)
    assert form.num == UPoly.constant(field, 1) and form.den.degree() == 3
    assert form.residue(field.one) == 0
    with pytest.raises(SpinDataError, match="eta on c0 must have simple poles exactly"):
        _with_eta(spec, form)
    _with_eta(spec, RationalFunction(t - UPoly.constant(field, 2), den))


def test_eta_residue_test_matches_the_laurent_residue():
    """On a seeded corpus of forms num / prod (t - mu) over the markings,
    half of them with num(mu) = 0 at a chosen marking, the spec is rejected,
    by the pole check, exactly when a Laurent residue vanishes."""
    spec = _spec(FOUR_MARKS)
    field = spec.field
    marks = [m.point for m in spec.markings]
    t = UPoly.gen(field)
    den = reduce(mul, [t - UPoly.constant(field, mu) for mu in marks])
    rng = random.Random("eta-residues")
    scalar = lambda: field.scalar(rng.randint(-3, 3)) + rng.randint(0, 1) * field.zeta
    verdicts = []
    for _ in range(40):
        if rng.random() < 0.5:
            num = UPoly(field, [scalar(), scalar()])
        else:
            mu = UPoly.constant(field, rng.choice(marks))
            num = UPoly(field, [scalar()]) * (t - mu)
        if not num:
            continue
        form = RationalFunction(num, den)
        vanishing = any(form.residue(mu) == 0 for mu in marks)
        try:
            _with_eta(spec, form)
            rejected = False
        except SpinDataError as e:
            assert "simple poles exactly at the markings" in str(e)
            rejected = True
        assert rejected == vanishing
        verdicts.append(rejected)
    assert True in verdicts and False in verdicts


# -- the d-preimage system by index shift ------------------------------------

def _reference_d_system(scheme, target, degree, weight):
    """The system of d(h) = target built by ``scheme.d`` on one basis
    monomial at a time, rows keyed in order of first use."""
    ring, field = scheme.ring, scheme.ring.field
    basis = [(s, e) for s in combinations(range(scheme.n_odd), -degree)
             for e in ring.monomials_of_weight(
                 weight - sum(scheme.odd_gens[k].weight for k in s))]
    rows, columns = {}, []
    for subset, exps in basis:
        image = scheme.d(SuperElement(scheme, {subset: Poly(ring, {exps: field.one})}))
        columns.append({(t, e): c for t, p in image.coefficients.items()
                        for e, c in p.terms.items()})
        for key in columns[-1]:
            rows.setdefault(key, len(rows))
    for t, p in target.coefficients.items():
        for e in p.terms:
            rows.setdefault((t, e), len(rows))
    matrix = [[field.zero] * len(basis) for _ in rows]
    for j, col in enumerate(columns):
        for key, c in col.items():
            matrix[rows[key]][j] = c
    rhs = [field.zero] * len(rows)
    for t, p in target.coefficients.items():
        for e, c in p.terms.items():
            rhs[rows[(t, e)]] = c
    return basis, matrix, rhs


def _d_problems():
    """(scheme, target, degree, weight): the f_{-1} system of each section
    spec (degree -1), and at degree -2 d(h) for a seeded h on its output
    scheme and the gauge difference of the two pivot orders on BROAD."""
    out = []
    rng = random.Random("d-preimage")
    for name, text in SECTION_SPECS.items():
        if name == "a2-zeta12-three-points":  # its 120 x 288 solve takes ~30 s
            text = A2_ZETA12.replace("divisor c0 at 0 mult 2", "divisor c0 at z mult 1\n"
                                     "divisor c0 at (1+z^3) mult 2\ndivisor c0 at -3 mult 1")
        spec = _spec(text)
        model = two_term_realization(spec)
        obs = build_obstruction(spec, model)
        out.append((obs.scheme, obs.scheme.scalar_element(-obs.c), -1, spec.degree_d))
        scheme = fundamental_mf(spec).scheme_out
        if scheme.n_odd < 2:
            continue
        ring = scheme.ring
        pair = (0, 1)
        weight = spec.degree_d
        exps = ring.monomials_of_weight(
            weight - scheme.odd_gens[0].weight - scheme.odd_gens[1].weight)
        if exps:
            h = SuperElement(scheme, {pair: Poly(ring, {e: ring.field.scalar(
                rng.randint(-3, 3)) for e in exps})})
            out.append((scheme, scheme.d(h), -2, weight))
    spec = _spec(BROAD)
    r1, r2 = fundamental_mf(spec), fundamental_mf(spec, pivot_order=[1, 0])
    diff = _transplant(r1.f_out, r1.scheme_out) - _transplant(r2.f_out, r1.scheme_out)
    out.append((r1.scheme_out, diff, -2, diff.weight()))
    return out


def test_d_system_matches_the_per_monomial_reference():
    """Same basis, matrix and right-hand side, and the same solution for
    every pivot order the tests use (None and [1, 0])."""
    problems = _d_problems()
    assert {degree for (_s, _t, degree, _w) in problems} == {-1, -2}
    for scheme, target, degree, weight in problems:
        basis, matrix, rhs = _reference_d_system(scheme, target, degree, weight)
        assert _d_system(scheme, target, degree, weight) == (basis, matrix, rhs)
        field = scheme.ring.field
        for order in (None, [1, 0]):
            got = _solve_d_preimage(scheme, target, degree, weight, col_order=order)
            sol = linalg.solve(matrix, rhs, field, col_order=order) if matrix else (
                [] if not target else None)
            if sol is None:
                assert got is None
                continue
            want = {}
            for x, (s, e) in zip(sol, basis):
                if x:
                    want.setdefault(s, {})[e] = x
            assert {s: p.terms for s, p in got.coefficients.items()} == want
            assert order is not None or scheme.d(got) == target


# -- support verdicts read from W(p) ------------------------------------------

def _restricting_verdict(mf, point):
    """The verdict from the restriction at every point: contractible iff
    W(p) != 0 or rank P_i = rank delta0 + rank delta1."""
    at = mf.restrict_to_point(point)
    if at.potential:
        return "contractible"
    d0, d1 = ([[c.constant_value() for c in row] for row in d] for d in (at.delta0, at.delta1))
    rank = lambda m: linalg.rank(m, at.ring.field) if m and m[0] else 0
    r = rank(d0) + rank(d1)
    return "contractible" if (at.rank0, at.rank1) == (r, r) else "noncontractible"


def _support_inputs():
    """(MF, points) for the A_1, x^2 + y^2 and A_2 fundamental MFs, a Koszul
    MF and MFs over the point base; the points include zeros of W, contractible
    or not, and points where W is a unit."""
    out = []
    rng = random.Random("support-verdicts")
    for text in (BROAD, BROAD.replace("mult 1", "mult 3"), XY, A2_ZETA12):
        result = fundamental_mf(_spec(text))
        mf, F = result.mf, result.spec.field
        n_sect, n = len(result.sector_names), mf.ring.nvars
        degree = result.spec.degree_d
        # x_2 = u x_1 with u^d = -1 is a zero of the sector potential
        root = next(u for u in (F.zeta_power(k) for k in range(F.order))
                    if u ** degree == F.scalar(-1))
        rand = lambda: F.scalar(rng.randint(-3, 3)) + rng.randint(0, 2) * F.zeta
        points = [[F.zero] * n, [rand() for _ in range(n)], [F.one] * n]
        for _ in range(3):
            lam = rand()
            points.append(([lam, lam * root] + [F.zero] * (n_sect - 2)
                           + [rand() for _ in range(n - n_sect)]))
        out.append((mf, points))
    R = PolyRing(CyclotomicField(4), ["x", "y"])
    x, y = R.gens()
    F = R.field
    kos = koszul_mf(R, [x, x * y], [x, y])
    out.append((kos, [[F.zero, F.zero], [F.one, F.zero], [F.zero, F.one],
                      [F.one, F.zeta], [F.scalar(2), F.one]]))
    for point in ([F.zero, F.zero], [F.one, F.zero], [F.one, F.one]):
        out.append((kos.restrict_to_point(point), [()]))
    return out


def test_support_check_without_certificates_matches_the_restricting_reference():
    seen = set()
    for mf, points in _support_inputs():
        want = [_restricting_verdict(mf, p) for p in points]
        got = support_check(mf, points, with_certificates=False)
        assert [e["verdict"] for e in got] == want
        assert [e["point"] for e in got] == [tuple(p) for p in points]
        assert all(e["certificate"] is None for e in got)
        with_certs = support_check(mf, points)
        assert [e["verdict"] for e in with_certs] == want
        seen |= {(v, not mf.restrict_to_point(p).potential) for v, p in zip(want, points)}
    # zeros of W with either verdict, and units of W
    assert seen == {("contractible", False), ("contractible", True),
                    ("noncontractible", True)}


def test_support_check_rejects_a_perturbed_restriction_where_w_vanishes(monkeypatch):
    """The values of delta at a point are read, and certified, only where
    they are used: at a zero of W, by the restriction's delta^2 check, and
    at a unit of W, with a certificate, by its homotopy check.  Without a
    certificate, the verdict at a unit reads W(p) alone.  The cells are
    those of the fundamental MF, in a plain MF: the fundamental MF itself is
    a Koszul MF, read at a point from alpha(p) and beta(p)."""
    result = fundamental_mf(_spec(BROAD))
    F = result.spec.field
    assert isinstance(result.mf, factorizations.KoszulMF)
    mf = MatrixFactorization(result.mf.ring, result.mf.p0_gens, result.mf.p1_gens,
                             result.mf.delta0, result.mf.delta1, result.mf.potential)
    n = mf.ring.nvars
    unit, zero = [F.one] * n, [F.zero] * n
    assert mf.potential.evaluate(unit) and not mf.potential.evaluate(zero)
    original = factorizations._at_point
    read = []

    def perturbed(mf, point):
        w, deltas, _ = original(mf, point)

        def values():
            read.append(tuple(point))
            d0, d1 = ([list(row) for row in d] for d in deltas())
            d0[0][0], d1[0][0] = d0[0][0] + w.ring.one, d1[0][0] + w.ring.one
            return d0, d1

        return w, values, lambda: MatrixFactorization(w.ring, mf.p0_gens, mf.p1_gens,
                                                      *values(), w)

    monkeypatch.setattr(factorizations, "_at_point", perturbed)
    assert support_check(mf, [unit], with_certificates=False)[0]["verdict"] == "contractible"
    assert read == []
    with pytest.raises(CertificateError):
        support_check(mf, [zero], with_certificates=False)
    assert read == [tuple(zero)]
    with pytest.raises(CertificateError):
        support_check(mf, [unit])
    assert read == [tuple(zero), tuple(unit)]


def test_point_homology_rejects_a_point_for_an_mf_over_the_point_base():
    result = fundamental_mf(_spec(BROAD))
    F = result.spec.field
    at = result.mf.restrict_to_point([F.zero] * result.mf.ring.nvars)
    assert point_homology(at, ()) == (1, 1)
    with pytest.raises(ValueError, match="point base"):
        point_homology(at, (F.zero,))


def test_two_term_realization_rejects_a_node_matching_that_is_not_surjective(tmp_path, capsys):
    # without a divisor, the bundles of degree -1 have no sections to match
    # at the node, so H^1(V(D)) != 0
    text = (GLUED.replace("bundle c0 = 0", "bundle c0 = -1")
            .replace("bundle c1 = 0", "bundle c1 = -1")
            .replace("divisor c0 at 0 mult 1\ndivisor c1 at 0 mult 1\n", ""))
    assert "divisor" not in text
    with pytest.raises(SpinDataError, match="node-matching map is not surjective"):
        two_term_realization(_spec(text))
    path = tmp_path / "in.spec"
    path.write_text(text)
    out = tmp_path / "out.txt"
    assert main(["fundamental", "--input", str(path), "--output", str(out)]) == 3
    assert "node-matching map is not surjective" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("degree, homology", [(0, (1, 0)), (-1, (0, 0)), (-2, (0, 1))])
def test_three_component_chain_matches_the_cech_oracle(tmp_path, degree, homology):
    text = CHAIN.replace("bundle c1 = 0", f"bundle c1 = {degree}")
    spec = _spec(text)
    assert len(spec.components) == 3 and len(spec.nodes) == 2
    assert two_term_realization(spec).homology() == cech_oracle(spec) == homology
    path, out = tmp_path / "chain.spec", tmp_path / "chain.mf"
    path.write_text(text)
    assert main(["fundamental", "--input", str(path), "--output", str(out)]) == 0
    assert main(["verify", "--input", str(out)]) == 0


# every pipeline spec of this file but one: the f_{-1} solve of
# a2-zeta12-three-points alone takes about 20 s (CPython 3.11, 2-core VM)
SPEC_FIXTURES = {**CERTIFIED, "a2-zeta6": A2_ZETA6, "chain": CHAIN,
                 **{f"one-aux-{k}": v for k, v in ONE_AUXILIARY.items()},
                 **{f"sections-{k}": v for k, v in SECTION_SPECS.items()
                    if k != "a2-zeta12-three-points"},
                 **{f"glue-{k}-{side}": v for k, pair in GLUE_PAIRS.items()
                    for side, v in zip(("disconnected", "glued"), pair)}}


@pytest.mark.parametrize("name", list(SPEC_FIXTURES))
def test_pipeline_potential_is_the_curvature_of_its_curving(name):
    """The transport argument: d(f_{-1}) = -c is certified by the solve, and
    the change of coordinates sends c = Z^*(sum W_i) to sum W_i, so the
    curvature of the output curving is the sector potential."""
    r = fundamental_mf(_spec(SPEC_FIXTURES[name]))
    assert r.potential == dgmf_from_homotopy(r.scheme_out, -r.f_out).curvature


@pytest.mark.parametrize("name", list(SPEC_FIXTURES))
def test_pipeline_folds_are_koszul_mfs_equal_to_the_plain_fold(name):
    """The curving is linear in the odd generators, so ``mf`` and
    ``sector_mf`` are KoszulMFs; each equals the plain fold by exterior
    arithmetic cell for cell and writes the same ``.mf`` bytes."""
    from test_factorizations import _assert_same_mf, _reference_fold
    r = fundamental_mf(_spec(SPEC_FIXTURES[name]))
    curve = factorizations.CurvedStructure
    scheme, f = koszul_reduce(r.scheme_out, r.f_out, r.sector_steps)
    for got, curved in ((r.mf, curve(r.scheme_out, -r.f_out, r.potential)),
                        (r.sector_mf, curve(scheme, -f,
                                            r.spec.sector_potential(scheme.ring)))):
        assert isinstance(got, factorizations.KoszulMF)
        _assert_same_mf(got, _reference_fold(curved))


def test_fundamental_mf_rejects_a_perturbed_curving_on_fold():
    # the fold certifies delta^2 = W . id against the sector potential, so a
    # curving whose curvature is not W fails on the first read of ``mf``
    r = fundamental_mf(_spec(BROAD.replace("mult 1", "mult 3")))
    t, c = next(iter(r.f_out.coefficients.items()))
    r.f_out = r.scheme_out.element({**r.f_out.coefficients, t: c + c})
    with pytest.raises(CertificateError, match="delta\\^2 != W"):
        r.mf


XY_NODAL = GLUE_PAIRS["xy"][1]


@pytest.mark.parametrize("text, old, new, message", [
    (XY, "bundle c0 = 0, 0", "bundle c0 = 0", "bundle c0: 1 values given, 2 expected"),
    (XY, "bundle c0 = 0, 0", "bundle c0 = 0, 0, 0", "bundle c0: 3 values given, 2 expected"),
    (XY, "rig 1, 1", "rig 1", "the rig of marking 1 (c0 at 1): 1 values given, 2 expected"),
    (XY, "rig 1, 1", "rig 1, 1, 1",
     "the rig of marking 1 (c0 at 1): 3 values given, 2 expected"),
    (XY_NODAL, "rig z, z ~", "rig z ~",
     "the rig of node branch c0 at -1: 1 values given, 2 expected"),
    (XY_NODAL, "~ c1 at 1 rig 1, 1", "~ c1 at 1 rig 1, 1, 1",
     "the rig of node branch c1 at 1: 3 values given, 2 expected"),
], ids=["bundle-short", "bundle-long", "marking-rig-short", "marking-rig-long",
        "node-rig-short", "node-rig-long"])
def test_spec_rejects_a_list_of_the_wrong_length(tmp_path, capsys, text, old, new, message):
    # these used to end in an IndexError, a misleading "disagrees with the
    # Cech oracle", or silence
    _spec(text)
    assert old in text
    bad = text.replace(old, new, 1)
    with pytest.raises(SpinDataError, match=re.escape(message)):
        _spec(bad)
    path, out = tmp_path / "bad.spec", tmp_path / "out.mf"
    path.write_text(bad)
    assert main(["fundamental", "--input", str(path), "--output", str(out)]) == 3
    assert message in capsys.readouterr().err and not out.exists()


def test_spec_rejects_an_order_that_does_not_accommodate_the_exponent_group():
    text = (BROAD.replace("W = x^2\nd = 2", "W = x^3\nd = 3")
            .replace("generator = diag(-1)\nJ = diag(-1)", "J = diag(1)"))
    with pytest.raises(SpinDataError, match="cyclotomic order 4 does not accommodate "
                                            "the exponent group of order 3"):
        _spec(text)
    # without an explicit J the parser derives J and rejects the order itself
    with pytest.raises(SpecParseError, match="cyclotomic order must be divisible by d"):
        parse_spec(text.replace("J = diag(1)\n", ""))


def test_spec_rejects_a_potential_that_a_generator_moves():
    with pytest.raises(SpinDataError, match="W is not invariant under a group generator"):
        _spec(BROAD.replace("generator = diag(-1)", "generator = diag(z)"))


def test_two_term_realization_rejects_a_bundle_the_divisor_does_not_make_ample():
    with pytest.raises(SpinDataError, match=re.escape("H^1(L_0(D)) != 0 on c0")):
        two_term_realization(_spec(BROAD.replace("bundle c0 = 0", "bundle c0 = -3")))


def test_a_nodal_spec_without_j_sqrt_is_rejected():
    glued = _spec(GLUED.replace("J_sqrt = z\n", ""))
    with pytest.raises(SpinDataError, match="nodal curve requires J_sqrt"):
        two_term_realization(glued)
    with pytest.raises(SpinDataError, match="glued spec must carry J_sqrt"):
        twisted_diagonal_glue(_spec(DISCONNECTED), glued)


@pytest.mark.parametrize("glued, message", [
    (DISCONNECTED, "expected exactly one new node in the glued spec"),
    (GLUED.replace("node c0 at -1", "node c0 at 2"),
     "(c0, 2) is not a marking of the disconnected spec"),
    (GLUED.replace("divisor c0 at 0 mult 1", "divisor c0 at 0 mult 2"),
     "disconnected and glued specs use different section models"),
], ids=["no-new-node", "branch-not-a-marking", "different-section-models"])
def test_glue_rejects_input_that_is_not_one_gluing(glued, message):
    with pytest.raises(SpinDataError, match=re.escape(message)):
        twisted_diagonal_glue(_spec(DISCONNECTED), _spec(glued))
