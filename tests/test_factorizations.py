import copy
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from dgmf import factorizations, linalg, poly
from dgmf.complexes import Generator
from dgmf.cyclotomic import Scalar
from dgmf.poly import Poly, exponents_of_weight
from dgmf.specfile import parse_mf, parse_spec, write_mf
from dgmf import (
    CONTRACTIBLE,
    NONCONTRACTIBLE,
    CertificateError,
    CyclotomicField,
    PolyRing,
    derived_zero_locus,
    dgmf_from_homotopy,
    fold_to_mf,
    fundamental_mf,
    gauge_intertwiner,
    koszul_mf,
    leibniz_holds,
    mf_tensor,
    nullhomotopy_solve,
    point_homology,
    point_verdict,
    support_check,
    unit_mf,
)

F = CyclotomicField(1)


def _ring(nvars, weights=None):
    names = [f"x{i}" for i in range(nvars)]
    return PolyRing(F, names, weights or [1] * nvars)


def test_koszul_rank_one():
    R = _ring(1, [1])
    x = R.gen("x0")
    mf = koszul_mf(R, [x], [x])  # {x, x} factorizes x^2
    assert mf.potential == x * x
    assert mf.rank0 == 1 and mf.rank1 == 1
    mf.verify()


def test_koszul_potential_is_pairing():
    R = _ring(2, [1, 2])
    x, y = R.gen("x0"), R.gen("x1")
    mf = koszul_mf(R, [x * x * x, y], [x, y * y * y * 0 + y])
    assert mf.potential == x * x * x * x + y * y
    mf.verify()


def test_koszul_mismatched_lengths():
    R = _ring(1)
    x = R.gen("x0")
    with pytest.raises(ValueError):
        koszul_mf(R, [x], [x, x])


def test_fold_matches_koszul_bit_exact():
    rng = random.Random(101)
    for _ in range(12):
        n = rng.randint(1, 3)
        R = _ring(n)
        xs = [R.gen(f"x{i}") for i in range(n)]
        # beta = the variables, alpha = random homogeneous multiples
        degs = [rng.randint(1, 3) for _ in range(n)]
        alpha = []
        for i in range(n):
            p = R.zero
            for exps in R.monomials_of_weight(degs[i]):
                mono = Poly(R, {tuple(exps): F.one})
                p = p + rng.randint(-2, 2) * mono
            alpha.append(p if p else xs[i])
        beta = xs
        want = _reference_koszul_mf(R, alpha, beta)
        scheme = derived_zero_locus(R, beta)
        f = scheme.zero_element()
        for k in range(n):
            f = f + alpha[k] * scheme.odd_coordinate(k)
        _assert_same_mf(koszul_mf(R, alpha, beta), want)
        _assert_same_mf(fold_to_mf(dgmf_from_homotopy(scheme, f)), want)


def _reference_koszul_mf(ring, alpha, beta):
    """The Koszul factorization as koszul_mf used to build it, by exterior
    combinatorics of its own with a Poly sum per cell, independent of the
    fold.  Kept as the reference for koszul_mf and the fold."""
    alpha = [ring.constant(a) if not hasattr(a, "terms") else a for a in alpha]
    beta = [ring.constant(b) if not hasattr(b, "terms") else b for b in beta]
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must have the same length")
    n = len(alpha)
    odd_weights = [w if isinstance(w, int) else 1 for w, _ in (b.weight() for b in beta)]
    subsets = []
    for k in range(n + 1):
        subsets.extend(combinations(range(n), k))
    even = [s for s in subsets if len(s) % 2 == 0]
    odd = [s for s in subsets if len(s) % 2 == 1]
    even_index = {s: i for i, s in enumerate(even)}
    odd_index = {s: i for i, s in enumerate(odd)}

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

    zero = ring.zero
    delta0 = [[zero] * len(even) for _ in range(len(odd))]
    for j, s in enumerate(even):
        for key, c in apply_delta(s).items():
            delta0[odd_index[key]][j] = c
    delta1 = [[zero] * len(odd) for _ in range(len(even))]
    for j, s in enumerate(odd):
        for key, c in apply_delta(s).items():
            delta1[even_index[key]][j] = c
    potential = ring.zero
    for a, b in zip(alpha, beta):
        potential = potential + a * b
    gen = lambda s: Generator("^".join(f"e{k}" for k in s) or "1",
                              sum(odd_weights[k] for k in s))
    p0 = [gen(s) for s in even]
    p1 = [gen(s) for s in odd]
    return factorizations.MatrixFactorization(ring, p0, p1, delta0, delta1, potential)


@pytest.mark.parametrize("order", [4, 7, 12])
def test_koszul_mf_matches_the_reference_and_shares_entries(order):
    """koszul_mf equals the reference on seeded {alpha, beta} over Q(zeta_N),
    with zero alpha_k and beta_k, beta that is not quasihomogeneous, n = 0
    (unit_mf) and scalar entries; its cells hold at most
    2 (#nonzero alpha + #nonzero beta) + 1 distinct objects."""
    field = CyclotomicField(order)
    ring = PolyRing(field, ["x", "y", "w"], [1, 1, 2])
    x, y, w = ring.gens()
    rng = random.Random(order)
    cases = [([], []), ([x], [x]), ([x, 0], [x + x * x, y]), ([field.zeta, y], [x, w])]
    for _ in range(10):
        n = rng.randint(1, 5)
        cases.append(([_random_poly(rng, ring, density=0.7) for _ in range(n)],
                      [_random_poly(rng, ring, density=0.7) for _ in range(n)]))
    for alpha, beta in cases:
        want = _reference_koszul_mf(ring, alpha, beta)
        got = koszul_mf(ring, alpha, beta)
        _assert_same_mf(got, want)
        nonzero = sum(1 for c in alpha + beta if c)
        assert len({id(c) for c in _cells(got)}) <= 2 * nonzero + 1
    _assert_same_mf(unit_mf(ring), _reference_koszul_mf(ring, [], []))
    assert (unit_mf(ring).delta0, unit_mf(ring).delta1) == ([], [[]])
    with pytest.raises(ValueError, match="same length"):
        koszul_mf(ring, [x, y], [x])
    # the scheme Z(beta) checks R-weights; koszul_mf builds no scheme
    with pytest.raises(ValueError, match="R-weight"):
        derived_zero_locus(ring, [x + x * x, y])


def _reference_fold(curved):
    """The fold as fold_to_mf used to build it, by exterior-algebra
    arithmetic: delta applied to each basis vector.  Kept as the reference
    for the closed form."""
    scheme = curved.scheme
    ring = scheme.ring
    even = scheme.basis_subsets(parity=0)
    odd = scheme.basis_subsets(parity=1)
    even_index = {s: i for i, s in enumerate(even)}
    odd_index = {s: i for i, s in enumerate(odd)}
    delta0 = [[ring.zero] * len(even) for _ in range(len(odd))]
    delta1 = [[ring.zero] * len(odd) for _ in range(len(even))]
    for j, s in enumerate(even):
        image = curved.delta(scheme.element({s: ring.one}))
        for key, c in image.coefficients.items():
            delta0[odd_index[key]][j] = c
    for j, s in enumerate(odd):
        image = curved.delta(scheme.element({s: ring.one}))
        for key, c in image.coefficients.items():
            delta1[even_index[key]][j] = c
    namegen = lambda s: "^".join(scheme.odd_gens[k].name for k in s) or "1"
    weight = lambda s: sum(scheme.odd_gens[k].weight for k in s)
    p0 = [Generator(namegen(s), weight(s)) for s in even]
    p1 = [Generator(namegen(s), weight(s)) for s in odd]
    return factorizations.MatrixFactorization(ring, p0, p1, delta0, delta1,
                                              curved.curvature)


def _assert_same_mf(got, want):
    assert (got.p0_gens, got.p1_gens) == (want.p0_gens, want.p1_gens)
    assert got == want
    assert write_mf(got) == write_mf(want)


_A1 = """[field]
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
divisor c0 at {point} mult {mult}
eta c0 = (2) / (t^2 + (-1))
"""

_XY = """[field]
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
divisor c0 at {point} mult 2
eta c0 = (2) / (t^2 + (-1))
"""

# W = x^3: J = diag(zeta_3), which is z^2 in Q(zeta_6) and z^4 in Q(zeta_12)
_A2 = """[field]
order = {order}
[potential]
variables = x:1
W = x^3
d = 3
[group]
generator = diag({j})
J = diag({j})
[curve]
component c0
bundle c0 = -1
marking c0 at 1 gamma diag(1) rig 1
marking c0 at -1 gamma diag(1) rig {rig}
divisor c0 at 0 mult {mult}
"""

_PIPELINE_SPECS = (
    [_A1.format(point=p, mult=m) for p in ("0", "2", "-2") for m in range(1, 8)]
    + [_XY.format(point=p) for p in ("0", "-2")]
    + [_A2.format(order=6, j="z^2", rig="1", mult=4),
       _A2.format(order=12, j="z^4", rig="z^3", mult=3),
       _A2.format(order=12, j="z^4", rig="1", mult=4)])


def test_fold_matches_the_reference_on_pipeline_specs():
    for text in _PIPELINE_SPECS:
        result = fundamental_mf(parse_spec(text).spin_spec())
        # fundamental_mf folds the curving delta = d - f_{-1}
        curved = dgmf_from_homotopy(result.scheme_out, -result.f_out)
        _assert_same_mf(result.mf, _reference_fold(curved))


def _random_odd(rng, scheme, triples):
    """A seeded odd element: terms of degree -1 on every generator and of
    degree -3 on the given triples, each present with probability 1/2."""
    subsets = [(k,) for k in range(scheme.n_odd)] + list(triples)
    return scheme.element({s: _random_poly(rng, scheme.ring, density=1.0)
                           for s in subsets if rng.random() < 0.5})


@pytest.mark.parametrize("order", [1, 4, 7])
def test_fold_matches_the_reference_on_random_curvings(order):
    # the generators after the first `live` ones have zero differential, so
    # the degree -3 terms of f_{-1} on them keep d(f_{-1}) a function; no
    # Koszul factorization has such terms
    field = CyclotomicField(order)
    ring = PolyRing(field, ["x0", "x1"])
    rng = random.Random(order)
    cubic_terms = 0
    for _ in range(8):
        n = rng.randint(4, 6)
        live = rng.randint(1, n - 3)
        beta = [_random_scalar(rng, field) * ring.gen("x0")
                + _random_scalar(rng, field) * ring.gen("x1") for _ in range(live)]
        scheme = derived_zero_locus(ring, beta + [ring.zero] * (n - live))
        f = _random_odd(rng, scheme, combinations(range(live, n), 3))
        cubic_terms += sum(len(s) == 3 for s in f.coefficients)
        curved = dgmf_from_homotopy(scheme, f)
        _assert_same_mf(fold_to_mf(curved), _reference_fold(curved))
    assert cubic_terms >= 4


@pytest.mark.parametrize("order", [1, 4, 7])
def test_odd_elements_square_to_zero(order):
    field = CyclotomicField(order)
    ring = PolyRing(field, ["x0", "x1"])
    rng = random.Random(order)
    for _ in range(8):
        n = rng.randint(3, 6)
        scheme = derived_zero_locus(ring, [ring.zero] * n)
        f = _random_odd(rng, scheme, combinations(range(n), 3))
        assert f.parity() == 1 and not f * f


def test_fold_rejects_a_wrong_curvature():
    R = _ring(2)
    x, y = R.gens()
    scheme = derived_zero_locus(R, [x, y])
    f = x * scheme.odd_coordinate(0) + y * scheme.odd_coordinate(1)
    right = dgmf_from_homotopy(scheme, f).curvature
    for wrong in (R.zero, right + right, right + x):
        with pytest.raises(CertificateError, match=r"delta\^2 != W \. id"):
            fold_to_mf(factorizations.CurvedStructure(scheme, f, wrong))


def test_dgmf_rejects_even_curving():
    R = _ring(1)
    x = R.gen("x0")
    scheme = derived_zero_locus(R, [x, x])
    even = scheme.odd_coordinate(0) * scheme.odd_coordinate(1)
    with pytest.raises(ValueError):
        dgmf_from_homotopy(scheme, even)


def test_leibniz_random():
    rng = random.Random(55)
    R = _ring(2)
    x, y = R.gen("x0"), R.gen("x1")
    scheme = derived_zero_locus(R, [x, y])
    f = x * scheme.odd_coordinate(0) + y * scheme.odd_coordinate(1)
    curved = dgmf_from_homotopy(scheme, f)
    for _ in range(25):
        phi = _random_element(rng, scheme, parity=rng.randint(0, 1))
        p = _random_element(rng, scheme)
        assert leibniz_holds(curved, phi, p)


def _random_element(rng, scheme, parity=None):
    R = scheme.ring
    elt = scheme.zero_element()
    for s in scheme.basis_subsets(parity=parity):
        c = R.zero
        for m in [R.one] + [R.gen(n) for n in R.names]:
            c = c + rng.randint(-1, 1) * m
        term = scheme.scalar_element(c)
        for k in s:
            term = term * scheme.odd_coordinate(k)
        elt = elt + term
    return elt


def test_mf_tensor_potentials_add():
    R = _ring(2)
    x, y = R.gen("x0"), R.gen("x1")
    a = koszul_mf(R, [x], [x])
    b = koszul_mf(R, [y], [y])
    t = mf_tensor(a, b)
    assert t.potential == x * x + y * y
    assert t.rank0 == 2 and t.rank1 == 2
    t.verify()


def test_unit_mf_is_tensor_unit():
    R = _ring(1)
    x = R.gen("x0")
    a = koszul_mf(R, [x], [x])
    u = unit_mf(R)
    t = mf_tensor(a, u)
    assert t.potential == a.potential
    assert (t.rank0, t.rank1) == (a.rank0, a.rank1)


def test_mf_tensor_rejects_factorizations_over_different_rings():
    x, y = _ring(1).gen("x0"), PolyRing(F, ["y"], [1]).gen("y")
    with pytest.raises(ValueError, match="tensor of matrix factorizations over different rings"):
        mf_tensor(koszul_mf(x.ring, [x], [x]), koszul_mf(y.ring, [y], [y]))


def _reference_mf_tensor(m, n):
    """The tensor product as mf_tensor used to build it, with one copy of the
    block loop per source block; kept as the reference."""
    ring = m.ring

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
    return factorizations.MatrixFactorization(ring, p0, p1, delta0, delta1,
                                              m.potential + n.potential)


@pytest.mark.parametrize("order", [1, 4, 7])
def test_mf_tensor_matches_the_block_by_block_reference(order):
    field = CyclotomicField(order)
    ring = PolyRing(field, ["x0", "x1", "y0", "y1"])
    xs, ys = ring.gens()[:2], ring.gens()[2:]
    rng = random.Random(order)

    def random_koszul():
        k = rng.randint(1, 2)
        alpha = [_random_scalar(rng, field) * rng.choice(xs) for _ in range(k)]
        beta = [rng.choice(ys) + _random_scalar(rng, field) * rng.choice(xs) * rng.choice(ys)
                for _ in range(k)]
        return koszul_mf(ring, alpha, beta)

    mfs = [unit_mf(ring)] + [random_koszul() for _ in range(8)]
    for m in mfs:
        for n in mfs:
            got, want = mf_tensor(m, n), _reference_mf_tensor(m, n)
            assert (got.p0_gens, got.p1_gens) == (want.p0_gens, want.p1_gens)
            assert got == want


def test_point_verdict_koszul():
    # {x^{r-1}, x} is contractible away from 0, not at 0
    for r in (2, 3, 5):
        R = _ring(1)
        x = R.gen("x0")
        mf = koszul_mf(R, [x ** (r - 1)], [x])
        assert point_verdict(mf, [F.scalar(2)]) == CONTRACTIBLE
        assert point_verdict(mf, [F.zero]) == NONCONTRACTIBLE
        assert point_homology(mf, [F.scalar(2)]) == (0, 0)
        assert point_homology(mf, [F.zero]) == (1, 1)


def test_nullhomotopy_certificate_at_point():
    R = _ring(1)
    x = R.gen("x0")
    mf = koszul_mf(R, [x], [x]).restrict_to_point([F.scalar(3)])
    cert = nullhomotopy_solve(mf)
    assert cert is not None


def test_nullhomotopy_absent_when_noncontractible():
    R = _ring(1)
    x = R.gen("x0")
    mf = koszul_mf(R, [x], [x]).restrict_to_point([F.zero])
    assert nullhomotopy_solve(mf) is None


def test_support_check_report():
    R = _ring(1)
    x = R.gen("x0")
    mf = koszul_mf(R, [x ** 2], [x])
    pts = [[F.zero], [F.one], [F.scalar(-2)]]
    report = support_check(mf, pts, degree_bound=4)
    assert report[0]["verdict"] == NONCONTRACTIBLE
    assert report[1]["verdict"] == CONTRACTIBLE
    assert report[1]["certificate"] is not None
    assert report[2]["verdict"] == CONTRACTIBLE


def test_support_check_restricts_and_checks_once_per_point(monkeypatch):
    R = _ring(1)
    x = R.gen("x0")
    koszul = koszul_mf(R, [x ** 2], [x])
    checked = []
    for cls in (factorizations.MatrixFactorization, factorizations.KoszulMF):

        def recording_verify(self, verify=cls.verify, name=cls.__name__):
            checked.append((name, self.ring.nvars))
            return verify(self)

        monkeypatch.setattr(cls, "verify", recording_verify)
    # one certified restriction at the zero of W, where the verdict reads its
    # ranks: the Koszul MF's restriction is a Koszul MF, the plain MF's a
    # plain one; none where W(p) is a unit, whose homotopy check certifies
    # delta(p)
    for mf in (koszul, _plain(koszul)):
        checked.clear()
        report = support_check(mf, [[F.zero], [F.one], [F.scalar(-2)]])
        assert [entry["certificate"] is not None for entry in report] == [False, True, True]
        assert checked == [(type(mf).__name__, 0)]


def test_gauge_intertwiner_between_equivalent_curvings():
    # f and f + d(h) fold to gauge-equivalent factorizations
    R = _ring(2)
    x, y = R.gen("x0"), R.gen("x1")
    scheme = derived_zero_locus(R, [x, y])
    e0, e1 = scheme.odd_coordinate(0), scheme.odd_coordinate(1)
    f_a = x * e0 + y * e1
    h = scheme.scalar_element(R.one) * e0 * e1
    f_b = f_a + scheme.d(h)
    got = gauge_intertwiner(scheme, f_a, f_b)
    assert got is not None  # verification happens inside, raising on failure


def test_gauge_intertwiner_rejects_a_difference_that_is_not_exact():
    # e0 has weight 1 and every h of degree -2 on Z(x0, x1) is a multiple of
    # e0 e1, of weight 2, so f_a + e0 is not gauge equivalent to f_a
    R = _ring(2)
    x, y = R.gens()
    scheme = derived_zero_locus(R, [x, y])
    e0, e1 = scheme.odd_coordinate(0), scheme.odd_coordinate(1)
    f_a = x * e0 + y * e1
    assert gauge_intertwiner(scheme, f_a, f_a + e0) is None


def test_koszul_reduce_rejects_a_substitution_that_misses_a_pivot(monkeypatch):
    # on Z(t + x) the step (1, 0, 1) maps t to -x, so d(b_0) goes to 0; a
    # substitution that adds x to every image sends it to 2x instead
    R = PolyRing(F, ["x", "t"])
    scheme = derived_zero_locus(R, [R.gen("t") + R.gen("x")])
    steps = [(1, 0, F.one)]
    assert factorizations.koszul_steps(scheme, 1) == steps
    reduced, _ = factorizations.koszul_reduce(scheme, scheme.zero_element(), steps)
    assert reduced.ring.names == ("x",) and reduced.n_odd == 0
    original = factorizations.substituter
    monkeypatch.setattr(factorizations, "substituter", lambda ring, images, target: original(
        ring, [p + target.gen("x") for p in images], target))
    with pytest.raises(CertificateError, match=r"maps d\(b_0\) to 2\*x, not 0"):
        factorizations.koszul_reduce(scheme, scheme.zero_element(), steps)


def test_gauge_intertwiner_trivial():
    R = _ring(1)
    x = R.gen("x0")
    scheme = derived_zero_locus(R, [x])
    f = x * scheme.odd_coordinate(0)
    h, E0, E1 = gauge_intertwiner(scheme, f, f)
    assert not h


def _reference_exp_operator(scheme, h, parity_basis):
    """exp(h) on the exterior basis as exp_multiplication_operator used to
    build it: the series h^k e_s / k! summed once per basis vector e_s."""
    ring = scheme.ring
    index = {s: i for i, s in enumerate(parity_basis)}
    cols = []
    for s in parity_basis:
        acc = total = factorizations.SuperElement(scheme, {s: ring.one})
        k = 1
        while True:
            acc = h * acc
            if not acc:
                break
            acc = acc * Fraction(1, k)  # h^k e_s / k!
            total = total + acc
            k += 1
        col = [ring.zero] * len(parity_basis)
        for t, c in total.coefficients.items():
            col[index[t]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(len(parity_basis))]
            for i in range(len(parity_basis))]


@pytest.mark.parametrize("order", [4, 7, 12])
def test_exp_operator_matches_the_per_basis_vector_series(order):
    """E0 and E1 of exp(h) equal the reference on seeded even nilpotent h
    (degree -2 and -4 terms, some of them zero) with up to five generators."""
    field = CyclotomicField(order)
    ring = PolyRing(field, ["x", "y"], [1, 1])
    rng = random.Random(order)
    deep = 0
    for n in range(6):
        scheme = derived_zero_locus(ring, [ring.zero] * n)
        h = scheme.element({s: _random_poly(rng, ring, density=0.6)
                            for s in scheme.basis_subsets(parity=0) if s})
        deep += bool(h * h)
        for parity in (0, 1):
            basis = scheme.basis_subsets(parity=parity)
            got = factorizations.exp_multiplication_operator(scheme, h, basis)
            assert got == _reference_exp_operator(scheme, h, basis)
    assert deep


def test_exp_multiplication_operator_rejects_a_non_nilpotent_h():
    # a degree-0 term makes the series infinite; an odd term is not even
    R = _ring(2)
    scheme = derived_zero_locus(R, [R.zero, R.zero])
    e0, e1 = scheme.odd_coordinate(0), scheme.odd_coordinate(1)
    basis = scheme.basis_subsets(0)
    for h in (scheme.scalar_element(R.one), scheme.scalar_element(R.gen("x0")) + e0 * e1,
              e0, e0 * e1 + e1):
        with pytest.raises(ValueError, match="even nilpotent"):
            factorizations.exp_multiplication_operator(scheme, h, basis)
    assert factorizations.exp_multiplication_operator(scheme, e0 * e1, basis) \
        == [[R.one, R.zero], [R.one, R.one]]


def test_dg_scheme_rejects_a_polynomial_from_another_ring():
    # t + 2x of Q[t, x] has the exponent tuples of x + 2t in Q[x, t]: read
    # by position, koszul_steps pivoted on t with coefficient 2, not 1
    R, S = PolyRing(F, ["x", "t"]), PolyRing(F, ["t", "x"])
    foreign = S.gen("t") + 2 * S.gen("x")
    own = R.gen("t") + 2 * R.gen("x")
    with pytest.raises(ValueError, match="d\\(b0\\) from a different ring"):
        factorizations.DgSchemePresentation(R, [("b0", 1)], [foreign])
    with pytest.raises(ValueError, match="different ring"):
        derived_zero_locus(R, [foreign])
    with pytest.raises(ValueError, match="different ring"):
        koszul_mf(R, [own], [foreign])
    with pytest.raises(ValueError, match="different ring"):
        koszul_mf(R, [foreign], [own])
    scheme = factorizations.DgSchemePresentation(R, [("b0", 1)], [own])
    with pytest.raises(ValueError, match="different ring"):
        scheme.scalar_element(foreign)
    assert factorizations.koszul_steps(scheme, 1) == [(1, 0, F.one)]


def test_unit_mf_verifies_and_restricts():
    # rank (1|0): both composites are the zero matrix, and W = 0
    R = _ring(1)
    u = unit_mf(R)
    assert u.verify()
    at = u.restrict_to_point([F.scalar(2)])
    assert (at.rank0, at.rank1) == (1, 0) and not at.potential
    assert point_homology(u, [F.scalar(2)]) == (1, 0)
    assert point_verdict(u, [F.scalar(2)]) == NONCONTRACTIBLE


def test_matrix_factorization_rejects_entries_from_another_ring():
    # y of Q(i)[y, x] has the exponent tuple of x in Q(i)[x]: accepted by
    # position, {y, y} would pass as a factorization of W = x^2
    Fi = CyclotomicField(4)
    R, S = PolyRing(Fi, ["x"]), PolyRing(Fi, ["y", "x"])
    x, y = R.gen("x"), S.gen("y")
    gens = ([("e", 0)], [("f", 1)])
    with pytest.raises(ValueError, match="different ring"):
        factorizations.MatrixFactorization(R, *gens, [[y]], [[y]], x * x)
    with pytest.raises(ValueError, match="different ring"):
        factorizations.MatrixFactorization(R, *gens, [[x]], [[x]], S.gen("x") ** 2)
    mf = factorizations.MatrixFactorization(R, *gens, [[x]], [[x]], x * x)
    assert mf.restrict_to_point((2,)).potential == 4


def test_negative_degree_bound_rejected():
    R = _ring(1)
    x = R.gen("x0")
    mf = koszul_mf(R, [x], [x])
    with pytest.raises(ValueError, match="degree_bound"):
        support_check(mf, [[F.one]], degree_bound=-1)


def test_nullhomotopy_solve_rejects_a_wrong_solution(wrong_solve):
    # {x, y} at (1, 0): W(p) = 0 but delta0 = 1, so the restriction is
    # contractible and its homotopy comes from the linear solve
    R = _ring(2)
    x, y = R.gens()
    mf = koszul_mf(R, [x], [y]).restrict_to_point([F.one, F.zero])
    assert not mf.potential and point_verdict(mf, ()) == CONTRACTIBLE
    with pytest.raises(CertificateError):
        nullhomotopy_solve(mf)


def test_closed_form_homotopy_rejects_a_perturbed_delta():
    # at W(p) != 0 the homotopy is delta0 / W(p); a delta0 entry changed after
    # the restricted MF was certified gives an h that fails its exact check
    R = _ring(2)
    x, y = R.gens()
    mf = koszul_mf(R, [x, y], [x, y]).restrict_to_point([F.one, F.scalar(2)])
    assert mf.potential == 5
    h0, h1 = nullhomotopy_solve(mf)
    assert h0 == [[c * Fraction(1, 5) for c in row] for row in mf.delta0]
    assert not any(c for row in h1 for c in row)
    mf.delta0 = [list(row) for row in mf.delta0]
    mf.delta0[1][0] = mf.delta0[1][0] + mf.ring.one
    with pytest.raises(CertificateError):
        nullhomotopy_solve(mf)


def _plain(mf):
    """The plain MatrixFactorization of an MF's cells, certified cell by
    cell and read from its cells at a point: a Koszul MF's cells, shared
    objects and all, without its (alpha, beta)."""
    return factorizations.MatrixFactorization(mf.ring, mf.p0_gens, mf.p1_gens,
                                              mf.delta0, mf.delta1, mf.potential)


def _koszul_and_a_unit_point(order):
    """A rank-4 Koszul MF {c_i x_i, x_i y} over Q(zeta_order) and a point
    where W(p) != 0."""
    field = CyclotomicField(order)
    R = PolyRing(field, ["x0", "x1", "y"], [1, 1, 1])
    x0, x1, y = R.gens()
    c = [1 + field.zeta, 2 - field.zeta ** 2]
    mf = koszul_mf(R, [c[0] * x0, c[1] * x1], [x0 * y, x1 * y])
    return mf, [1 + field.zeta, field.scalar(3), 2 - field.zeta]


def _koszul_at_a_unit_point(order):
    """The MF of ``_koszul_and_a_unit_point``, restricted to its point."""
    mf, point = _koszul_and_a_unit_point(order)
    at = mf.restrict_to_point(point)
    assert at.potential and at.rank0 == at.rank1 == 2
    return at


@pytest.mark.parametrize("order", [4, 7, 12])
def test_one_composite_homotopy_rejects_a_wrong_inverse_or_a_perturbed_delta0(
        order, monkeypatch):
    # at W(p) != 0 the certificate is delta1 h0 = id alone: h0 = delta0 / W(p)
    # with a wrong W(p)^-1, or with any one delta0 entry changed after the
    # restriction was certified, fails it
    at = _koszul_at_a_unit_point(order)
    field = at.ring.field
    h0, h1 = nullhomotopy_solve(at)
    assert not any(c for row in h1 for c in row)
    inverse = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda s: inverse(s) * (1 + field.zeta))
    with pytest.raises(CertificateError):
        nullhomotopy_solve(at)
    monkeypatch.setattr(Scalar, "inverse", inverse)
    for i, j in product(range(at.rank1), range(at.rank0)):
        bad = copy.copy(at)
        bad.delta0 = [list(row) for row in at.delta0]
        bad.delta0[i][j] = bad.delta0[i][j] + at.ring.constant(field.zeta)
        with pytest.raises(CertificateError):
            nullhomotopy_solve(bad)
    assert nullhomotopy_solve(at) == (h0, h1)


def test_support_check_certifies_a_unit_point_with_one_exact_product(monkeypatch):
    # a plain MF, where W(p) != 0: the homotopy's one composite,
    # delta1 h0 = id, and no restriction; where W(p) = 0: the restriction's
    # two delta^2 composites, then the homotopy's two blocks at a
    # contractible point.  A Koszul MF, where W(p) != 0: no product at all,
    # two scalar checks; where W(p) = 0: the restriction's one 1 x n check
    # sum_k alpha_k(p) beta_k(p) = 0, then the same two blocks
    calls = []
    first_mismatch = linalg.first_mismatch

    def counting(*args):
        calls.append(args)
        return first_mismatch(*args)

    R = _ring(2)
    x, y = R.gens()
    koszul = koszul_mf(R, [x], [y])  # W = x y
    unit = _koszul_at_a_unit_point(7)
    monkeypatch.setattr(linalg, "first_mismatch", counting)
    for mf, counts in ((_plain(koszul), (1, 4, 4, 2)), (koszul, (0, 3, 3, 1))):
        for point, verdict, want in zip(([F.one, F.one], [F.one, F.zero],
                                         [F.zero, F.one], [F.zero, F.zero]),
                                        (CONTRACTIBLE,) * 3 + (NONCONTRACTIBLE,), counts):
            calls.clear()
            (entry,) = support_check(mf, [point])
            assert entry["verdict"] == verdict and len(calls) == want, (point, len(calls))
    # an MF over the point base is read from its cells, Koszul or not
    calls.clear()
    assert nullhomotopy_solve(unit) is not None and len(calls) == 1


@pytest.mark.parametrize("order", [4, 7, 12])
def test_support_check_rejects_a_wrong_inverse_or_a_perturbed_value_at_a_unit_point(
        order, monkeypatch):
    # where W(p) != 0, support_check builds no restricted MF: for a plain MF,
    # delta1(p) h0 = id with h0 = delta0(p) / W(p) is the one check of
    # delta's values, so a wrong W(p)^-1, or any one value of delta0 or
    # delta1 changed, fails it; for a Koszul MF, W(p) W(p)^-1 = 1 fails
    koszul, point = _koszul_and_a_unit_point(order)
    mf = _plain(koszul)
    field = mf.ring.field
    (want,) = support_check(mf, [point])
    assert want["verdict"] == CONTRACTIBLE and want["certificate"] is not None
    assert support_check(koszul, [point]) == [want]
    inverse = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda s: inverse(s) * (1 + field.zeta))
    for m in (mf, koszul):
        with pytest.raises(CertificateError):
            support_check(m, [point])
    monkeypatch.setattr(Scalar, "inverse", inverse)
    at_point = factorizations._at_point
    for k, m in enumerate((mf.delta0, mf.delta1)):
        for i, j in product(range(len(m)), range(len(m[0]))):

            def perturbed(mf, point, k=k, i=i, j=j):
                w, deltas, restricted = at_point(mf, point)

                def values():
                    d = [[list(row) for row in rows] for rows in deltas()]
                    d[k][i][j] = d[k][i][j] + w.ring.constant(field.zeta)
                    return d

                return w, values, restricted

            monkeypatch.setattr(factorizations, "_at_point", perturbed)
            with pytest.raises(CertificateError):
                support_check(mf, [point])
    monkeypatch.setattr(factorizations, "_at_point", at_point)
    assert support_check(mf, [point]) == support_check(koszul, [point]) == [want]


@pytest.mark.parametrize("n0, n1", [(1, 2), (2, 1)])
def test_matrix_factorization_rejects_unequal_ranks_where_w_is_a_unit(n0, n1):
    # delta1 delta0 = W . id holds, but with W = 1 a certified MF is square
    # (both deltas are injective), and ``verify`` checks delta0 delta1 too
    point = PolyRing(F, [])
    one, zero = point.one, point.zero
    delta0 = [[one if i == j else zero for j in range(n0)] for i in range(n1)]
    delta1 = [[one if i == j else zero for j in range(n1)] for i in range(n0)]
    gens = ([Generator(f"e{i}", 0) for i in range(n0)],
            [Generator(f"f{i}", 1) for i in range(n1)])
    with pytest.raises(CertificateError):
        factorizations.MatrixFactorization(point, *gens, delta0, delta1, one)
    # the composite on the smaller side is W . id
    small = linalg.identity(point, min(n0, n1))
    pair = (delta1, delta0) if n0 < n1 else (delta0, delta1)
    assert linalg.first_mismatch([pair], small, F) is None


def _reference_support_check(mf, points, with_certificates):
    """The restricting reference: with certificates, restrict to the point,
    then ``point_verdict`` and ``nullhomotopy_solve`` on the restriction;
    without, ``point_verdict`` on the MF and the point."""
    report = []
    for point in points:
        restricted, at = (mf.restrict_to_point(point), ()) if with_certificates \
            else (mf, point)
        verdict = point_verdict(restricted, at)
        cert = None
        if verdict == CONTRACTIBLE and with_certificates:
            cert = nullhomotopy_solve(restricted)
            assert cert is not None
        report.append({"point": tuple(point), "verdict": verdict, "certificate": cert})
    return report


@pytest.mark.parametrize("order", [4, 7, 12])
def test_support_check_matches_the_restricting_reference(order, monkeypatch):
    # {c_i x_i, x_i y} of rank 2 and 4 at units of W, at contractible zeros
    # (y = 0) and at noncontractible points (x = 0): the same verdicts and
    # homotopies, entry for entry; and on each MF over the point base at ()
    # the same, read as it is: no restriction, no second verify
    field = CyclotomicField(order)
    rng = random.Random(f"support-reference:{order}")
    verified = []
    for cls in (factorizations.MatrixFactorization, factorizations.KoszulMF):

        def recording_verify(self, verify=cls.verify):
            verified.append(self)
            return verify(self)

        monkeypatch.setattr(cls, "verify", recording_verify)
    for n in (2, 3):
        ring = PolyRing(field, [f"x{i}" for i in range(n)] + ["y"])
        xs, y = ring.gens()[:n], ring.gens()[n]
        mf = koszul_mf(ring, [_random_scalar(rng, field) * x for x in xs],
                       [x * y for x in xs])
        assert mf.rank0 == 2 ** (n - 1)
        rand = lambda k: [_random_scalar(rng, field) for _ in range(k)]
        points = [rand(n + 1), rand(n + 1), rand(n) + [field.zero],
                  [field.zero] * n + rand(1)]
        kinds = [(bool(mf.potential.evaluate(p)), point_verdict(mf, p)) for p in points]
        assert kinds == [(True, CONTRACTIBLE)] * 2 + [(False, CONTRACTIBLE),
                                                      (False, NONCONTRACTIBLE)]
        for with_certificates in (True, False):
            want = _reference_support_check(mf, points, with_certificates)
            verified.clear()
            assert support_check(mf, points, with_certificates=with_certificates) == want
            # one restriction per zero of W, the Koszul MF of alpha(p), beta(p)
            assert [type(m) for m in verified] == [factorizations.KoszulMF] * 2
        for p in points:
            at = mf.restrict_to_point(p)
            for with_certificates in (True, False):
                want = _reference_support_check(at, [()], with_certificates)
                verified.clear()
                assert support_check(at, [()], with_certificates=with_certificates) == want
                assert verified == []


def _three_kinds_of_points(order):
    """``_koszul_and_a_unit_point``'s MF and three points of it: a unit of
    W, a contractible zero of W (y = 0) and a noncontractible one (x = 0)."""
    mf, unit = _koszul_and_a_unit_point(order)
    zero = mf.ring.field.zero
    return mf, [unit, unit[:2] + [zero], [zero, zero, unit[2]]]


@pytest.mark.parametrize("order", [4, 7])
def test_point_memo_rejects_a_perturbed_mf_at_a_shared_point(order):
    # the memo of a point's substituter holds what depends on the ring and
    # the point alone: a second MF over the same ring, at the same point,
    # reads its own values, and the first MF's report stays as it was.  A
    # plain MF reads its own delta(p), so a negated delta0 entry fails its
    # certificate; a Koszul MF its own alpha(p), beta(p), so a negated
    # alpha_k fails sum_k alpha_k(p) beta_k(p) = W(p) where beta_k(p) != 0
    koszul, points = _three_kinds_of_points(order)
    mf = _plain(koszul)
    for point in points[:2]:
        want = support_check(mf, [point])
        assert support_check(koszul, [point]) == want
        i, j = next((i, j) for i, row in enumerate(mf.delta0)
                    for j, c in enumerate(row) if c.evaluate(point))
        bad = copy.copy(mf)
        bad.delta0 = [list(row) for row in mf.delta0]
        bad.delta0[i][j] = -bad.delta0[i][j]
        with pytest.raises(CertificateError):
            support_check(bad, [point])
        assert support_check(mf, [point]) == want
    unit = points[0]
    (want,) = support_check(koszul, [unit])
    for k in range(len(koszul.alpha)):
        assert koszul.alpha[k].evaluate(unit) and koszul.beta[k].evaluate(unit)
        bad = copy.copy(koszul)
        bad.alpha = list(koszul.alpha)
        bad.alpha[k] = -bad.alpha[k]
        with pytest.raises(CertificateError):
            support_check(bad, [unit])
        assert support_check(koszul, [unit]) == [want]


def test_point_memo_key_is_canonical_for_ints_and_scalars(monkeypatch):
    # a point given as ints, as Fractions and as Scalars is one memo key:
    # one table for the three, and the same report
    field = CyclotomicField(4)
    R = PolyRing(field, ["x0", "x1", "y"])
    x0, x1, y = R.gens()
    mf = koszul_mf(R, [(1 + field.zeta) * x0, 3 * x1], [x0 * y, x1 * y])
    built = []
    table = poly._monomial_table
    monkeypatch.setattr(poly, "_monomial_table", lambda *a: built.append(a) or table(*a))
    for ints in ([1, 3, 2], [1, -2, 0], [0, 0, 5]):
        forms = (ints, [Fraction(v) for v in ints], [field.scalar(v) for v in ints])
        for with_certificates in (True, False):
            poly._point_substituter.cache_clear()
            built.clear()
            reports = [support_check(mf, [p], with_certificates=with_certificates)
                       for p in forms]
            assert reports[0] == reports[1] == reports[2] and len(built) == 1
            assert reports[0][0]["verdict"] == (NONCONTRACTIBLE if ints[0] == 0
                                                else CONTRACTIBLE)


def test_support_check_reports_every_flipped_verdict_or_rejects_it(monkeypatch):
    # every verdict is ``point_verdict``'s, looked up by name: flipped, it
    # flips each reported verdict; with certificates a flipped contractible
    # verdict has none, and a flipped noncontractible one has no homotopy
    mf, points = _three_kinds_of_points(7)
    honest = [point_verdict(mf, p) for p in points]
    assert honest == [CONTRACTIBLE, CONTRACTIBLE, NONCONTRACTIBLE]
    flip = {CONTRACTIBLE: NONCONTRACTIBLE, NONCONTRACTIBLE: CONTRACTIBLE}
    verdict = factorizations.point_verdict
    monkeypatch.setattr(factorizations, "point_verdict", lambda m, p: flip[verdict(m, p)])
    report = support_check(mf, points, with_certificates=False)
    assert [r["verdict"] for r in report] == [flip[v] for v in honest]
    report = support_check(mf, points[:2], with_certificates=True)
    assert [(r["verdict"], r["certificate"]) for r in report] == [(NONCONTRACTIBLE, None)] * 2
    with pytest.raises(CertificateError, match="no contracting homotopy"):
        support_check(mf, points[2:], with_certificates=True)


def test_support_check_at_a_unit_point_builds_one_table_no_mf_one_product_check(monkeypatch):
    # the verdict re-reads W(p) from the point's table, and the certificate
    # is the one composite delta1(p) h0 = id for a plain MF, two scalar
    # checks and no product for a Koszul MF: counted, not timed
    koszul, point = _koszul_and_a_unit_point(7)
    counts = Counter()

    def count(patch, owner, name):
        f = getattr(owner, name)
        patch.setattr(owner, name, lambda *a: counts.update([name]) or f(*a))

    for mf, want in ((_plain(koszul), {"_monomial_table": 1, "first_mismatch": 1}),
                     (koszul, {"_monomial_table": 1})):
        with monkeypatch.context() as patch:
            count(patch, poly, "_monomial_table")
            count(patch, factorizations.MatrixFactorization, "__init__")
            count(patch, factorizations.KoszulMF, "__init__")
            count(patch, linalg, "first_mismatch")
            counts.clear()
            poly._point_substituter.cache_clear()
            (entry,) = support_check(mf, [point])
        assert entry["verdict"] == CONTRACTIBLE and entry["certificate"] is not None
        assert counts == want, type(mf)


def test_unit_homotopy_inverts_once_multiplies_no_scalar_and_shares_one_identity(
        monkeypatch):
    # the count guard above, carried into ``_unit_homotopy``: W(p) is
    # inverted once and no Scalar product is taken for h0.  A plain MF's
    # identity that its check is against holds one object on its diagonal,
    # so ``first_mismatch`` sees one distinct entry in it; a Koszul MF's
    # checks take n + 1 Scalar products, sum_k alpha_k(p) beta_k(p) and
    # W(p) W(p)^-1, and no ``first_mismatch``
    koszul, point = _koszul_and_a_unit_point(7)
    mf = _plain(koszul)
    counts, targets, inside = Counter(), [], []

    def count(owner, name, record=None):
        f = getattr(owner, name)

        def counted(*a):
            if inside:
                counts.update([name])
                if record is not None:
                    record.append(a[1])
            return f(*a)

        monkeypatch.setattr(owner, name, counted)

    for name in ("inverse", "__mul__", "__rmul__"):
        count(Scalar, name)
    count(linalg, "first_mismatch", targets)
    unit_homotopy = factorizations._unit_homotopy

    def watched(*a):
        inside.append(True)
        try:
            return unit_homotopy(*a)
        finally:
            inside.pop()

    monkeypatch.setattr(factorizations, "_unit_homotopy", watched)
    (entry,) = support_check(koszul, [point])
    assert entry["verdict"] == CONTRACTIBLE and entry["certificate"] is not None
    assert counts == {"inverse": 1, "__mul__": len(koszul.alpha) + 1} and targets == []
    counts.clear()
    assert support_check(mf, [point]) == [entry]
    assert counts == {"inverse": 1, "first_mismatch": 1}
    (target,) = targets
    assert len({id(c) for row in target for c in row if c}) == 1
    for base in (mf.ring, mf.ring.field, PolyRing(mf.ring.field, [])):
        for n in (1, 2, 4):
            ident = linalg.identity(base, n)
            assert len({id(ident[i][i]) for i in range(n)}) == 1
            assert all(ident[i][j] == (base.one if i == j else base.zero)
                       for i in range(n) for j in range(n))


@pytest.mark.parametrize("order", [4, 7, 12])
def test_integer_h0_equals_the_scalar_product_h0(order):
    # at seeded unit points of {c_i x_i, x_i y} of rank 2 and 4, h0 scaled
    # by integer products equals ring.constant(delta0(p) * W(p)^-1) entry for
    # entry, its Scalars' ints and den included, and h1 is zero: from the
    # cells of delta(p), and from the Koszul values alpha(p), beta(p)
    field = CyclotomicField(order)
    rng = random.Random(f"integer-h0:{order}")
    for n in (2, 3):
        ring = PolyRing(field, [f"x{i}" for i in range(n)] + ["y"])
        xs, y = ring.gens()[:n], ring.gens()[n]
        mf = koszul_mf(ring, [_random_scalar(rng, field) * x for x in xs],
                       [x * y for x in xs])
        assert mf.rank0 == 2 ** (n - 1)
        for _ in range(4):
            point = [_random_scalar(rng, field) for _ in range(n + 1)]
            w, deltas, _ = factorizations._at_point(_plain(mf), point)
            w_koszul, values, _ = factorizations._at_point(mf, point)
            assert w and w_koszul == w
            delta0, delta1 = deltas()
            inv = w.constant_value().inverse()
            want = [[w.ring.constant(c.constant_value() * inv) for c in row]
                    for row in delta0]
            for h0, h1 in (factorizations._unit_homotopy(w, delta0, delta1),
                           factorizations._unit_homotopy(w, *values(), True)):
                assert h0 == want and not any(c for row in h1 for c in row)
                assert (len(h1), len(h1[0])) == (mf.rank0, mf.rank1)
                for got_row, want_row in zip(h0, want):
                    for got, ref in zip(got_row, want_row):
                        assert list(got.terms) == list(ref.terms)
                        for g, r in zip(got.terms.values(), ref.terms.values()):
                            assert (type(g.ints), g.ints, g.den) == (tuple, r.ints, r.den)


# -- a Koszul MF at a point ------------------------------------------------


def _linear_koszul(rng, field, n):
    """K{alpha, beta} over Q(zeta_N)[x0.., y0..] with alpha_k = c_k x_k and
    beta_k = e_k y_k, c_k and e_k seeded and nonzero: alpha_k(p) = 0 iff
    x_k = 0, and beta_k(p) = 0 iff y_k = 0."""
    ring = PolyRing(field, [f"x{k}" for k in range(n)] + [f"y{k}" for k in range(n)])
    xs, ys = ring.gens()[:n], ring.gens()[n:]
    return koszul_mf(ring, [_random_scalar(rng, field) * x for x in xs],
                     [_random_scalar(rng, field) * y for y in ys])


def _koszul_points(rng, mf):
    """Seeded points of ``_linear_koszul``'s MF, each with its
    (W(p) != 0, verdict): a generic point; alpha_0(p) = 0; beta_0(p) = 0;
    for n >= 2 a zero of W with alpha_0, alpha_1, beta_0, beta_1 nonzero
    at p (y_1 solves alpha_0 beta_0 + alpha_1 beta_1 = 0); a zero of W with
    beta(p) = 0; and alpha(p) = beta(p) = 0."""
    field, n = mf.ring.field, len(mf.alpha)
    rand = lambda k: [_random_scalar(rng, field) for _ in range(k)]
    zero = field.zero
    points = [(rand(2 * n), (True, CONTRACTIBLE)),
              ([zero] + rand(2 * n - 1), (n >= 2, CONTRACTIBLE)),
              (rand(n) + [zero] + rand(n - 1), (n >= 2, CONTRACTIBLE)),
              (rand(n) + [zero] * n, (False, CONTRACTIBLE)),
              ([zero] * (2 * n), (False, NONCONTRACTIBLE))]
    if n >= 2:
        p = rand(2) + [zero] * (n - 2) + rand(1) + [field.one] + [zero] * (n - 2)
        a0, a1, b0, e1 = (c.evaluate(p) for c in mf.alpha[:2] + mf.beta[:2])
        p[n + 1] = -(a0 * b0) / (a1 * e1)
        points.insert(3, (p, (False, CONTRACTIBLE)))
    for p, kind in points:
        assert (bool(mf.potential.evaluate(p)), point_verdict(mf, p)) == kind, (n, p)
    return [p for p, _ in points]


@pytest.mark.parametrize("order", [1, 4, 7, 12])
def test_koszul_mf_at_a_point_equals_the_mf_of_its_cells(order):
    """On a seeded corpus, n <= 5, a Koszul MF (read from alpha(p), beta(p),
    certified by sum_k alpha_k(p) beta_k(p) = W(p)) and the plain MF of its
    cells (read and certified cell by cell) give the same report of
    ``support_check``, with and without certificates, verdicts and h0, h1
    entry for entry; the same ``point_homology``; and the same restriction,
    gens, cells and W.  At n = 5 the W(p) = 0 contractible points are
    certified for n <= 4 only: each solve has 2 . 16^2 unknowns."""
    field = CyclotomicField(order)
    rng = random.Random(f"koszul-at-a-point:{order}")
    for n in range(1, 6):
        koszul = _linear_koszul(rng, field, n)
        plain = _plain(koszul)
        points = _koszul_points(rng, koszul)
        solvable = [p for p in points if n <= 4 or koszul.potential.evaluate(p)
                    or point_verdict(koszul, p) == NONCONTRACTIBLE]
        for with_certificates, pts in ((False, points), (True, solvable)):
            want = support_check(plain, pts, with_certificates=with_certificates)
            assert support_check(koszul, pts, with_certificates=with_certificates) == want
        for p in points:
            assert point_homology(koszul, p) == point_homology(plain, p)
            at, want = koszul.restrict_to_point(p), plain.restrict_to_point(p)
            assert isinstance(at, factorizations.KoszulMF)
            _assert_same_mf(at, want)


def _perturbing(monkeypatch, value=None, potential=None):
    """Patch ``_at_point`` so that a Koszul MF's values at p read
    ``value(alpha(p), beta(p))`` and its W(p) reads ``potential(W(p))``,
    the restriction built from what is read."""
    at_point = factorizations._at_point

    def perturbed(mf, point):
        w, values, _ = at_point(mf, point)
        w = potential(w) if potential else w
        read = (lambda: value(*values())) if value else values
        return w, read, lambda: factorizations.KoszulMF(w.ring, mf.odd_gens, *read(), w)

    monkeypatch.setattr(factorizations, "_at_point", perturbed)


@pytest.mark.parametrize("order", [1, 4, 7, 12])
def test_koszul_point_certificate_rejects_a_wrong_inverse_value_potential_or_datum(
        order, monkeypatch):
    """Every way a Koszul MF's values at a point can be wrong is a
    CertificateError, at a unit of W (the two scalar checks of
    ``_unit_homotopy``) and, where it applies there, at a zero of W where
    alpha_0, alpha_1, beta_0, beta_1 are nonzero (the restriction's
    sum_k alpha_k(p) beta_k(p) = W(p)): a wrong W(p)^-1 (units only); an
    alpha_k(p) or beta_k(p) off by zeta + 1 where its partner is nonzero; a
    W(p) off by zeta + 1; and an alpha_k or beta_k changed after the Koszul
    MF was built, nonzero at p, where its partner is nonzero."""
    field = CyclotomicField(order)
    rng = random.Random(f"koszul-rejects:{order}")
    mf = _linear_koszul(rng, field, 3)
    points = _koszul_points(rng, mf)
    unit, zero = points[0], points[3]
    assert mf.potential.evaluate(unit) and not mf.potential.evaluate(zero)
    want = [support_check(mf, [p]) for p in (unit, zero)]
    off = 1 + field.zeta
    inverse = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda s: inverse(s) * off)
    with pytest.raises(CertificateError):
        support_check(mf, [unit])
    monkeypatch.setattr(Scalar, "inverse", inverse)
    for side, k in product((0, 1), (0, 1)):

        def value(alpha, beta, side=side, k=k):
            values = [list(alpha), list(beta)]
            values[side][k] = values[side][k] + values[side][k].ring.constant(off)
            return values

        with monkeypatch.context() as patch:
            _perturbing(patch, value=value)
            for p in (unit, zero):
                with pytest.raises(CertificateError):
                    support_check(mf, [p])
    with monkeypatch.context() as patch:
        _perturbing(patch, potential=lambda w: w + w.ring.constant(off))
        for p in (unit, zero):
            with pytest.raises(CertificateError):
                support_check(mf, [p])
    x0, x1 = mf.ring.gens()[:2]
    for side, k in product(("alpha", "beta"), (0, 1)):
        bad = copy.copy(mf)
        setattr(bad, side, list(getattr(mf, side)))
        getattr(bad, side)[k] = getattr(bad, side)[k] + x0 * x1
        for p in (unit, zero):
            with pytest.raises(CertificateError):
                support_check(bad, [p])
            with pytest.raises(CertificateError):
                bad.restrict_to_point(p)
    assert [support_check(mf, [p]) for p in (unit, zero)] == want


def test_koszul_mf_at_a_point_substitutes_alpha_beta_and_w_and_checks_no_product(
        monkeypatch):
    """The count guard of the Koszul path, on the ``support`` workload's
    shape {c_i x_i, x_i y}, n = 3.  At a unit of W the point's substituter
    is applied to W (twice: ``point_verdict`` re-reads it), then to each
    alpha_k and beta_k once, and to nothing else, and no ``first_mismatch``
    is called.  At a zero of W the restriction is certified by one 1 x n by
    n x 1 ``first_mismatch`` against [[W(p)]], not by two rank-r ones."""
    field = CyclotomicField(7)
    ring = PolyRing(field, ["x0", "x1", "x2", "y"])
    xs, y = ring.gens()[:3], ring.gens()[3]
    mf = koszul_mf(ring, [(1 + field.zeta ** k) * x for k, x in enumerate(xs, 1)],
                   [x * y for x in xs])
    substituted, products = [], []
    substituter, first_mismatch = poly.substituter, linalg.first_mismatch

    def recording(*args):
        sub = substituter(*args)
        return lambda p: substituted.append(p) or sub(p)

    def counting(pairs, target, field):
        products.append([(len(a), len(b), len(b[0])) for a, b in pairs])
        return first_mismatch(pairs, target, field)

    monkeypatch.setattr(poly, "substituter", recording)
    monkeypatch.setattr(linalg, "first_mismatch", counting)
    try:
        for point, with_certificates, want in (
                ([2, -1, 3, 1 + field.zeta], True, []),
                ([0, 0, 0, 5], True, [[(1, 3, 1)]]),
                ([2, 1, -1, 0], False, [[(1, 3, 1)]])):
            poly._point_substituter.cache_clear()
            substituted.clear()
            products.clear()
            (entry,) = support_check(mf, [point], with_certificates=with_certificates)
            assert entry["verdict"] == (NONCONTRACTIBLE if point[0] == 0 else CONTRACTIBLE)
            assert products == want, point
            assert [id(p) for p in substituted] == \
                [id(mf.potential)] * (2 if point[3] and point[0] else 1) + \
                [id(c) for c in mf.alpha + mf.beta], point
        assert entry["certificate"] is None
    finally:
        poly._point_substituter.cache_clear()


@pytest.mark.parametrize("kind", ["plain", "koszul"])
def test_a_point_of_the_wrong_length_raises_a_value_error_naming_both_lengths(kind):
    field = CyclotomicField(4)
    R = PolyRing(field, ["x", "y"])
    x, y = R.gens()
    mf = koszul_mf(R, [x], [y])
    mf = _plain(mf) if kind == "plain" else mf
    for point in ([1], [1, 2, 3], []):
        for call in (lambda: support_check(mf, [point]),
                     lambda: support_check(mf, [point], with_certificates=False),
                     lambda: point_homology(mf, point),
                     lambda: point_verdict(mf, point),
                     lambda: mf.restrict_to_point(point)):
            with pytest.raises(ValueError,
                               match=rf"one scalar per variable \(2\), got {len(point)}$"):
                call()
    assert support_check(mf, [[1, 2]])[0]["verdict"] == CONTRACTIBLE


def test_nullhomotopy_solve_needs_the_point_base():
    R = _ring(1)
    x = R.gen("x0")
    with pytest.raises(ValueError, match="point base"):
        nullhomotopy_solve(koszul_mf(R, [x], [x]))


def _reference_homotopy_system(mf, degree_bound=4):
    """The polynomial search for a contracting homotopy of entries of total
    degree <= the bound: (matrix, rhs, shifts).  The unknowns are h0's entries
    row-major, then h1's, each a combination of the monomials ``shifts``;
    there is one equation per (block, i, j, exponent) of
    delta h + h delta = id, in sorted order."""
    ring = mf.ring
    field = ring.field
    n0, n1 = mf.rank0, mf.rank1
    target0, target1 = linalg.identity(ring, n0), linalg.identity(ring, n1)
    shifts = [e for total in range(degree_bound + 1)
              for e in exponents_of_weight([1] * ring.nvars, total)]
    nvars_h0 = n1 * n0 * len(shifts)
    nvars_h1 = n0 * n1 * len(shifts)
    h0_var = lambda i, j, k: (i * n0 + j) * len(shifts) + k
    h1_var = lambda i, j, k: nvars_h0 + (i * n1 + j) * len(shifts) + k
    equations = {}  # (block, i, j, exponent) -> row dict var -> Scalar

    def add_term(block, i, j, poly, var, shift):
        for e, c in poly.terms.items():
            key = (block, i, j, tuple([a + b for a, b in zip(e, shift)]))
            row = equations.setdefault(key, {})
            row[var] = row[var] + c if var in row else c

    for i in range(n0):  # delta1 h0 + h1 delta0 = id on P0
        for j in range(n0):
            for k in range(n1):
                for mi, shift in enumerate(shifts):
                    add_term(0, i, j, mf.delta1[i][k], h0_var(k, j, mi), shift)
                    add_term(0, i, j, mf.delta0[k][j], h1_var(i, k, mi), shift)
    for i in range(n1):  # delta0 h1 + h0 delta1 = id on P1
        for j in range(n1):
            for k in range(n0):
                for mi, shift in enumerate(shifts):
                    add_term(1, i, j, mf.delta0[i][k], h1_var(k, j, mi), shift)
                    add_term(1, i, j, mf.delta1[k][j], h0_var(i, k, mi), shift)
    rhs_map = {}
    for block, target in ((0, target0), (1, target1)):
        for i, row in enumerate(target):
            for j, p in enumerate(row):
                for e, c in p.terms.items():
                    rhs_map[(block, i, j, e)] = c
    matrix, rhs = [], []
    for key in sorted(set(equations) | set(rhs_map)):
        row = [field.zero] * (nvars_h0 + nvars_h1)
        for var, c in equations.get(key, {}).items():
            row[var] = c
        matrix.append(row)
        rhs.append(rhs_map.get(key, field.zero))
    return matrix, rhs, shifts


def _reference_nullhomotopy(mf, degree_bound=4):
    """(h0, h1) from one exact solve of ``_reference_homotopy_system``,
    free unknowns set to 0; None if it has no solution."""
    ring = mf.ring
    n0, n1 = mf.rank0, mf.rank1
    matrix, rhs, shifts = _reference_homotopy_system(mf, degree_bound)
    sol = linalg.solve(matrix, rhs, ring.field) if matrix else []
    if sol is None:
        return None
    combo = lambda base: Poly(ring, {e: sol[base + k] for k, e in enumerate(shifts)})
    h0 = [[combo((i * n0 + j) * len(shifts)) for j in range(n0)] for i in range(n1)]
    h1 = [[combo((n1 * n0 + i * n1 + j) * len(shifts)) for j in range(n1)]
          for i in range(n0)]
    return h0, h1


@pytest.mark.parametrize("order", [4, 7, 12])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_nullhomotopy_solve_matches_the_polynomial_search(order, n):
    # {c_i x_i, x_i y} of rank 2^(n-1) at a generic point (W != 0, closed
    # form), at y = 0 with x != 0 (W = 0 but contractible: the solve), and
    # at x = 0 (noncontractible: both None)
    field = CyclotomicField(order)
    rng = random.Random(f"homotopy:{order}:{n}")
    ring = PolyRing(field, [f"x{i}" for i in range(n)] + ["y"])
    xs, y = ring.gens()[:n], ring.gens()[n]
    mf = koszul_mf(ring, [_random_scalar(rng, field) * x for x in xs],
                   [x * y for x in xs])
    assert mf.rank0 == mf.rank1 == 2 ** (n - 1)
    rand = lambda k: [_random_scalar(rng, field) for _ in range(k)]
    points = [rand(n + 1), rand(n) + [field.zero], [field.zero] * n + rand(1)]
    for point, w_zero, contractible in zip(points, (False, True, True),
                                           (True, True, False)):
        at = mf.restrict_to_point(point)
        assert (not at.potential) == w_zero
        assert (point_verdict(at, ()) == CONTRACTIBLE) == contractible
        got, want = nullhomotopy_solve(at), _reference_nullhomotopy(at)
        if not contractible:
            assert got is None and want is None
            continue
        assert got is not None and got == want
        if not w_zero:
            inv = at.ring.constant(at.potential.constant_value().inverse())
            assert got[0] == [[c * inv for c in row] for row in at.delta0]
            assert not any(c for row in got[1] for c in row)


def test_support_check_raises_when_solver_and_verdict_disagree(monkeypatch):
    # {x, y} at (1, 0): W(p) = 0 but delta0(p) = 1, a contractible zero of W,
    # the only kind of point where the solver is asked
    R = _ring(2)
    x, y = R.gens()
    mf = koszul_mf(R, [x], [y])
    point = [F.one, F.zero]
    monkeypatch.setattr(factorizations, "nullhomotopy_solve",
                        lambda mf: None)
    with pytest.raises(CertificateError):
        support_check(mf, [point])
    # without certificates the solver is never asked
    assert support_check(mf, [point], with_certificates=False)[0]["verdict"] \
        == CONTRACTIBLE


def test_gauge_intertwiner_rejects_a_wrong_operator(monkeypatch):
    R = _ring(2)
    x, y = R.gen("x0"), R.gen("x1")
    scheme = derived_zero_locus(R, [x, y])
    e0, e1 = scheme.odd_coordinate(0), scheme.odd_coordinate(1)
    f_a = x * e0 + y * e1
    f_b = f_a + scheme.d(scheme.scalar_element(R.one) * e0 * e1)
    exact = factorizations.exp_multiplication_operator
    two = R.constant(F.scalar(2))
    for first in ((), (0,)):  # double E on the even, then on the odd part

        def doubled_on_one_part(scheme, h, basis, first=first):
            m = exact(scheme, h, basis)
            return [[two * c for c in row] for row in m] if basis[0] == first else m

        monkeypatch.setattr(factorizations, "exp_multiplication_operator",
                            doubled_on_one_part)
        with pytest.raises(CertificateError,
                           match=r"delta_b0 o E0 != E1 o delta_a0 at entry \(0,0\)"):
            gauge_intertwiner(scheme, f_a, f_b)


# -- the sparse certificate kernel against a dense reference ---------------


def _random_scalar(rng, field):
    """A nonzero Scalar with non-integer denominators; rational now and then."""
    while True:
        coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 2 ** 31 - 1]))
                  for _ in range(field.degree)]
        if rng.random() < 0.3:
            coeffs[1:] = [0] * (field.degree - 1)
        if any(coeffs):
            return field.from_coeffs(coeffs)


def _random_poly(rng, ring, density=0.35):
    if rng.random() > density:
        return ring.zero
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        terms[e] = _random_scalar(rng, ring.field)
    return Poly(ring, terms)


def _random_matrix(rng, ring, rows, cols, density=0.35):
    return [[_random_poly(rng, ring, density) for _ in range(cols)] for _ in range(rows)]


def _dense_sum(products, ring, rows, cols):
    """sum(a . b) by the dense triple loop over Poly entries."""
    out = [[ring.zero] * cols for _ in range(rows)]
    for a, b in products:
        for i in range(rows):
            for k in range(len(b)):
                for j in range(cols):
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def _first_difference(x, y):
    return next(((i, j) for i in range(len(x)) for j in range(len(x[i]))
                 if x[i][j] != y[i][j]), None)


@pytest.mark.parametrize("order", [4, 7, 12])
def test_first_mismatch_matches_dense_reference(order):
    field = CyclotomicField(order)
    ring = PolyRing(field, ["x", "y"], [1, 1])
    rng = random.Random(order)
    shifted_terms = 0
    for trial in range(12):
        n, m, p = rng.randint(1, 6), rng.randint(0, 6), rng.randint(1, 6)
        products = [(_random_matrix(rng, ring, n, m), _random_matrix(rng, ring, m, p))
                    for _ in range(rng.randint(1, 2))]
        exact = _dense_sum(products, ring, n, p)
        assert linalg.first_mismatch(products, exact, field) is None
        # perturb seeded entries: the first one in row-major order is reported
        wrong = [list(row) for row in exact]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randrange(n), rng.randrange(p)
            e = tuple(rng.randint(0, 5) for _ in range(2))
            wrong[i][j] = wrong[i][j] + Poly(ring, {e: _random_scalar(rng, field)})
        assert linalg.first_mismatch(products, wrong, field) \
            == _first_difference(wrong, exact)
        # shift the rational (zeta^0) coefficient of one existing term: the
        # difference there is nonzero in that coordinate only
        filled = [(i, j) for i in range(n) for j in range(p) if exact[i][j].terms]
        if filled:
            i, j = rng.choice(filled)
            e = rng.choice(sorted(exact[i][j].terms))
            shift = field.scalar(Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 7])))
            shifted = [list(row) for row in exact]
            shifted[i][j] = exact[i][j] + Poly(ring, {e: shift})
            assert linalg.first_mismatch(products, shifted, field) == (i, j)
            shifted_terms += 1
        # an unrelated target, mostly zero
        other = _random_matrix(rng, ring, n, p, density=0.1)
        assert linalg.first_mismatch(products, other, field) \
            == _first_difference(other, exact)
    assert shifted_terms >= 6


def test_first_mismatch_with_an_empty_inner_dimension():
    ring = _ring(1)
    a, b = [[], []], []
    zero = [[ring.zero] * 3 for _ in range(2)]
    assert linalg.first_mismatch([(a, b)], zero, F) is None
    zero[1][2] = ring.gen("x0")
    assert linalg.first_mismatch([(a, b)], zero, F) == (1, 2)


def test_first_mismatch_keeps_exponents_apart():
    # x^2 * x^2 = x^4 must not meet y, nor a higher power in the target only
    ring = _ring(2)
    x, y = ring.gens()
    a, b = [[x * x]], [[x * x]]
    assert linalg.first_mismatch([(a, b)], [[x ** 4]], F) is None
    assert linalg.first_mismatch([(a, b)], [[y]], F) == (0, 0)
    assert linalg.first_mismatch([(a, b)], [[x ** 4 + y ** 9]], F) == (0, 0)


def _uncertified(ring, delta0, delta1, potential):
    """The data of a matrix factorization that is never certified, for
    _reference_composite_error."""
    return SimpleNamespace(ring=ring, delta0=delta0, delta1=delta1, potential=potential,
                           rank0=len(delta1), rank1=len(delta0))


def _reference_composite_error(mf):
    """The first failing entry and message of the dense delta^2 check."""
    ring = mf.ring
    for a, b, n in ((mf.delta1, mf.delta0, mf.rank0), (mf.delta0, mf.delta1, mf.rank1)):
        comp = _dense_sum([(a, b)], ring, n, n)
        for i in range(n):
            for j in range(n):
                expected = mf.potential if i == j else ring.zero
                if comp[i][j] != expected:
                    return (f"delta^2 != W . id at entry ({i},{j}): "
                            f"{comp[i][j]} vs {expected}")
    return None


@pytest.mark.parametrize("seed", range(6))
def test_verify_rejects_a_perturbed_entry(seed):
    rng = random.Random(seed)
    field = CyclotomicField(rng.choice([4, 7, 12]))
    n = rng.choice([2, 3])
    ring = PolyRing(field, [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)])
    xs, ys = ring.gens()[:n], ring.gens()[n:]
    mf = koszul_mf(ring, [_random_scalar(rng, field) * x for x in xs],
                   [y * y + _random_scalar(rng, field) * x for x, y in zip(xs, ys)])
    assert mf.verify() and _reference_composite_error(mf) is None
    delta0 = [list(row) for row in mf.delta0]
    delta1 = [list(row) for row in mf.delta1]
    m = rng.choice([delta0, delta1])
    i, j = rng.randrange(len(m)), rng.randrange(len(m[0]))
    e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
    m[i][j] = m[i][j] + Poly(ring, {e: _random_scalar(rng, field)})
    expected = _reference_composite_error(_uncertified(ring, delta0, delta1, mf.potential))
    assert expected is not None
    with pytest.raises(CertificateError) as info:
        factorizations.MatrixFactorization(ring, mf.p0_gens, mf.p1_gens, delta0,
                                           delta1, mf.potential)
    assert str(info.value) == expected


def _verify_error(mf):
    """The message of MatrixFactorization.verify on mf's data, or None."""
    try:
        factorizations.MatrixFactorization.verify(mf)
    except CertificateError as e:
        return str(e)
    return None


def _perturbed(rng, mf):
    """mf's data with one entry of delta0, delta1 or the potential changed."""
    ring = mf.ring
    delta0 = [list(row) for row in mf.delta0]
    delta1 = [list(row) for row in mf.delta1]
    potential = mf.potential
    e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
    bump = Poly(ring, {e: _random_scalar(rng, ring.field)})
    m = rng.choice([m for m in (delta0, delta1) if m and m[0]] + [None])
    if m is None:
        potential = potential + bump
    else:
        i, j = rng.randrange(len(m)), rng.randrange(len(m[0]))
        m[i][j] = m[i][j] + bump
    return _uncertified(ring, delta0, delta1, potential)


@pytest.mark.parametrize("seed", range(4))
def test_verify_matches_the_two_product_reference(seed):
    """verify's verdict and message equal the dense two-product reference on
    fold, Koszul, parsed .mf and point-restricted MFs (W(p) != 0 and
    W(p) = 0), exact and perturbed; a square MF with W != 0 checks one
    composite, every other MF both."""
    rng = random.Random(seed)
    field = CyclotomicField(rng.choice([4, 7, 12]))
    n = rng.choice([1, 2])
    ring = PolyRing(field, [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)])
    xs, ys = ring.gens()[:n], ring.gens()[n:]
    koszul = koszul_mf(ring, [_random_scalar(rng, field) * x for x in xs],
                       [y * y + _random_scalar(rng, field) * x for x, y in zip(xs, ys)])
    fold = _a1_mf(rng.choice([2, 3, 4])).mf
    parsed, _ = parse_mf(write_mf(fold))
    generic = [_random_scalar(rng, field) for _ in range(2 * n)]
    mfs = [koszul, fold, parsed, unit_mf(ring),
           koszul_mf(ring, list(xs), [ring.zero] * n),
           koszul.restrict_to_point(generic),
           koszul.restrict_to_point([field.zero] * (2 * n)),
           fold.restrict_to_point([fold.ring.field.scalar(k + 2)
                                   for k in range(fold.ring.nvars)])]
    assert mfs[5].potential and not mfs[6].potential
    failures = 0
    for mf in mfs:
        assert _verify_error(mf) is None is _reference_composite_error(mf)
        for _ in range(3):
            wrong = _perturbed(rng, mf)
            expected = _reference_composite_error(wrong)
            assert _verify_error(wrong) == expected
            failures += expected is not None
    assert failures >= 12


def test_verify_rejects_a_nilpotent_pair_when_w_is_zero():
    # delta1 . delta0 = 0 = W . id, but delta0 . delta1 = [[0, 1], [0, 0]]
    R = _ring(1)
    gens = ([("e0", 0), ("e1", 0)], [("f0", 1), ("f1", 1)])
    with pytest.raises(CertificateError) as info:
        factorizations.MatrixFactorization(R, *gens, [[1, 0], [0, 0]],
                                           [[0, 1], [0, 0]], 0)
    assert str(info.value) == "delta^2 != W . id at entry (0,1): 1 vs 0"


def test_verify_rejects_a_non_square_mf_with_one_composite_equal_to_w():
    # delta1 . delta0 = x^2 = W, but delta0 . delta1 = [[x^2, 0], [0, 0]]
    R = _ring(1)
    x = R.gen("x0")
    gens = ([("e", 0)], [("f0", 1), ("f1", 1)])
    data = _uncertified(R, [[x], [R.zero]], [[x, R.zero]], x * x)
    expected = _reference_composite_error(data)
    assert expected.startswith("delta^2 != W . id at entry (1,1): 0 vs ")
    with pytest.raises(CertificateError) as info:
        factorizations.MatrixFactorization(R, *gens, data.delta0, data.delta1, x * x)
    assert str(info.value) == expected


def test_verify_checks_one_composite_for_a_square_mf_with_nonzero_w(monkeypatch):
    R = _ring(2)
    x, y = R.gens()
    calls = []
    first_mismatch = linalg.first_mismatch

    def counting(*args):
        calls.append(args)
        return first_mismatch(*args)

    monkeypatch.setattr(linalg, "first_mismatch", counting)
    # a Koszul MF checks sum_k alpha_k beta_k = W alone, W = 0 included; a
    # plain MF checks one composite when square with W != 0, else both
    for mf, want in ((koszul_mf(R, [x, y], [y, x * x]), 1),
                     (_a1_mf(3).mf, 1),
                     (koszul_mf(R, [x, y], [R.zero, R.zero]), 1),
                     (unit_mf(R), 1),
                     (factorizations.MatrixFactorization(
                         R, [("e", 0)], [("f", 1)], [[x]], [[y]], x * y), 1),
                     (factorizations.MatrixFactorization(
                         R, [("e", 0)], [("f0", 1), ("f1", 1)],
                         [[R.zero], [R.zero]], [[x, y]], R.zero), 2)):
        calls.clear()
        assert mf.verify()
        assert len(calls) == want


def _clifford_mismatches(n, order, seed):
    """Where each composite of the Koszul deltas of ``_exterior_matrix`` on
    seeded alpha, beta (n of each) first differs from
    (sum_k alpha_k beta_k) . id; (None, None) if both agree."""
    rng = random.Random(seed)
    ring = PolyRing(CyclotomicField(order), ["x", "y"])
    alpha = [_random_poly(rng, ring, density=1) for _ in range(n)]
    beta = [_random_poly(rng, ring, density=1) for _ in range(n)]
    w = sum((a * b for a, b in zip(alpha, beta)), ring.zero)
    contract = [factorizations._signed(b) for b in beta]
    wedge = [((k,), factorizations._signed(a)) for k, a in enumerate(alpha) if a]
    d0 = factorizations._exterior_matrix(n, 0, 1, contract, wedge, ring.zero)
    d1 = factorizations._exterior_matrix(n, 1, 0, contract, wedge, ring.zero)
    even, odd = (len(factorizations._subsets(n, parity)) for parity in (0, 1))
    return tuple(linalg.first_mismatch(
        [(a, b)], [[w if i == j else ring.zero for j in range(size)]
                   for i in range(size)], ring.field)
        for a, b, size in ((d1, d0, even), (d0, d1, odd)))


def test_exterior_matrix_meets_the_clifford_identity_and_rejects_a_flipped_sign(
        monkeypatch):
    """Both composites of the Koszul deltas are (sum_k alpha_k beta_k) . id
    for every n <= 7 over Q, Q(i) and Q(zeta_7), as proved in
    ``_exterior_matrix``; a writer that drops the Koszul sign, or flips it
    on one pair, fails for every n >= 2."""
    cases = [(n, order, 10 * n + order) for n in range(8) for order in (1, 4, 7)]
    for case in cases:
        assert _clifford_mismatches(*case) == (None, None), case
    merge_sign = factorizations._merge_sign
    try:
        for wrong in (lambda s, t: None if set(s) & set(t) else 1,
                      lambda s, t: (-1 if (s, t) == ((1,), (0,)) else 1) * merge_sign(s, t)
                      if not set(s) & set(t) else None):
            monkeypatch.setattr(factorizations, "_merge_sign", wrong)
            factorizations._cells.cache_clear()  # placements are memoized by shape
            for n, order, seed in cases:
                if n >= 2:
                    assert _clifford_mismatches(n, order, seed) != (None, None), (n, order)
    finally:
        monkeypatch.setattr(factorizations, "_merge_sign", merge_sign)
        factorizations._cells.cache_clear()


def _reference_exterior_matrix(sources, targets, contract, wedge, zero):
    """The index map as ``_exterior_matrix`` wrote it before its placements
    were memoized: every cell placed from the basis lists on each call."""
    rows = {s: i for i, s in enumerate(targets)}
    out = [[zero] * len(sources) for _ in targets]
    for j, s in enumerate(sources):
        for pos, k in enumerate(s):
            c = contract[k]
            if c:
                out[rows[s[:pos] + s[pos + 1:]]][j] = c[pos % 2]
        for t, g in wedge:
            sign = factorizations._merge_sign(t, s)
            if sign is not None:
                out[rows[tuple(sorted(t + s))]][j] = g[sign < 0]
    return out


def test_exterior_matrix_equals_the_unmemoized_writer():
    """For every n <= 7 and both blocks, the memoized index map writes the
    reference's object into every cell: the Koszul terms (contraction and
    wedge by one generator), filled twice, with nonzero values and then
    with values some of them zero, which the reference's callers leave out
    of its wedge list; and wedges by larger t into either parity, as a
    degree-3 curving and exp(h) use them.  The memo is keyed by shape
    alone: the second Koszul fill adds no entry to it."""
    rng = random.Random(7)
    ring = PolyRing(CyclotomicField(7), ["x", "y"])
    signed = lambda: factorizations._signed(_random_poly(rng, ring, density=0.7))
    nonzero = lambda: factorizations._signed(_random_scalar(rng, ring.field) * ring.gen("x"))
    cells = factorizations._cells

    def same(n, source, target, contract, wedge):
        subsets = [factorizations._subsets(n, parity) for parity in (0, 1)]
        zero = ring.zero
        got = factorizations._exterior_matrix(n, source, target, contract, wedge, zero)
        want = _reference_exterior_matrix(subsets[source], subsets[target], contract,
                                          [(t, g) for t, g in wedge if g], zero)
        assert len(got) == len(want) and all(len(row) == len(subsets[source]) for row in got)
        assert [list(map(id, row)) for row in got] == [list(map(id, row)) for row in want]

    for n in range(8):
        for block in (0, 1):
            for fill in (nonzero, signed):
                size = cells.cache_info().currsize
                same(n, block, 1 - block, [fill() for _ in range(n)],
                     [((k,), fill()) for k in range(n)])
                assert fill is nonzero or cells.cache_info().currsize == size, (n, block)
            for target in (block, 1 - block):
                same(n, block, target, [None] * n if target == block else
                     [signed() for _ in range(n)],
                     [(t, signed()) for t in factorizations._subsets(n)
                      if len(t) % 2 == (target != block) and rng.random() < 0.4])


def test_fold_of_a_degree_3_curving_stays_plain_and_rejects_a_wrong_curvature():
    # d(b_0) = y and d(b_1) = d(b_2) = d(b_3) = 0, f = x b_0 + x y b_1 b_2 b_3:
    # delta^2 = d(f) = x y, certified cell by cell by the plain fold
    R = _ring(2)
    x, y = R.gens()
    scheme = derived_zero_locus(R, [y, R.zero, R.zero, R.zero])
    f = scheme.element({(0,): x, (1, 2, 3): x * y})
    curved = dgmf_from_homotopy(scheme, f)
    mf = fold_to_mf(curved)
    assert type(mf) is factorizations.MatrixFactorization
    assert curved.curvature == x * y and mf.rank0 == mf.rank1 == 8
    assert mf == _reference_fold(curved)
    for wrong in (R.zero, x * y + x):
        with pytest.raises(CertificateError, match=r"^delta\^2 != W \. id at entry"):
            fold_to_mf(factorizations.CurvedStructure(scheme, f, wrong))


def test_matrix_factorization_coerces_each_entry_object_once(monkeypatch):
    R = _ring(1)
    one, zero = Fraction(1), Fraction(0)
    coerced = []
    coerce = factorizations._coerce

    def counting(ring, c, what):
        coerced.append(c)
        return coerce(ring, c, what)

    monkeypatch.setattr(factorizations, "_coerce", counting)
    gens = ([("e0", 0), ("e1", 0)], [("f0", 1), ("f1", 1)])
    mf = factorizations.MatrixFactorization(R, *gens, [[one, zero], [zero, one]],
                                            [[one, zero], [zero, one]], one)
    assert len(coerced) == 2 and mf.potential == R.one
    assert len({id(c) for m in (mf.delta0, mf.delta1) for row in m for c in row}) == 2
    assert mf.delta0[0][0] is mf.delta1[1][1] is mf.potential


def test_restrict_to_point_matches_evaluate():
    rng = random.Random(5)
    field = CyclotomicField(12)
    ring = PolyRing(field, ["x0", "x1", "y0", "y1"])
    x0, x1, y0, y1 = ring.gens()
    mf = koszul_mf(ring, [x0 ** 3 + _random_scalar(rng, field) * x1, x1 * y1],
                   [y0 * y0, _random_scalar(rng, field) * y1 + x0])
    point = [_random_scalar(rng, field) for _ in range(4)]
    at = mf.restrict_to_point(point)

    def naive(p):
        total = field.zero
        for e, c in p.terms.items():
            for v, k in zip(point, e):
                for _ in range(k):
                    c = c * v
            total = total + c
        return total

    for got, want in ((at.delta0, mf.delta0), (at.delta1, mf.delta1),
                      ([[at.potential]], [[mf.potential]])):
        for grow, wrow in zip(got, want):
            for g, w in zip(grow, wrow):
                assert g.constant_value() == w.evaluate(point) == naive(w)


def _naive_on_line(p, images, line):
    """Each term's image on the line, by repeated products."""
    total = line.zero
    for e, c in p.terms.items():
        term = line.constant(c)
        for img, k in zip(images, e):
            for _ in range(k):
                term = term * img
        total = total + term
    return total


def test_restrict_to_line_rejects_a_zero_variable_mf():
    point = PolyRing(F, [], [])
    mf = unit_mf(point)
    with pytest.raises(ValueError, match=r"restrict_to_point\(\(\)\)"):
        mf.restrict_to_line([])
    assert mf.restrict_to_point(()) == mf


@pytest.mark.parametrize("seed", range(4))
def test_restrict_to_line_rejects_a_perturbed_entry(seed):
    rng = random.Random(seed)
    field = CyclotomicField(rng.choice([4, 7, 12]))
    n = rng.choice([2, 3])
    ring = PolyRing(field, [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)])
    xs, ys = ring.gens()[:n], ring.gens()[n:]
    mf = koszul_mf(ring, [_random_scalar(rng, field) * x for x in xs],
                   [y * y + _random_scalar(rng, field) * x for x, y in zip(xs, ys)])
    line = PolyRing(field, ["t"], [1])
    t = line.gen("t")
    images = [_random_scalar(rng, field) * t + line.constant(_random_scalar(rng, field))
              for _ in range(2 * n)]
    # the exact MF restricts to a certified line MF with the naive entries
    fiber = mf.restrict_to_line(images)
    for got, want in ((fiber.delta0, mf.delta0), (fiber.delta1, mf.delta1),
                      ([[fiber.potential]], [[mf.potential]])):
        assert got == [[_naive_on_line(p, images, line) for p in row] for row in want]
    # one perturbed entry: no MF is built from it; and when the entry of a
    # certified plain MF (the Koszul MF's cells) is changed after it was
    # built, the line MF fails its delta^2 certificate, at the entry and
    # with the message of the dense reference on the naive line MF
    koszul = mf
    mf = factorizations.MatrixFactorization(ring, mf.p0_gens, mf.p1_gens, mf.delta0,
                                            mf.delta1, mf.potential)
    delta0 = [list(row) for row in mf.delta0]
    delta1 = [list(row) for row in mf.delta1]
    m = rng.choice([delta0, delta1])
    i, j = rng.randrange(len(m)), rng.randrange(len(m[0]))
    e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
    m[i][j] = m[i][j] + Poly(ring, {e: _random_scalar(rng, field)})
    with pytest.raises(CertificateError):
        factorizations.MatrixFactorization(ring, mf.p0_gens, mf.p1_gens, delta0,
                                           delta1, mf.potential)
    mf.delta0, mf.delta1 = delta0, delta1
    on_line = lambda rows: [[_naive_on_line(p, images, line) for p in row] for row in rows]
    naive = _uncertified(line, on_line(delta0), on_line(delta1),
                         _naive_on_line(mf.potential, images, line))
    expected = _reference_composite_error(naive)
    assert expected is not None
    with pytest.raises(CertificateError) as info:
        mf.restrict_to_line(images)
    assert str(info.value) == expected
    # a Koszul MF is restricted from (alpha, beta, W): one alpha_k or beta_k
    # changed after it was built fails sum_k alpha_k beta_k = W on the line
    data = rng.choice([koszul.alpha, koszul.beta])
    k = rng.randrange(n)
    data[k] = data[k] + Poly(ring, {e: _random_scalar(rng, field)})
    with pytest.raises(CertificateError, match=r"^delta\^2 != W \. id"):
        koszul.restrict_to_line(images)


# -- shared entry objects --------------------------------------------------


def _a1_mf(mult):
    return fundamental_mf(parse_spec(_A1.format(point="0", mult=mult)).spin_spec())


def _cells(mf):
    return [c for m in (mf.delta0, mf.delta1) for row in m for c in row]


def test_fold_writes_one_object_per_signed_entry():
    """Each d(b_k) and f_t is negated once, and its two signed copies are
    the objects of every cell they fill: A_1 at mult 6 (rank 32, 352 nonzero
    cells) has at most 2 (#d(b) + #f) + 1 distinct entry objects, the one
    zero included, and no two of them are equal."""
    result = _a1_mf(6)
    n_d = sum(1 for c in result.scheme_out.differential if c)
    n_f = len(result.f_out.coefficients)
    cells = _cells(result.mf)
    distinct = {id(c): c for c in cells}
    assert result.mf.rank0 == 32 and sum(1 for c in cells if c) == 352
    assert len(distinct) <= 2 * (n_d + n_f) + 1 == 23
    assert len(distinct) == len(set(distinct.values()))


def test_restrictions_share_images_as_their_source_shares_entries():
    """One image per distinct entry object: two cells hold one image object
    exactly when they hold one source object."""
    mf = _a1_mf(6).mf
    field = mf.ring.field
    line = PolyRing(field, ["t"], [1])
    t = line.gen("t")
    point = [field.scalar(k) for k in (2, -1, 3, 1, -2, 5, 4)[:mf.ring.nvars]]
    images = [line.constant(p) + (k + 1) * t for k, p in enumerate(point)]
    for restricted in (mf.restrict_to_point(point), mf.restrict_to_line(images)):
        pairs = {(id(a), id(b)) for a, b in zip(_cells(mf), _cells(restricted))}
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs}) <= 23


def test_mf_tensor_shares_the_entry_objects_of_its_factors():
    """The tensor square of A_1 at mult 5 (rank 16|16) holds m's entry
    objects, n's and their negations, and one zero: at most
    dist(m) + 2 dist(n) + 1 objects, and the block-by-block reference agrees."""
    mf = _a1_mf(5).mf
    dist = len({id(c) for c in _cells(mf) if c})
    square = mf_tensor(mf, mf)
    assert square.rank0 == 512
    assert len({id(c) for c in _cells(square)}) <= 3 * dist + 1
    assert square == _reference_mf_tensor(mf, mf)


def test_restrict_to_point_rejects_one_changed_copy_of_a_shared_entry():
    """A cell changed after the MF was built holds a new object, and it gets
    its own image: the point MF fails its delta^2 certificate.  That is a
    plain MF of the fold's cells; the fold itself, a Koszul MF, is
    restricted from (alpha, beta, W), and one alpha_k changed after it was
    built, where beta_k(p) != 0, fails sum_k alpha_k(p) beta_k(p) = W(p)."""
    koszul = _a1_mf(4).mf
    assert isinstance(koszul, factorizations.KoszulMF)
    mf = _plain(koszul)
    field = mf.ring.field
    shared = max((c for row in mf.delta0 for c in row if c),
                 key=lambda c: sum(d is c for row in mf.delta0 for d in row))
    i, j = next((i, j) for i, row in enumerate(mf.delta0)
                for j, c in enumerate(row) if c is shared)
    point = [field.scalar(k) for k in (2, -1, 3, 1, -2)[:mf.ring.nvars]]
    assert mf.restrict_to_point(point).verify()
    mf.delta0 = [list(row) for row in mf.delta0]
    mf.delta0[i][j] = shared + mf.ring.one
    with pytest.raises(CertificateError):
        mf.restrict_to_point(point)
    assert koszul.restrict_to_point(point) == _plain(koszul).restrict_to_point(point)
    k = next(k for k, b in enumerate(koszul.beta) if b.evaluate(point))
    koszul.alpha[k] = koszul.alpha[k] + koszul.ring.one
    with pytest.raises(CertificateError, match=r"^delta\^2 != W \. id"):
        koszul.restrict_to_point(point)


@pytest.mark.parametrize("n0, n1", [(1, 0), (0, 1)])
def test_nullhomotopy_solve_of_a_rank_one_point_mf_is_none(n0, n1):
    # W = 0 and one side of rank 0: delta h + h delta = 0 cannot be id, and
    # the system's transposed blocks have 0 rows or 0 columns
    point = PolyRing(F, [])
    mf = factorizations.MatrixFactorization(
        point, [Generator(f"e{i}", 0) for i in range(n0)],
        [Generator(f"f{i}", 1) for i in range(n1)],
        [[point.zero] * n0 for _ in range(n1)], [[point.zero] * n1 for _ in range(n0)],
        point.zero)
    assert (mf.rank0, mf.rank1) == (n0, n1)
    assert nullhomotopy_solve(mf) is None
    if (n0, n1) == (1, 0):
        assert nullhomotopy_solve(unit_mf(point)) is None
