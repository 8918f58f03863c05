import random

import pytest

from dgmf import (
    CyclotomicField,
    linalg,
    PolyRing,
    FreeComplex,
    ChainMap,
    cone,
    cone_inclusion,
    cone_projection,
    tensor,
    sym_power_two_term,
    homology_ranks,
    triangle_les_exact,
    induced_homology_map_rank,
)
from dgmf.complexes import Generator, NotAChainMap
from dgmf.poly import Poly

F = CyclotomicField(1)
PT = PolyRing(F, [], [])


def _single(deg=0, rank=1):
    return FreeComplex(PT, {deg: [Generator(f"e{i}", 0) for i in range(rank)]}, {})


def _two_term(mat, deg=0):
    rows, cols = len(mat), len(mat[0])
    objs = {deg: [Generator(f"a{i}", 0) for i in range(cols)],
            deg + 1: [Generator(f"b{i}", 0) for i in range(rows)]}
    return FreeComplex(PT, objs, {deg: mat})


def test_d_squared_enforced():
    objs = {0: [Generator("a", 0)], 1: [Generator("b", 0)],
            2: [Generator("c", 0)]}
    with pytest.raises(ValueError):
        FreeComplex(PT, objs, {0: [[1]], 1: [[1]]})


def test_cone_of_identity_is_acyclic():
    C = _two_term([[1, 0], [0, 2]])
    cf = cone(ChainMap.identity(C))
    assert all(r == 0 for r in homology_ranks(cf).values())


def test_shift_negates_differential():
    C = _two_term([[3]])
    S = C.shift(1)
    assert S.rank(-1) == 1 and S.rank(0) == 1
    assert S.diff(-1)[0][0] == PT.constant(-3)


def test_tensor_of_acyclic_is_acyclic():
    # [k --1--> k] tensor [k --1--> k]
    C = _two_term([[1]])
    T = tensor(C, C)
    assert T.euler_characteristic() == 0
    assert all(r == 0 for r in homology_ranks(T).values())


def test_tensor_homology_kunneth():
    # complex with H^0 = k tensored with itself: H^0 = k, all else 0
    C = _single()
    T = tensor(C, C)
    assert homology_ranks(T) == {0: 1}


def test_sym_power_example():
    # [A --id--> B] with one weight-1 generator each, weight-2 piece:
    # S^2A -> A(x)B -> Wedge^2 B = 0, i.e. a^2 -> 2ab -> 0; acyclic.
    ring = PolyRing(F, [], [])
    a = [Generator("a", 1)]
    b = [Generator("b", 1)]
    C = sym_power_two_term(ring, a, b, [[ring.one]], 2)
    assert C.rank(0) == 1 and C.rank(1) == 1 and C.rank(2) == 0
    assert C.diff(0)[0][0] == ring.constant(2)
    assert all(r == 0 for r in homology_ranks(C).values())


def test_sym_power_two_generators():
    ring = PolyRing(F, [], [])
    a = [Generator("a0", 1), Generator("a1", 1)]
    b = [Generator("b0", 1), Generator("b1", 1)]
    C = sym_power_two_term(ring, a, b, [[ring.one, ring.zero],
                                        [ring.zero, ring.one]], 2)
    # S^2 of a rank-(2|2) identity two-term complex is acyclic
    assert C.rank(0) == 3 and C.rank(1) == 4 and C.rank(2) == 1
    assert all(r == 0 for r in homology_ranks(C).values())


def _random_complex(rng, max_rank=3):
    """A random two-term complex in degrees 0, 1 over the point."""
    rows = rng.randint(1, max_rank)
    cols = rng.randint(1, max_rank)
    mat = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
    return _two_term(mat)


def test_triangle_les_random():
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        C = _random_complex(rng)
        D = _random_complex(rng)
        # the zero map is always a chain map and its cone is D (+) C[1]
        assert triangle_les_exact(ChainMap.zero(C, D))
        checked += 1
        # scalar multiples of the identity
        c = rng.randint(-3, 3)
        comps = {n: [[c if i == j else 0 for j in range(C.rank(n))]
                     for i in range(C.rank(n))] for n in (0, 1)}
        assert triangle_les_exact(ChainMap(C, C, comps))
    assert checked == 40


def test_random_chain_maps_commute_or_raise():
    rng = random.Random(5)
    seen_valid = 0
    for _ in range(200):
        C = _random_complex(rng, 2)
        D = _random_complex(rng, 2)
        comps = {n: [[rng.randint(-1, 1) for _ in range(C.rank(n))]
                     for _ in range(D.rank(n))] for n in (0, 1)}
        try:
            ChainMap(C, D, comps)
            seen_valid += 1
        except NotAChainMap:
            pass
    assert seen_valid > 0


def test_induced_homology_map_rank_identity():
    C = _two_term([[0]])
    f = ChainMap.identity(C)
    assert induced_homology_map_rank(f, 0) == 1
    assert induced_homology_map_rank(f, 1) == 1


def test_free_complex_rejects_a_broken_d_squared():
    R = PolyRing(CyclotomicField(4), ["x", "y"], [1, 1])
    x, y = R.gens()
    objs = {0: [Generator("a", 0)], 1: [Generator("b0", 0), Generator("b1", 0)],
            2: [Generator("c", 0)]}
    FreeComplex(R, objs, {0: [[x], [y]], 1: [[-y, x]]})  # the Koszul complex
    with pytest.raises(ValueError, match=r"d o d != 0 at degree 0, entry \(0,0\)"):
        FreeComplex(R, objs, {0: [[x], [y]], 1: [[y, x]]})


def test_chain_map_rejects_a_non_commuting_square():
    C = _two_term([[1, 0], [0, 2]])
    ChainMap(C, C, {0: [[3, 0], [0, 1]], 1: [[3, 0], [0, 1]]})
    with pytest.raises(NotAChainMap) as info:
        ChainMap(C, C, {0: [[1, 0], [0, 1]], 1: [[1, 0], [0, 3]]})
    assert str(info.value) == ("square at degree 0 does not commute at entry (1,1): "
                               "d_target o f = 2, f o d_source = 6")


def test_chain_map_rejects_a_component_from_another_ring():
    # with no square to check (a single object) and with one (a two-term
    # complex); an equal ring built again is the same ring
    def diagonal(C, c):
        return {d: [[c if i == j else 0 for j in range(C.rank(d))]
                    for i in range(C.rank(d))] for d in C.degrees()}

    x = PolyRing(F, ["x"], [1]).gen("x")
    for C in (_single(), _two_term([[1, 0], [0, 2]])):
        ChainMap(C, C, diagonal(C, PolyRing(F, [], []).one))
        with pytest.raises(ValueError, match="chain map component from a different ring"):
            ChainMap(C, C, diagonal(C, x))


# -- the certificate kernel against a dense reference ---------------------


def _mat_mul(a, b, ring, rows, inner, cols):
    """a . b by the dense triple loop, the product the d o d and chain-map
    checks used to build; the sizes are explicit so that zero ranks work."""
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), ring.zero)
             for j in range(cols)] for i in range(rows)]


def _first_difference(x, y):
    return next(((i, j) for i, (rx, ry) in enumerate(zip(x, y))
                 for j, (a, b) in enumerate(zip(rx, ry)) if a != b), None)


def _random_entry(rng, ring, density=0.5):
    """Zero, or a Poly of at most two terms of degree <= 1 in each variable
    with coefficients a + b*zeta."""
    if rng.random() > density:
        return ring.zero
    field = ring.field
    terms = {}
    for _ in range(rng.randint(1, 2)):
        e = tuple(rng.randint(0, 1) for _ in range(ring.nvars))
        terms[e] = field.scalar(rng.randint(-2, 2)) + rng.randint(-1, 1) * field.zeta
    return Poly(ring, terms)


def _random_entries(rng, ring, rows, cols):
    return [[_random_entry(rng, ring) for _ in range(cols)] for _ in range(rows)]


def _perturb(rng, ring, m):
    """m with one entry moved by a nonzero Poly (m unchanged if it is empty)."""
    m = [list(row) for row in m]
    if m and m[0]:
        i, j = rng.randrange(len(m)), rng.randrange(len(m[0]))
        m[i][j] = m[i][j] + (_random_entry(rng, ring, density=1) or ring.one)
    return m


def _random_complex_data(rng, ring, top=3):
    """Objects and differentials on degrees 0..top with d o d = 0: in a
    shuffled basis, C^n = X^n (+) Y^n, d maps X^n into Y^{n+1} and kills
    Y^n.  Ranks 0 occur."""
    parts = []
    for _ in range(top + 1):
        basis = [("x", i) for i in range(rng.randint(0, 2))]
        basis += [("y", i) for i in range(rng.randint(0, 2))]
        rng.shuffle(basis)
        parts.append(basis)
    objects = {n: [Generator(f"g{n}.{k}", 0) for k in range(len(basis))]
               for n, basis in enumerate(parts)}
    diffs = {}
    for n in range(top):
        src, tgt = parts[n], parts[n + 1]
        a = _random_entries(rng, ring, len(tgt), len(src))
        diffs[n] = [[a[r][c] if kr == "y" and kc == "x" else ring.zero
                     for c, (kc, _) in enumerate(src)]
                    for r, (kr, _) in enumerate(tgt)]
    return objects, diffs


def _dense_d_squared_failure(objects, diffs, ring):
    """(degree, i, j) of the first nonzero entry of some d o d, or None."""
    rank = lambda n: len(objects.get(n, []))
    for n in sorted(objects):
        if rank(n) and rank(n + 2):
            comp = _mat_mul(diffs[n + 1], diffs[n], ring, rank(n + 2), rank(n + 1), rank(n))
            bad = _first_difference(comp, [[ring.zero] * rank(n)] * rank(n + 2))
            if bad is not None:
                return (n, *bad)
    return None


def _dense_chain_map_failure(S, T, comps, ring):
    """(degree, i, j) of the first entry where d_T o f_n != f_{n+1} o d_S."""
    for n in sorted(set(S.degrees()) | set(T.degrees())):
        left = _mat_mul(T.diff(n), comps[n], ring, T.rank(n + 1), T.rank(n), S.rank(n))
        right = _mat_mul(comps[n + 1], S.diff(n), ring,
                         T.rank(n + 1), S.rank(n + 1), S.rank(n))
        bad = _first_difference(left, right)
        if bad is not None:
            return (n, *bad)
    return None


@pytest.mark.parametrize("nvars", [0, 2])
@pytest.mark.parametrize("order", [1, 4, 7])
def test_certificate_kernel_accepts_and_rejects_like_the_dense_reference(order, nvars):
    ring = PolyRing(CyclotomicField(order), ["x", "y"][:nvars], [1] * nvars)
    rng = random.Random(100 * order + nvars)
    top = 3
    verdicts = {"complex": [], "map": []}
    for _ in range(60):
        objects, diffs = _random_complex_data(rng, ring, top)
        if rng.random() < 0.5:  # two consecutive differentials made random
            n = rng.randrange(top - 1)
            for m in (n, n + 1):
                diffs[m] = _random_entries(rng, ring, len(objects[m + 1]), len(objects[m]))
        expected = _dense_d_squared_failure(objects, diffs, ring)
        verdicts["complex"].append(expected is None)
        if expected is None:
            FreeComplex(ring, objects, diffs)
        else:
            n, i, j = expected
            with pytest.raises(ValueError) as info:
                FreeComplex(ring, objects, diffs)
            assert str(info.value) == f"d o d != 0 at degree {n}, entry ({i},{j})"

        # f = d_T h + h d_S is a chain map for every h; then perturb it, or
        # replace it by a random map
        S = FreeComplex(ring, *_random_complex_data(rng, ring, top))
        T = FreeComplex(ring, *_random_complex_data(rng, ring, top))
        h = {n: _random_entries(rng, ring, T.rank(n - 1), S.rank(n))
             for n in range(top + 2)}
        comps = {}
        for n in range(top + 2):
            dh = _mat_mul(T.diff(n - 1), h[n], ring, T.rank(n), T.rank(n - 1), S.rank(n))
            hd = _mat_mul(h.get(n + 1, []), S.diff(n), ring,
                          T.rank(n), S.rank(n + 1), S.rank(n))
            comps[n] = [[p + q for p, q in zip(rp, rq)] for rp, rq in zip(dh, hd)]
        kind = rng.randrange(3)
        if kind == 1:
            n = rng.randrange(top + 1)
            comps[n] = _perturb(rng, ring, comps[n])
        elif kind == 2:
            comps = {n: _random_entries(rng, ring, T.rank(n), S.rank(n))
                     for n in range(top + 2)}
        expected = _dense_chain_map_failure(S, T, comps, ring)
        verdicts["map"].append(expected is None)
        if expected is None:
            ChainMap(S, T, comps)
        else:
            n, i, j = expected
            with pytest.raises(NotAChainMap) as info:
                ChainMap(S, T, comps)
            assert f"at degree {n} does not commute at entry ({i},{j}):" in str(info.value)
    # both verdicts occur often enough for the comparison to mean something
    for seen in verdicts.values():
        assert 5 <= sum(seen) <= len(seen) - 5


# -- the graded tensor product against the per-complex index ---------------


def _reference_tensor_index(C, D):
    """The map (n, i, m, j) -> (n + m, position) placing c_i (x) d_j in the
    tensor basis, ordered by n, m, i, j within each degree."""
    index = {}
    counters = {}
    for n in C.degrees():
        for m in D.degrees():
            deg = n + m
            for i in range(C.rank(n)):
                for j in range(D.rank(m)):
                    pos = counters.get(deg, 0)
                    counters[deg] = pos + 1
                    index[(n, i, m, j)] = (deg, pos)
    return index


def _reference_tensor(C, D):
    """The tensor product as ``tensor`` used to build it from its own index,
    adding each Koszul term into its cell; kept as the reference."""
    ring = C.ring
    index = _reference_tensor_index(C, D)
    objects = {}
    for (n, i, m, j), (deg, _) in index.items():
        g, h = C.gens(n)[i], D.gens(m)[j]
        objects.setdefault(deg, []).append(
            Generator(f"{g.name}*{h.name}", g.weight + h.weight))
    diffs = {}
    for deg in list(objects):
        if deg + 1 not in objects:
            continue
        mat = [[ring.zero] * len(objects[deg]) for _ in range(len(objects[deg + 1]))]
        diffs[deg] = mat
    for (n, i, m, j), (deg, col) in index.items():
        if deg not in diffs:
            continue
        mat = diffs[deg]
        dC = C.diff(n)
        for i2 in range(C.rank(n + 1)):
            c = dC[i2][i]
            if c:
                _, row = index[(n + 1, i2, m, j)]
                mat[row][col] = mat[row][col] + c
        dD = D.diff(m)
        sign = 1 if n % 2 == 0 else -1
        for j2 in range(D.rank(m + 1)):
            c = dD[j2][j]
            if c:
                _, row = index[(n, i, m + 1, j2)]
                mat[row][col] = mat[row][col] + sign * c
    return FreeComplex(ring, objects, diffs)


@pytest.mark.parametrize("nvars", [0, 2])
@pytest.mark.parametrize("order", [1, 3, 4])
def test_tensor_matches_the_reference_on_seeded_complexes(order, nvars):
    """Generators (names, weights, order) and every differential agree with
    the reference on random complexes in degrees shifted by -1..2, so that
    both signs of the Koszul rule occur."""
    ring = PolyRing(CyclotomicField(order), ["x", "y"][:nvars], [1] * nvars)
    rng = random.Random(f"tensor:{order}:{nvars}")
    complexes = [FreeComplex.single(ring), FreeComplex.zero_complex(ring)]
    for _ in range(8):
        objects, diffs = _random_complex_data(rng, ring, rng.randint(1, 3))
        for n, gens in objects.items():
            objects[n] = [Generator(g.name, rng.randint(0, 3)) for g in gens]
        complexes.append(FreeComplex(ring, objects, diffs).shift(rng.randint(-1, 2)))
    negated = 0
    for C in complexes:
        for D in complexes:
            got, want = tensor(C, D), _reference_tensor(C, D)
            assert got == want  # generators in order, and every differential
            negated += any(n % 2 for n in C.degrees()) and any(
                c for m in D.diffs.values() for row in m for c in row)
    assert negated


def test_tensor_rejects_complexes_over_different_rings():
    other = PolyRing(F, ["x"], [1])
    with pytest.raises(ValueError, match="tensor of complexes over different rings"):
        tensor(_single(), FreeComplex.single(other))


# -- induced maps on homology against cycles and boundaries ----------------


def _reference_scalar_matrix(m, ring):
    out = []
    for row in m:
        srow = []
        for c in row:
            if not c.is_constant():
                raise ValueError("homology only over a point; restrict to a fiber first")
            srow.append(c.constant_value())
        out.append(srow)
    return out


def _reference_homology_data(C, n):
    """(cycle basis, boundary basis) at degree n, as lists of column vectors."""
    field = C.ring.field
    dn = _reference_scalar_matrix(C.diff(n), C.ring)
    if C.rank(n + 1) == 0 or not dn:
        cycles = [[field.one if i == j else field.zero for i in range(C.rank(n))]
                  for j in range(C.rank(n))]
    else:
        cycles = linalg.nullspace(dn, field)
    boundaries = []
    dprev = _reference_scalar_matrix(C.diff(n - 1), C.ring)
    if dprev and C.rank(n - 1):
        cols = linalg.transpose(dprev)
        r, pivots = linalg.rref(dprev, field)
        pivot_cols = [j for _, j in pivots]
        boundaries = [cols[j] for j in pivot_cols]
    return cycles, boundaries


def _reference_induced_homology_map_rank(f, n):
    """Rank of H^n(f): the images of the source cycles modulo the target
    boundaries; the cycle/boundary computation the cone formula replaced."""
    field = f.source.ring.field
    cyc_s, bnd_s = _reference_homology_data(f.source, n)
    cyc_t, bnd_t = _reference_homology_data(f.target, n)
    comp = _reference_scalar_matrix(f.component(n), f.source.ring)
    images = []
    for v in cyc_s:
        images.append([sum((comp[i][j] * v[j] for j in range(len(v))), field.zero)
                       for i in range(len(comp))] if comp else [])
    dim_t = f.target.rank(n)
    if dim_t == 0:
        return 0
    cols = bnd_t + images
    big = [[col[i] for col in cols] for i in range(dim_t)]
    small = [[col[i] for col in bnd_t] for i in range(dim_t)] if bnd_t else []
    r_big = linalg.rank(big, field) if cols else 0
    r_small = linalg.rank(small, field) if bnd_t else 0
    return r_big - r_small


def _combination(rng, vectors, length, field):
    """sum c_v v over ``vectors`` (each of ``length``), c_v in {-1, 0, 1}."""
    coeffs = [rng.randint(-1, 1) for _ in vectors]
    return [sum((c * v[u] for c, v in zip(coeffs, vectors)), field.zero)
            for u in range(length)]


def _random_point_complex(rng, ring):
    """A complex over the point in degrees -1..2 with d o d = 0: each row of
    d^n is a random combination of a basis of the left kernel of d^(n-1).
    Entries a + b*zeta; ranks 0 occur."""
    field = ring.field
    scalar = lambda: field.scalar(rng.randint(-2, 2)) + rng.randint(-1, 1) * field.zeta
    ranks = {n: rng.randint(0, 3) for n in range(-1, 3)}
    diffs = {-1: [[scalar() if rng.random() < 0.6 else field.zero
                   for _ in range(ranks[-1])] for _ in range(ranks[0])]}
    for n in (0, 1):
        prev = diffs[n - 1]
        left = (linalg.nullspace(linalg.transpose(prev), field) if prev and prev[0]
                else linalg.identity(field, ranks[n]))
        diffs[n] = [_combination(rng, left, ranks[n], field) for _ in range(ranks[n + 1])]
    objects = {n: [Generator(f"g{n}.{k}", 0) for k in range(r)] for n, r in ranks.items()}
    return FreeComplex(ring, objects, diffs)


def _random_chain_map(rng, C, D):
    """A random combination of a basis of the chain maps C -> D: the
    nullspace of f -> (d_D f_n - f_(n+1) d_C)_n, unknowns f_n row-major."""
    field = C.ring.field
    degs = range(-1, 3)
    offset, size = {}, 0
    for n in degs:
        offset[n] = size
        size += D.rank(n) * C.rank(n)
    rows = []
    for n in degs:
        dD = _reference_scalar_matrix(D.diff(n), D.ring)
        dC = _reference_scalar_matrix(C.diff(n), C.ring)
        for i in range(D.rank(n + 1)):
            for j in range(C.rank(n)):
                row = [field.zero] * size
                for k in range(D.rank(n)):
                    row[offset[n] + k * C.rank(n) + j] += dD[i][k]
                for k in range(C.rank(n + 1)):
                    row[offset[n + 1] + i * C.rank(n + 1) + k] -= dC[k][j]
                rows.append(row)
    basis = linalg.nullspace(rows, field) if rows else linalg.identity(field, size)
    x = _combination(rng, basis, size, field)
    comps = {n: [x[offset[n] + i * C.rank(n): offset[n] + (i + 1) * C.rank(n)]
                 for i in range(D.rank(n))] for n in degs}
    return ChainMap(C, D, comps)


@pytest.mark.parametrize("order", [1, 3, 4])
def test_induced_homology_map_rank_matches_the_reference_on_seeded_maps(order):
    """The cone formula and the cycles-mod-boundaries reference agree on
    random chain maps over Q, Q(zeta_3) and Q(i), in degrees -1..2; the
    cone, inclusion and projection of each map are compared too."""
    ring = PolyRing(CyclotomicField(order), [], [])
    rng = random.Random(f"induced:{order}")
    ranks = []
    for _ in range(40):
        f = _random_chain_map(rng, _random_point_complex(rng, ring),
                              _random_point_complex(rng, ring))
        for g in (f, cone_inclusion(f), cone_projection(f)):
            for n in range(-2, 4):
                got = induced_homology_map_rank(g, n)
                assert got == _reference_induced_homology_map_rank(g, n)
                ranks.append(got)
    assert 0 < sum(1 for r in ranks if r) < len(ranks)


def test_homology_rejects_a_ring_with_variables():
    ring = PolyRing(F, ["x"], [1])
    C = FreeComplex(ring, {0: [Generator("a", 0)], 1: [Generator("b", 0)]}, {0: [[1]]})
    for compute in (homology_ranks, lambda c: induced_homology_map_rank(ChainMap.identity(c), 0)):
        with pytest.raises(ValueError, match="homology only over a point"):
            compute(C)


def test_induced_homology_map_rank_builds_no_complex(monkeypatch):
    """The rank is read from one block of the cone (``_cone_diff``); no
    FreeComplex is constructed on the seeded maps."""
    ring = PolyRing(CyclotomicField(3), [], [])
    rng = random.Random("induced:3")
    maps = []
    for _ in range(40):
        f = _random_chain_map(rng, _random_point_complex(rng, ring),
                              _random_point_complex(rng, ring))
        maps += [f, cone_inclusion(f), cone_projection(f)]
    built = []
    init = FreeComplex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FreeComplex, "__init__", counting)
    ranks = [induced_homology_map_rank(g, n) for g in maps for n in range(-2, 4)]
    assert built == [] and any(ranks)


def test_cone_differential_negates_each_distinct_entry_once():
    """The cone of f: C -> D writes d_D and f as they are and -d_C below; a
    d_C entry object shared by several cells has one negation, shared too."""
    x = PT.constant(F.scalar(2))
    C = FreeComplex(PT, {0: [Generator("a", 0)], 1: [Generator("b", 0), Generator("c", 0)]},
                    {0: [[x], [x]]})
    cf = cone(ChainMap.identity(C))
    assert (cf.rank(-1), cf.rank(0), cf.rank(1)) == (1, 3, 2)
    (one,), (neg_b,), (neg_c,) = cf.diff(-1)
    assert one == PT.one and neg_b == -x and neg_b is neg_c
    assert cf.diff(0) == [[x, PT.one, PT.zero], [x, PT.zero, PT.one]]
    assert homology_ranks(cf) == {-1: 0, 0: 0, 1: 0}


def test_direct_sum_and_cone_with_an_empty_degree():
    # gap has degrees 0 and 2 and nothing in degree 1
    gap = FreeComplex(PT, {0: [Generator("a", 0)], 2: [Generator("c", 0)]}, {})
    line = _two_term([[PT.constant(2)]])
    s = gap.direct_sum(line)
    assert [s.rank(n) for n in (0, 1, 2)] == [2, 1, 1]
    assert s.diff(0) == [[PT.zero, PT.constant(2)]]
    assert s.diff(1) == [[PT.zero]]
    assert homology_ranks(s) == {0: 1, 1: 0, 2: 1}
    # the cone of the identity is acyclic
    ident = ChainMap.identity(gap)
    cf = cone(ident)
    assert [cf.rank(n) for n in (-1, 0, 1, 2)] == [1, 1, 1, 1]
    assert all(r == 0 for r in homology_ranks(cf).values())
    assert triangle_les_exact(ident)
    # cone of the zero map gap -> line: H(line) (+) H(gap[1])
    zero = ChainMap.zero(gap, line)
    assert {n: r for n, r in homology_ranks(cone(zero)).items() if r} == {-1: 1, 1: 1}
    assert cone_inclusion(zero).components[1] == [[PT.one], [PT.zero]]
    assert cone_projection(zero).components[1] == [[PT.zero, PT.one]]
