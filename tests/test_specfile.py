from functools import cache

import pytest

from dgmf import (CertificateError, dgmf_from_homotopy, fold_to_mf, fundamental_mf,
                  koszul_mf, linalg, specfile)
from dgmf.factorizations import KoszulMF, MatrixFactorization, mf_tensor
from dgmf.cli import main
from dgmf.cyclotomic import read_terms
from dgmf.poly import Poly
from dgmf.specfile import (
    SpecParseError,
    parse_complex,
    parse_koszul,
    parse_mf,
    parse_scheme,
    parse_spec,
    write_mf,
)

SPIN = """[field]
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

KOSZUL = """[field]
order = 4
[ring]
variables = x:1
[koszul]
alpha = x
beta = x
"""

SCHEME = """[field]
order = 4
[scheme]
variables = u0:1, u1:1
odd = b0:2
d(b0) = u1^2
f = (-4*u0)*b0
"""

COMPLEX = """[field]
order = 4
[complex]
generators 0 = a0:1
generators 1 = b0:1
d 0 = (1)
"""


def test_parse_spin_spec():
    doc = parse_spec(SPIN)
    spec = doc.spin_spec()
    assert spec.field.order == 4
    assert spec.degree_d == 2
    assert spec.components == ["c0"]
    assert len(spec.markings) == 2


def test_spin_parse_errors_carry_line_numbers():
    bad = SPIN.replace("bundle c0 = 0", "bundle c0 = zero")
    with pytest.raises(SpecParseError) as e:
        parse_spec(bad)
    assert "line" in str(e.value)

    with pytest.raises(SpecParseError):
        parse_spec(SPIN.replace("[potential]", "[potenzial]"))

    with pytest.raises(SpecParseError) as e:
        parse_spec(SPIN.replace("d = 2", "d = two"))
    assert "line" in str(e.value)


def test_parse_koszul_roundtrip():
    ring, alpha, beta = parse_koszul(KOSZUL)
    mf = koszul_mf(ring, alpha, beta)
    x = ring.gen("x")
    assert mf.potential == x * x


def test_an_entry_whose_first_parenthesis_closes_early_is_read_whole(tmp_path):
    # "(1 + z)*x + (2)" starts with "(" and ends with ")", but they are two
    # pairs; only a "(" that closes at the last token is stripped
    wrapped = "((1 + z)*x + (2))"
    _, want, _ = parse_koszul(KOSZUL.replace("alpha = x", f"alpha = {wrapped}"))
    outputs = []
    for text in ("(1 + z)*x + (2)", wrapped):
        spec = KOSZUL.replace("alpha = x", f"alpha = {text}")
        ring, alpha, beta = parse_koszul(spec)
        assert alpha == want and str(alpha[0]) == "(1 + z)*x + 2"
        mf_text = write_mf(koszul_mf(ring, alpha, beta))
        assert "delta0 = ((1 + z)*x + 2)" in mf_text
        mf, _ = parse_mf(mf_text.replace("((1 + z)*x + 2)", text))
        assert write_mf(mf) == mf_text
        path = tmp_path / "in.koszul"
        path.write_text(spec)
        out = tmp_path / f"out{len(outputs)}.mf"
        assert main(["koszul", "--input", str(path), "--output", str(out)]) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1] == mf_text
    for bad in ("((1 + z)*x", "(1 + z))*x", ")x("):
        with pytest.raises(SpecParseError, match="bad alpha entry"):
            parse_koszul(KOSZUL.replace("alpha = x", f"alpha = {bad}"))


def test_parse_scheme():
    scheme, f = parse_scheme(SCHEME)
    assert scheme.n_odd == 1
    assert scheme.ring.names == ("u0", "u1")
    assert f.parity() == 1


def test_parse_scheme_sums_terms_that_cancel():
    # a partial sum of zero used to leave the first term in place
    _, f = parse_scheme(SCHEME.replace("f = (-4*u0)*b0", "f = (u0)*b0 + (-u0)*b0"))
    assert not f
    _, f = parse_scheme(SCHEME.replace("f = (-4*u0)*b0",
                                       "f = (-4*u0)*b0 + (4*u0)*b0 + (-4*u0)*b0"))
    assert f == parse_scheme(SCHEME)[1]


WEDGE = """[field]
order = 4
[scheme]
variables = u0:1
odd = b0:1, b1:1, b2:1
d(b0) = 0
d(b1) = 0
d(b2) = 0
f = (-1)*b0^b1^b2
"""


@pytest.mark.parametrize("term, sign", [("b1^b0^b2", -1), ("b0^b2^b1", -1),
                                        ("b2^b0^b1", 1), ("b2^b1^b0", -1)])
def test_parse_scheme_signs_a_wedge_by_the_parity_of_its_order(term, sign):
    # odd generators anticommute: b1^b0^b2 = -b0^b1^b2
    scheme, want = parse_scheme(WEDGE)
    _, f = parse_scheme(WEDGE.replace("(-1)*b0^b1^b2", f"({-sign})*{term}"))
    assert f == want and f.coefficients == {(0, 1, 2): scheme.ring.constant(-1)}
    _, f = parse_scheme(WEDGE.replace("(-1)*b0^b1^b2", f"(1)*b0^b1^b2 + (1)*{term}"))
    assert f.coefficients == ({} if sign == -1 else {(0, 1, 2): scheme.ring.constant(2)})


def test_fold_writes_the_same_bytes_for_both_orders_of_a_wedge(tmp_path):
    outputs = []
    for f in ("(u0 + z)*b1^b0^b2", "(-u0 - z)*b0^b1^b2"):
        path, out = tmp_path / "in.scheme", tmp_path / f"out{len(outputs)}.mf"
        path.write_text(WEDGE.replace("(-1)*b0^b1^b2", f))
        assert main(["fold", "--input", str(path), "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and b"(-1*u0 + -z)" in outputs[0]


def test_fold_of_a_scheme_with_zero_curving_is_the_uncurved_fold(tmp_path):
    # ``0`` is how a zero SuperElement prints, and it reads back
    path, out = tmp_path / "in.scheme", tmp_path / "out.mf"
    path.write_text(SCHEME.replace("f = (-4*u0)*b0", "f = 0"))
    assert main(["fold", "--input", str(path), "--output", str(out)]) == 0
    scheme, f = parse_scheme(path.read_text())
    assert not f and repr(f) == "0"
    mf = fold_to_mf(dgmf_from_homotopy(scheme, scheme.zero_element()))
    assert not mf.potential and mf.delta1 == [[scheme.ring.parse("u1^2")]]
    assert out.read_text() == write_mf(mf)


@pytest.mark.parametrize("term", ["(2*u0)", "(-4*u0)**b0", "(-4*u0*b0"])
def test_parse_scheme_rejects_a_malformed_term(term):
    with pytest.raises(SpecParseError, match="line 7"):
        parse_scheme(SCHEME.replace("f = (-4*u0)*b0", f"f = {term}"))


def test_parse_complex():
    cx = parse_complex(COMPLEX)
    assert cx.rank(0) == 1 and cx.rank(1) == 1
    assert cx.diff(0)[0][0] == cx.ring.one


def test_parse_complex_reads_its_variables():
    cx = parse_complex(COMPLEX.replace("[complex]", "[complex]\nvariables = x:1, y:2")
                       .replace("d 0 = (1)", "d 0 = (x)"))
    assert cx.ring.names == ("x", "y") and cx.ring.weights == (1, 2)
    assert cx.diff(0) == [[cx.ring.gen("x")]]


def test_parse_mf_rejects_bad_certificate_json():
    text = write_mf(koszul_mf(*parse_koszul(KOSZUL)), certificate={"rank": [1, 1]})
    assert parse_mf(text)[1] == {"rank": [1, 1]}
    line = text.splitlines().index("[certificate]") + 2
    with pytest.raises(SpecParseError, match=f"line {line}: bad certificate JSON"):
        parse_mf(text.replace('"rank"', "rank"))


def test_mf_roundtrip_with_certificate():
    r = fundamental_mf(parse_spec(SPIN).spin_spec())
    text = write_mf(r.mf, certificate=r.certificate())
    mf2, cert = parse_mf(text)
    assert mf2.delta0 == r.mf.delta0
    assert mf2.delta1 == r.mf.delta1
    assert mf2.potential == r.mf.potential
    assert cert["rank"] == [1, 1]
    assert "sign_convention" in text.splitlines()[0].lower() or \
        any("sign_convention" in ln for ln in text.splitlines())


def test_mf_roundtrip_unit_rank():
    from dgmf import unit_mf, PolyRing, CyclotomicField
    ring = PolyRing(CyclotomicField(4), ["x"], [1])
    u = unit_mf(ring)
    text = write_mf(u)
    mf2, cert = parse_mf(text)
    assert (mf2.rank0, mf2.rank1) == (1, 0)
    assert cert is None


def test_mf_parse_detects_corruption():
    r = fundamental_mf(parse_spec(SPIN).spin_spec())
    text = write_mf(r.mf)
    bad = text.replace("x1^2 + x2^2", "x1^2 + 2*x2^2")
    with pytest.raises((SpecParseError, ValueError)):
        parse_mf(bad)


def test_mf_parse_error_line_numbers():
    r = fundamental_mf(parse_spec(SPIN).spin_spec())
    text = write_mf(r.mf)
    bad = text.replace("delta0 = ", "delta0 = @", 1)
    with pytest.raises(SpecParseError) as e:
        parse_mf(bad)
    assert "line" in str(e.value)


def _a1_text(mult, certified=False):
    r = fundamental_mf(parse_spec(SPIN.replace("mult 1", f"mult {mult}")).spin_spec())
    return write_mf(r.mf, certificate=r.certificate() if certified else None)


def test_parse_mf_reads_each_distinct_literal_once(monkeypatch):
    """One Poly object per distinct entry literal, across delta0 and delta1,
    and one read of each: the 21 distinct literals among the 2048 cells of
    the rank-32 A_1 MF at mult 6, plus the potential."""
    text = _a1_text(6)
    reads = []
    monkeypatch.setattr(specfile, "read_terms",
                        lambda *args: reads.append(args[2]) or read_terms(*args))
    mf, _ = parse_mf(text)
    assert write_mf(mf) == text
    objects = {}  # literal -> ids of the Poly objects that spell it
    for m in (mf.delta0, mf.delta1):
        for row in m:
            for c in row:
                objects.setdefault(f"({c})", set()).add(id(c))
    assert all(len(ids) == 1 for ids in objects.values())
    assert len(objects) == 21 and len(reads) == 21 + 1
    # a literal that occurs in both matrices is one object in both
    in_delta0 = {id(c) for row in mf.delta0 for c in row}
    assert len(in_delta0 & {id(c) for row in mf.delta1 for c in row}) > 1


def test_write_mf_formats_each_distinct_entry_once(monkeypatch):
    mf = fundamental_mf(parse_spec(SPIN.replace("mult 1", "mult 6")).spin_spec()).mf
    text = write_mf(mf)
    printed = []
    plain = Poly.__str__
    monkeypatch.setattr(Poly, "__str__", lambda p: printed.append(p) or plain(p))
    assert write_mf(mf) == text
    cells = [c for m in (mf.delta0, mf.delta1) for row in m for c in row]
    assert len(printed) == len({id(c) for c in cells}) + 1 == 22  # and the potential

def test_parse_mf_rejects_one_wrong_copy_of_a_shared_entry(tmp_path):
    """Each copy of a literal is its own token run: changing one of the 8
    copies of (2*x1 + (-2*z)*x2) in the delta0 of the A_1 mult 5 MF (the
    sixth, at cell (9, 9)) is found by the delta^2 certificate, and the
    CLI's verify exits 4."""
    text = _a1_text(5)
    head, sep, tail = text.partition("delta0 = ")
    line, newline, rest = tail.partition("\n")
    literal = "(2*x1 + (-2*z)*x2)"
    parts = line.split(literal)
    assert len(parts) == 9
    line = literal.join(parts[:6]) + "(2*x1 + (2*z)*x2)" + literal.join(parts[6:])
    bad = head + sep + line + newline + rest
    with pytest.raises(CertificateError, match=r"entry \(2,9\)"):
        parse_mf(bad)
    path = tmp_path / "bad.mf"
    path.write_text(bad)
    assert main(["verify", "--input", str(path)]) == 4


@cache
def _fixture_texts():
    """name -> the .mf text that ``dgmf fundamental`` writes (with its
    certificate) for every pipeline spec fixture of tests/test_spincurve.py,
    plus the Koszul, unit and A_1 texts of this file."""
    from test_spincurve import SPEC_FIXTURES, _spec
    from dgmf import CyclotomicField, PolyRing, unit_mf
    texts = {}
    for name, spec in SPEC_FIXTURES.items():
        r = fundamental_mf(_spec(spec))
        texts[name] = write_mf(r.mf, certificate=r.certificate())
    ring, alpha, beta = parse_koszul(KOSZUL)
    texts["koszul"] = write_mf(koszul_mf(ring, alpha, beta))
    texts["unit"] = write_mf(unit_mf(PolyRing(CyclotomicField(4), ["x"], [1])))
    texts["a1-m6"] = _a1_text(6)
    return texts


def test_write_mf_reads_back_byte_for_byte_on_every_fixture():
    for name, text in _fixture_texts().items():
        mf, cert = parse_mf(text)
        assert write_mf(mf, certificate=cert) == text, name


def _plain_parse(text, monkeypatch):
    """``parse_mf`` as it reads a file that is no Koszul fold."""
    with monkeypatch.context() as m:
        m.setattr(specfile, "koszul_of_cells", lambda *args: None)
        return parse_mf(text)


def test_every_fixture_file_reads_back_as_its_canonical_koszul_mf(monkeypatch):
    """Every ``.mf`` that ``fundamental``, ``koszul`` and ``unit_mf`` write is
    a Koszul fold, so it reads back as a ``KoszulMF``, equal to the plain
    parse of its cells and written back to the same bytes."""
    texts = _fixture_texts()
    assert "a1-m6" in texts and len(texts) == 45
    for name, text in texts.items():
        mf, cert = parse_mf(text)
        plain, _ = _plain_parse(text, monkeypatch)
        assert isinstance(mf, KoszulMF) and type(plain) is MatrixFactorization, name
        assert mf == plain and plain == mf, name
        assert write_mf(mf, certificate=cert) == write_mf(plain, certificate=cert) == text
        specfile.check_claims(mf, cert)


def test_koszul_reader_rejects_a_tensor_product_and_a_degree_3_fold_to_the_plain_path(
        monkeypatch):
    """A tensor product of Koszul MFs, and the fold of a curving with a
    degree-3 term (whose alpha, beta read from the cells do satisfy
    sum_k alpha_k beta_k = W = 0), are no Koszul folds: they read back as a
    plain MF, cell for cell the plain parse."""
    ring, _, _ = parse_koszul(KOSZUL.replace("x:1", "x:1, y:1"))
    x, y = ring.gens()
    tensor = mf_tensor(koszul_mf(ring, [x], [x]), koszul_mf(ring, [y], [x + y]))
    scheme, f = parse_scheme(WEDGE.replace("(-1)*b0^b1^b2", "(u0)*b0 + (-1)*b0^b1^b2"))
    cubic = fold_to_mf(dgmf_from_homotopy(scheme, f))
    assert f.coefficients[(0,)] and not cubic.potential
    for mf in (tensor, cubic):
        text = write_mf(mf)
        got, _ = parse_mf(text)
        assert type(got) is MatrixFactorization and got.rank0 + got.rank1 in (4, 8)
        assert got == mf == _plain_parse(text, monkeypatch)[0] and write_mf(got) == text


def _in_deltas(text, old, new, count=-1):
    """``text`` with ``old`` replaced by ``new`` on the delta lines alone."""
    return "\n".join(line.replace(old, new, count) if line.startswith("delta") else line
                      for line in text.split("\n"))


def test_parse_mf_rejects_a_tampered_koszul_fold_and_verify_exits_4(tmp_path, monkeypatch):
    """On the A_1 mult 3 fold (alpha_1 = 4*t1, beta_1 = t2): alpha_1 changed
    in every copy is the fold of other Koszul data, with
    sum_k alpha_k beta_k = W + t1*t2; one negated copy of alpha_1 written
    as alpha_1 is no fold.  Both fall back to the cell-by-cell check,
    which raises its own report.  Permuting the ring's variables keeps a
    Koszul fold, and the certificate's variable claim refutes it.
    Permuting the odd generators' names keeps delta^2 = W . id: that file
    is no fold of its names, so it reads back as the plain MF it is."""
    text = _a1_text(3, certified=True)
    assert text.count("(4*t1)") == 2 and text.count("(-4*t1)") == 2
    every = _in_deltas(_in_deltas(text, "(4*t1)", "(5*t1)"), "(-4*t1)", "(-5*t1)")
    one = _in_deltas(text, "(-4*t1)", "(4*t1)", 1)
    for bad in (every, one):
        with pytest.raises(CertificateError, match=r"delta\^2 != W \. id at entry"):
            parse_mf(bad)
        with pytest.raises(CertificateError, match=r"delta\^2 != W \. id at entry"):
            _plain_parse(bad, monkeypatch)
    swapped = text.replace("variables = x1:1, x2:1", "variables = x2:1, x1:1")
    mf, cert = parse_mf(swapped)
    assert isinstance(mf, KoszulMF)
    with pytest.raises(CertificateError, match="sector_variables"):
        specfile.check_claims(mf, cert)
    renamed = text.replace("p1 = b0:1, b1:1", "p1 = b1:1, b0:1")
    mf, _ = parse_mf(renamed)
    assert type(mf) is MatrixFactorization and mf.p1_gens[0].name == "b1"
    for bad, code in ((every, 4), (one, 4), (swapped, 4), (renamed, 0)):
        path = tmp_path / "bad.mf"
        path.write_text(bad)
        assert main(["verify", "--input", str(path)]) == code


def test_parse_mf_checks_a_koszul_fold_by_one_1xn_product_and_rejects_a_wrong_one_cell_by_cell(
        monkeypatch):
    """A Koszul ``.mf`` (A_1 at mult 6, rank 32, n = 6) is certified by one
    1 x 6 by 6 x 1 ``first_mismatch`` and no rank-32 product; with alpha_0
    changed in every copy, that one check fails and the cell-by-cell check
    of the plain MF runs and rejects it."""
    text = _a1_text(6, certified=True)
    shapes = []
    first_mismatch = linalg.first_mismatch

    def counting(products, target, field):
        shapes.append([(len(a), len(b), len(b[0])) for a, b in products])
        return first_mismatch(products, target, field)

    monkeypatch.setattr(linalg, "first_mismatch", counting)
    mf, _ = parse_mf(text)
    assert isinstance(mf, KoszulMF) and mf.rank0 == 32
    assert shapes == [[(1, 6, 1)]]
    a = mf.alpha[0]
    bad = _in_deltas(_in_deltas(text, f"({a})", f"({2 * a})"), f"({-a})", f"({-2 * a})")
    shapes.clear()
    with pytest.raises(CertificateError, match="at entry"):
        parse_mf(bad)
    assert shapes == [[(1, 6, 1)], [(32, 32, 32)]]


def test_parse_mf_ignores_whitespace_around_separators():
    """Spaces, tabs and none at all around ``,`` and ``;`` and inside the
    parentheses of an entry give the same MF, and the copies of one
    literal still share one Poly."""
    text = _a1_text(3)
    mf, _ = parse_mf(text)
    for old, new in ((", ", ","), (", ", " ,\t"), (" ; ", ";"), (" ; ", "\t;  "),
                     ("(", "( "), (")", " )")):
        variant = "\n".join(
            line.replace(old, new) if line.startswith("delta") else line
            for line in text.split("\n"))
        assert variant != text
        got, _ = parse_mf(variant)
        assert got == mf and write_mf(got) == text
        ids = {}
        for m in (got.delta0, got.delta1):
            for row in m:
                for c in row:
                    ids.setdefault(f"({c})", set()).add(id(c))
        assert all(len(objects) == 1 for objects in ids.values())


@pytest.mark.parametrize("order", [1, 4, 7, 12])
def test_a_printed_rational_function_reads_back(order):
    """``str(f)`` is always ``(num)/(den)``, so the spec's eta reader reads
    it back, a constant denominator and zero included."""
    from random import Random
    from dgmf import CyclotomicField, RationalFunction, UPoly
    from dgmf.specfile import _parse_ratfun
    from test_factorizations import _random_scalar
    rng, field = Random(order), CyclotomicField(order)
    forms = [RationalFunction(UPoly(field, []), UPoly.constant(field, 3)),
             RationalFunction(UPoly.gen(field), UPoly.constant(field, -2))]
    while len(forms) < 40:
        num, den = (UPoly(field, [_random_scalar(rng, field) for _ in range(rng.randint(lo, 4))])
                    for lo in (0, 1))
        if den:
            forms.append(RationalFunction(num, den))
    assert sum(f.den.degree() == 0 for f in forms) >= 4
    for f in forms:
        assert _parse_ratfun(field, 1, str(f)) == f, str(f)


@pytest.mark.parametrize("order", [1, 4, 7])
def test_a_printed_super_element_reads_back(order):
    """``repr(e)`` of an element with no degree-0 term is the scheme
    reader's sum of ``(poly)*b0^b1`` terms, or ``0`` for the zero element."""
    from itertools import combinations
    from random import Random
    from dgmf import CyclotomicField, PolyRing
    from dgmf.factorizations import DgSchemePresentation
    from dgmf.specfile import _parse_super_element
    from test_factorizations import _random_poly
    rng, field = Random(order), CyclotomicField(order)
    ring = PolyRing(field, ["u0", "u1"], [1, 2])
    scheme = DgSchemePresentation(ring, [("b0", 1), ("b1", 2), ("b2", 1)],
                                  [ring.zero] * 3)
    subsets = [s for k in (1, 2, 3) for s in combinations(range(3), k)]
    zero = scheme.zero_element()
    assert _parse_super_element(scheme, 1, repr(zero)) == zero
    tried = 0
    while tried < 30:
        e = scheme.element({s: _random_poly(rng, ring, density=0.4) for s in subsets})
        if e.coefficients:
            assert _parse_super_element(scheme, 1, repr(e)) == e, repr(e)
            tried += 1
