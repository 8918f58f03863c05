"""The readers of ``dgmf.specfile`` against the ones they replaced.

The reference readers below are the earlier bodies of ``parse_spec``,
``_parse_curve``, ``parse_mf``, ``parse_koszul``, ``parse_scheme`` and
``parse_complex``: each section and key checked by hand, ``[curve]`` lines
cut by word splitting (``_split_before``) and by substring partitions at
``gamma`` and ``rig``, and two ``name:weight`` list readers.  They share
the literal, matrix and ``key = value`` helpers that did not change.  On
every mutant of every CLI session input and on every pipeline spec
fixture, both readers return equal objects or raise the same exception
class, except in three cases, where the reader now raises SpecParseError.
A ``component``, ``bundle`` or ``eta`` line that does not name exactly one
component: the reference took the word after the head, dropping the rest
or taking ``=`` itself.  A generator entry with no ``:weight``: the
reference read ``p0 = 100`` as a generator named ``""`` of weight 100.  A
``[group]`` generator or ``J`` whose scalars make no group element: the
reference raised the ValueError of ``GroupElement`` itself."""

import json
import re

import pytest

from dgmf import specfile
from dgmf.complexes import FreeComplex, Generator
from dgmf.cyclotomic import CyclotomicField, tokenize
from dgmf.factorizations import DgSchemePresentation, MatrixFactorization
from dgmf.groups import GroupElement
from dgmf.poly import PolyRing
from dgmf.specfile import (SpecDocument, SpecParseError, _keyvals, _parse_matrix,
                           _parse_positive, _parse_ratfun, _parse_super_element,
                           _read_entries, _read_poly)
from dgmf.spincurve import Marking, Node

from test_cli import FOLD, GLUED, SPIN, _mutants, _sessions

# -- the reference readers ----------------------------------------------------


def _sections(text):
    """section name -> list of (lineno, stripped line), without the header
    lines the reader now keeps."""
    out = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            out.setdefault(current, [])
            continue
        if current is None:
            raise SpecParseError(lineno, "content before any [section] header")
        out[current].append((lineno, line))
    return out


def _parse_field(kv, where):
    """The cyclotomic field Q(zeta_N) from the ``order`` key of a section."""
    if "order" not in kv:
        raise SpecParseError(1, f"missing order in [{where}]")
    lineno, val = kv["order"]
    return CyclotomicField(_parse_positive(lineno, val, "cyclotomic order"))


def _parse_variables(field, lineno, text):
    names, weights = [], []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, w = part.partition(":")
        if not name.strip().isidentifier():  # else no literal could name it
            raise SpecParseError(lineno, f"bad variable entry {part!r}")
        names.append(name.strip())
        try:
            weights.append(int(w) if w else 1)
        except ValueError:
            raise SpecParseError(lineno, f"bad weight in {part!r}")
    try:
        return PolyRing(field, names, weights)
    except ValueError as e:
        raise SpecParseError(lineno, str(e))


def _parse_scalar(field, lineno, text):
    """A scalar: a polynomial without variables."""
    return _read_poly(PolyRing(field, []), lineno, tokenize(text),
                      "scalar").constant_value()


def _read_scalars(field, lineno, text):
    """The comma-separated scalars of ``text``."""
    ring = PolyRing(field, [])
    return [_read_poly(ring, lineno, tokenize(part), "scalar").constant_value()
            for part in text.split(",")]


def _parse_group_element(ring, lineno, text):
    text = text.strip()
    field = ring.field
    if text.startswith("diag(") and text.endswith(")"):
        entries = _read_scalars(field, lineno, text[5:-1])
        if len(entries) != ring.nvars:
            raise SpecParseError(lineno, "diag() entry count != variable count")
        return GroupElement.diagonal(ring, entries)
    if text.startswith("matrix "):
        return GroupElement(ring, [_read_scalars(field, lineno, row) for row in
                                   text[len("matrix "):].split(";")])
    raise SpecParseError(lineno, f"expected diag(...) or matrix ..., got {text!r}")


def parse_spec(text):
    sections = _sections(text)
    if "field" not in sections:
        raise SpecParseError(1, "missing [field] section")
    field = _parse_field(_keyvals(sections["field"]), "field")
    if "potential" not in sections:
        raise SpecParseError(1, "missing [potential] section")
    kv = _keyvals(sections["potential"])
    for key in ("variables", "w", "d"):
        if key not in kv:
            raise SpecParseError(1, f"missing {key} in [potential]")
    lineno, val = kv["variables"]
    ring = _parse_variables(field, lineno, val)
    lineno, val = kv["w"]
    W = _read_poly(ring, lineno, tokenize(val), "potential")
    degree_d = _parse_positive(*kv["d"], "degree")
    generators = []
    J = None
    J_sqrt_lambda = None
    singles = []  # the [group] lines other than the repeatable generators
    for lineno, line in sections.get("group", []):
        key, _, val = line.partition("=")
        if key.strip().lower() == "generator":
            generators.append(_parse_group_element(ring, lineno, val))
        else:
            singles.append((lineno, line))
    for key, (lineno, val) in _keyvals(singles).items():
        if key == "j":
            J = _parse_group_element(ring, lineno, val)
        elif key == "j_sqrt":
            J_sqrt_lambda = _parse_scalar(field, lineno, val)
        else:
            raise SpecParseError(lineno, f"unknown [group] key {key!r}")
    if J is None:
        # the exponential-grading element is determined by the weights
        if field.order % degree_d != 0:
            raise SpecParseError(1, "cyclotomic order must be divisible by d")
        zeta_d = field.zeta ** (field.order // degree_d)
        J = GroupElement.diagonal(ring, [zeta_d ** w for w in ring.weights])
    curve = None
    if "curve" in sections:
        curve = _parse_curve(field, ring, sections["curve"])
    return SpecDocument(field, ring, W, degree_d, generators, J,
                        J_sqrt_lambda, curve)


def _split_before(words, keyword):
    """(the words before the first ``keyword``, the rest from it on): a
    point literal of a ``[curve]`` line runs up to its next keyword."""
    k = words.index(keyword) if keyword in words else len(words)
    return words[:k], words[k:]


def _parse_curve(field, ring, lines):
    components = []
    bundle_degrees = {}
    markings = []
    nodes = []
    divisor = []
    eta = {}
    first = {}  # (head, component) -> line, for the lines given once each

    def once(lineno, head, comp):
        if (head, comp) in first:
            raise SpecParseError(lineno, f"{head} {comp} repeated (first on line "
                                         f"{first[head, comp]})")
        first[head, comp] = lineno
        return comp

    for lineno, line in lines:
        words = line.split()
        head = words[0].lower()
        try:
            if head == "component":
                components.append(once(lineno, head, words[1]))
            elif head == "bundle":
                # bundle c0 = 0, -1
                _, _, val = line.partition("=")
                comp = once(lineno, head, words[1])
                bundle_degrees[comp] = [int(p) for p in val.split(",")]
            elif head == "marking":
                # marking c0 at 1 gamma diag(1) rig 1, z
                if words[2:3] != ["at"]:
                    raise SpecParseError(lineno, "expected marking <component> at "
                                                 "<point> gamma <element> rig <scalars>")
                comp = words[1]
                point_text, _, tail = line.split(None, 3)[3].partition("gamma")
                point = _parse_scalar(field, lineno, point_text)
                gamma_text, _, rig_text = tail.partition("rig")
                gamma = _parse_group_element(ring, lineno, gamma_text)
                rig = _read_scalars(field, lineno, rig_text)
                markings.append(Marking(comp, point, gamma, rig))
            elif head == "divisor":
                # divisor c0 at (1 + z^3) mult 2
                point_words, tail = _split_before(words[3:], "mult")
                if words[2:3] != ["at"] or not point_words or len(tail) not in (0, 2):
                    raise SpecParseError(lineno, "expected divisor <component> "
                                                 "at <point> [mult <m>]")
                comp = words[1]
                mult = _parse_positive(lineno, tail[1], "multiplicity") if tail else 1
                point = _parse_scalar(field, lineno, " ".join(point_words))
                divisor.append((comp, point, mult))
            elif head == "node":
                # node c0 at -1 rig z ~ c1 at 1 rig 1
                left, _, right = line[len("node"):].partition("~")

                def branch(btext):
                    bwords = btext.split()
                    point_words, tail = _split_before(bwords[2:], "rig")
                    if bwords[1:2] != ["at"] or not point_words or not tail:
                        raise SpecParseError(lineno, "expected node <component> at "
                                                     "<point> rig <scalars> ~ ...")
                    comp = bwords[0]
                    point = _parse_scalar(field, lineno, " ".join(point_words))
                    rig = _read_scalars(field, lineno, " ".join(tail[1:]))
                    return (comp, point, rig)

                nodes.append(Node(branch(left), branch(right)))
            elif head == "eta":
                _, _, val = line.partition("=")
                eta[once(lineno, head, words[1])] = _parse_ratfun(field, lineno, val)
            else:
                raise SpecParseError(lineno, f"unknown [curve] entry {head!r}")
        except (IndexError, ValueError) as e:
            if isinstance(e, SpecParseError):
                raise
            raise SpecParseError(lineno, f"malformed {head!r} entry: {e}")
    return {"components": components, "bundle_degrees": bundle_degrees,
            "markings": markings, "nodes": nodes, "divisor": divisor,
            "eta": eta}


def _parse_gen_list(lineno, text):
    gens = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, w = part.rpartition(":")
        try:
            gens.append(Generator(name.strip(), int(w)))
        except ValueError:
            raise SpecParseError(lineno, f"bad generator entry {part!r}")
    return gens


def parse_mf(text):
    """Read a matrix factorization file, returning (mf, certificate) where
    the certificate is the decoded [certificate] block or None.  The
    identity delta^2 = W . id is verified from the file contents alone
    (CertificateError if it fails).

    Each distinct entry literal of delta0 and delta1 is read once, and all
    its copies share that one immutable Poly, so ``verify`` turns each
    distinct entry into terms once as well."""
    sections = _sections(text)
    if "mf" not in sections:
        raise SpecParseError(1, "missing [mf] section")
    kv = _keyvals([(n, l) for (n, l) in sections["mf"]])
    for key in ("variables", "potential", "p0", "p1", "delta0", "delta1"):
        if key not in kv:
            raise SpecParseError(1, f"missing {key} in [mf]")
    field = _parse_field(kv, "mf")
    lineno, val = kv["variables"]
    ring = _parse_variables(field, lineno, val)
    lineno, val = kv["potential"]
    potential = _read_poly(ring, lineno, tokenize(val), "potential")
    _, val0 = kv["p0"]
    _, val1 = kv["p1"]
    p0 = _parse_gen_list(kv["p0"][0], val0)
    p1 = _parse_gen_list(kv["p1"][0], val1)
    memo = {}  # one for both matrices: entry text -> Poly
    lineno, val = kv["delta0"]
    delta0 = _parse_matrix(ring, lineno, val, len(p1), len(p0), memo)
    lineno, val = kv["delta1"]
    delta1 = _parse_matrix(ring, lineno, val, len(p0), len(p1), memo)
    mf = MatrixFactorization(ring, p0, p1, delta0, delta1, potential)
    certificate = None
    if "certificate" in sections:
        lines = sections["certificate"]
        blob = "\n".join(l for (_n, l) in lines)
        try:
            certificate = json.loads(blob)
        except json.JSONDecodeError as e:
            raise SpecParseError(lines[0][0] if lines else 1,
                                 f"bad certificate JSON: {e}")
    return mf, certificate


def _ring_from_sections(sections, section="ring"):
    field = _parse_field(_keyvals(sections.get("field", [])), "field")
    kv = _keyvals(sections[section])
    if "variables" not in kv:
        raise SpecParseError(1, f"missing variables in [{section}]")
    lineno, val = kv["variables"]
    return field, _parse_variables(field, lineno, val), kv


def parse_koszul(text):
    sections = _sections(text)
    if "koszul" not in sections or "ring" not in sections:
        raise SpecParseError(1, "koszul input needs [field], [ring], [koszul]")
    field, ring, _ = _ring_from_sections(sections)
    kv = _keyvals(sections["koszul"])
    if "alpha" not in kv or "beta" not in kv:
        raise SpecParseError(1, "missing alpha or beta in [koszul]")
    (la, alpha), (lb, beta) = kv["alpha"], kv["beta"]
    memo = {}
    return (ring, _read_entries(ring, la, alpha, "alpha entry", memo),
            _read_entries(ring, lb, beta, "beta entry", memo))


def parse_scheme(text):
    """[scheme] with even variables, odd generators, their images, and the
    curving function f_{-1}; returns (scheme, f)."""
    sections = _sections(text)
    if "scheme" not in sections:
        raise SpecParseError(1, "missing [scheme] section")
    field, ring, kv = _ring_from_sections(sections, section="scheme")
    if "odd" not in kv:
        raise SpecParseError(1, "missing odd generators in [scheme]")
    lineno, val = kv["odd"]
    odd = _parse_gen_list(lineno, val)
    names = [g.name for g in odd]
    repeated = next((n for k, n in enumerate(names) if n in names[:k]), None)
    if repeated is not None:
        raise SpecParseError(lineno, f"repeated odd generator {repeated}")
    images = []
    for g in odd:
        key = f"d({g.name})"
        if key not in kv:
            raise SpecParseError(lineno, f"missing {key} in [scheme]")
        ln, val = kv[key]
        images.append(_read_poly(ring, ln, tokenize(val), key))
    scheme = DgSchemePresentation(ring, odd, images)
    f = scheme.zero_element()
    if "f" in kv:
        ln, v = kv["f"]
        f = _parse_super_element(scheme, ln, v)
    return scheme, f


def parse_complex(text):
    sections = _sections(text)
    if "complex" not in sections:
        raise SpecParseError(1, "missing [complex] section")
    field = _parse_field(_keyvals(sections.get("field", [])), "field")
    kv = _keyvals(sections["complex"])
    ring = PolyRing(field, [], [])
    if "variables" in kv:
        lineno, val = kv["variables"]
        ring = _parse_variables(field, lineno, val)
    objects = {}
    diffs_text = {}
    for key, (lineno, val) in kv.items():
        words = key.split()
        if not words or words[0] not in ("generators", "d"):
            continue
        try:
            n = int(words[1])
        except (IndexError, ValueError):
            raise SpecParseError(lineno, f"bad degree in {key!r}")
        if words[0] == "generators":
            objects[n] = _parse_gen_list(lineno, val)
        else:
            diffs_text[n] = (lineno, val)
    diffs, memo = {}, {}
    for n, (lineno, val) in diffs_text.items():
        rows = len(objects.get(n + 1, []))
        cols = len(objects.get(n, []))
        diffs[n] = _parse_matrix(ring, lineno, val, rows, cols, memo)
    return FreeComplex(ring, objects, diffs)


# -- the comparison -------------------------------------------------------------

READERS = {"check": "parse_spec", "fundamental": "parse_spec", "glue": "parse_spec",
           "koszul": "parse_koszul", "fold": "parse_scheme", "homology": "parse_complex",
           "verify": "parse_mf", "support": "parse_mf"}


def _canon(obj):
    """``obj`` with every object that has no ``__eq__`` of its own (a
    SpecDocument, Marking, Node, DgSchemePresentation) spelled out by its
    attributes, so that ``==`` compares parses field by field."""
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if type(obj).__eq__ is object.__eq__ and hasattr(obj, "__dict__"):
        return type(obj).__name__, _canon(vars(obj))
    return obj


def _outcome(reader, text):
    """The canonical parse of ``text``, or the class of what it raised."""
    try:
        return _canon(reader(text))
    except Exception as e:
        return type(e)


ONE_COMPONENT = re.compile(r"^\s*(component|bundle|eta)\b(.*)$", re.I | re.M)
GENERATORS = re.compile(r"^\s*(?:p0|p1|odd|generators\s+\S+)\s*=(.*)$", re.I | re.M)


def _a_listed_change(text):
    """True if a component line, or a bundle or eta line before its ``=``,
    names no component or several, or an entry of a generator list has no
    ``:weight``: the inputs where the reader's verdict is meant to differ."""
    return (any(len((rest if head.lower() == "component" else rest.partition("=")[0])
                    .split()) != 1 for head, rest in ONE_COMPONENT.findall(text))
            or any(":" not in part for entries in GENERATORS.findall(text)
                   for part in entries.split(",") if part.strip()))


def _a_rejected_group_element(name, text, want):
    """True if the reference raised a plain ValueError where the reader
    reports a ``[group]`` element that ``GroupElement`` rejects."""
    if want is not ValueError:
        return False
    try:
        getattr(specfile, name)(text)
    except SpecParseError as e:
        return "bad group element" in str(e)
    return False


def _inputs(tmp_path):
    """(reader name, text) for every mutant of every CLI session input and
    every pipeline spec fixture."""
    from test_spincurve import SPEC_FIXTURES
    for command, text, _extra in _sessions(tmp_path):
        yield READERS[command], text
        for lines in _mutants(text):
            yield READERS[command], "\n".join(lines) + "\n"
    for text in SPEC_FIXTURES.values():
        yield "parse_spec", text


def test_readers_match_the_reference_on_every_mutant_and_fixture(tmp_path):
    compared, read, changed = 0, 0, 0
    for name, text in _inputs(tmp_path):
        want = _outcome(globals()[name], text)
        got = _outcome(getattr(specfile, name), text)
        compared += 1
        if got == want:
            read += not isinstance(got, type)
            continue
        assert got is SpecParseError and (_a_listed_change(text)
                                          or _a_rejected_group_element(name, text, want)), (
            f"{name}: reference {want!r}, reader {got!r} on:\n{text}")
        changed += 1
    # 4893 inputs: 930 read alike, 39 changed verdicts (20 of them [group]
    # elements), the rest raise alike
    assert compared > 4800 and read > 900 and 0 < changed < 40


@pytest.mark.parametrize("node", [
    "node c0 at -1 rig z c1 at 1 rig 1",
    "node c0 at -1 rig z ~ c1 at 1 rig 1 ~ c0 at 1 rig 1",
    "node c0 at -1 rig z ~",
    "node ~ c1 at 1 rig 1"])
def test_a_node_without_two_branches_is_a_parse_error(node):
    text = GLUED.replace("node c0 at -1 rig z ~ c1 at 1 rig 1", node)
    assert text != GLUED
    for reader in (parse_spec, specfile.parse_spec):
        with pytest.raises(SpecParseError, match="line 18"):
            reader(text)


@pytest.mark.parametrize("reader, text, old, new, reads", [
    ("parse_spec", SPIN, "bundle c0 = 0", "bundle c0=0", (True, True)),
    ("parse_spec", SPIN, "eta c0 = (2) / (t^2 + (-1))", "eta c0= (2)/(t^2 + (-1))",
     (True, True)),
    ("parse_spec", SPIN, "component c0", "component c0 c9", (True, False)),
    ("parse_spec", SPIN, "bundle c0 = 0", "bundle = 0", (True, False)),
    ("parse_spec", SPIN, "marking c0 at 1 gamma", "marking c0 at 1gamma", (True, False)),
    ("parse_spec", SPIN, "diag(1) rig 1\n", "diag(1)rig 1\n", (True, False)),
    ("parse_scheme", FOLD, "b0", "B0", (False, True)),
    ("parse_mf", None, "p0 = 1:0", "p0 = 100", (True, False))])
def test_the_changed_verdicts(tmp_path, reader, text, old, new, reads):
    """Each verdict that differs from the reference's, as CHANGES.md lists
    them, as (the reference reads it, the reader reads it).  A component
    read from the text before ``=`` is the component of the spaced line."""
    if text is None:
        text = dict((c, t) for c, t, _ in _sessions(tmp_path))["verify"]
    changed = text.replace(old, new)
    assert changed != text
    want, got = _outcome(globals()[reader], changed), _outcome(getattr(specfile, reader), changed)
    assert want != got
    assert (want is not SpecParseError, got is not SpecParseError) == reads
    if reads == (True, True):
        assert got == _outcome(specfile.parse_spec, text)
