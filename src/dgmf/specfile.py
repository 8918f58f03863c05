"""Text formats: curve spec files, matrix-factorization files, and the small
input formats for the koszul/fold/homology commands.

Spec files are sectioned (`[field]`, `[potential]`, `[group]`, `[curve]`);
matrix factorizations are written with fully parenthesised exact entries so
`verify` can re-check delta^2 = W . id from the file alone.  All parse errors
carry the 1-based line number.  A key repeated in a ``key = value``
section is one, and so is a second ``component``, ``bundle`` or ``eta`` line
for one component of a ``[curve]`` section.

Every scalar and polynomial literal is read by the one grammar of
``cyclotomic.read_terms``.  That grammar has no ``,`` or ``;``, so polynomial
and scalar lists are split at ``,`` and matrix rows at ``;`` on the raw
text, and each distinct entry text of a matrix is tokenized and read once.
``(num)/(den)`` at ``/`` and ``(poly)*b0^b1`` terms at ``+``, where
parentheses matter, are split in the token list, outside parentheses, by
``cyclotomic.split_tokens``.
"""

from __future__ import annotations

import json
from itertools import combinations

from . import linalg
from .complexes import FreeComplex, Generator
from .cyclotomic import CyclotomicField, read_terms, split_tokens, tokenize
from .factorizations import DgSchemePresentation, MatrixFactorization, SuperElement
from .groups import GroupElement
from .poly import Poly, PolyRing
from .ratfun import RationalFunction, UPoly
from .spincurve import SIGN_CONVENTION, Marking, Node, SpinCurveSpec


class SpecParseError(ValueError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _sections(text):
    """section name -> list of (lineno, stripped line)."""
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


def _keyvals(lines):
    out = {}
    for lineno, line in lines:
        if "=" not in line:
            raise SpecParseError(lineno, f"expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key in out:
            raise SpecParseError(lineno, f"key {key!r} repeated (first on line "
                                         f"{out[key][0]})")
        out[key] = (lineno, val.strip())
    return out


def _parse_positive(lineno, text, what):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise SpecParseError(lineno, f"bad {what} {text!r}: expected a "
                                     f"positive integer")
    return value


def _parse_field(kv, where):
    """The cyclotomic field Q(zeta_N) from the ``order`` key of a section."""
    if "order" not in kv:
        raise SpecParseError(1, f"missing order in [{where}]")
    lineno, val = kv["order"]
    return CyclotomicField(_parse_positive(lineno, val, "cyclotomic order"))


def _read_poly(ring, lineno, toks, what):
    """The Poly over ``ring`` that the token list ``toks`` spells."""
    try:
        return Poly(ring, read_terms(ring.field, ring.names, toks))
    except (ValueError, ZeroDivisionError) as e:
        raise SpecParseError(lineno, f"bad {what} {' '.join(toks)!r}: {e}")


def _read_entry(ring, lineno, toks, what):
    """A polynomial, optionally in one pair of parentheses around all of it:
    the outer pair is stripped only when the first ``(`` closes at the end."""
    depth = 0
    for i, tok in enumerate(toks):
        depth += (tok == "(") - (tok == ")")
        if not depth:
            break
    if toks and toks[0] == "(" and not depth and i == len(toks) - 1:
        toks = toks[1:-1]
    return _read_poly(ring, lineno, toks, what)


def _read_entries(ring, lineno, text, what, memo):
    """The ``_read_entry`` polynomials of ``text`` split at ``,``; none for
    blank text.  ``memo`` maps each stripped entry text read so far to its
    Poly, so each distinct literal is tokenized and read once and all its
    copies share one immutable Poly (``(0)``, the writer's zero entry, is
    one such key).  Pass one memo for all the entries of one ring."""
    keys = [part.strip() for part in text.split(",")] if text.strip() else []
    for key in dict.fromkeys(keys):
        if key not in memo:
            memo[key] = _read_entry(ring, lineno, tokenize(key), what)
    return [memo[key] for key in keys]


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


def _parse_ratfun(field, lineno, text):
    """(num poly in t) / (den poly in t), split at the "/" token outside
    parentheses."""
    parts = split_tokens(tokenize(text), "/")
    if len(parts) != 2:
        raise SpecParseError(lineno, f"expected (num)/(den), got {text!r}")
    tring = PolyRing(field, ["t"], [1])
    num, den = (UPoly.from_poly(_read_entry(tring, lineno, p, "rational function"))
                for p in parts)
    try:
        return RationalFunction(num, den)
    except (ValueError, ZeroDivisionError) as e:
        raise SpecParseError(lineno, f"bad rational function: {e}")


class SpecDocument:
    """A parsed spec file; the [curve] section is optional (the `check`
    command only needs the potential and the group)."""

    def __init__(self, field, ring, potential, degree_d, generators, J,
                 J_sqrt_lambda, curve):
        self.field = field
        self.ring = ring
        self.potential = potential
        self.degree_d = degree_d
        self.generators = generators
        self.J = J
        self.J_sqrt_lambda = J_sqrt_lambda
        self.curve = curve  # dict or None

    def spin_spec(self):
        if self.curve is None:
            raise ValueError("spec file has no [curve] section")
        c = self.curve
        return SpinCurveSpec(self.field, self.ring, self.potential,
                             self.degree_d, self.generators, self.J,
                             c["components"], c["bundle_degrees"], c["markings"],
                             c["nodes"], c["divisor"], c["eta"],
                             self.J_sqrt_lambda)


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


# -- matrix factorization files -------------------------------------------


def write_mf(mf, certificate=None):
    lines = ["[mf]"]
    lines.append(f"order = {mf.ring.field.order}")
    lines.append("variables = " + ", ".join(
        f"{n}:{w}" for n, w in zip(mf.ring.names, mf.ring.weights)))
    lines.append(f"potential = {mf.potential}")
    lines.append("p0 = " + ", ".join(f"{g.name}:{g.weight}" for g in mf.p0_gens))
    lines.append("p1 = " + ", ".join(f"{g.name}:{g.weight}" for g in mf.p1_gens))

    entry = linalg.per_object(lambda c: f"({c})")  # one text per distinct entry
    matrix_text = lambda m: " ; ".join(", ".join(map(entry, row)) for row in m)
    lines.append("delta0 = " + matrix_text(mf.delta0))
    lines.append("delta1 = " + matrix_text(mf.delta1))
    lines.append(f"sign_convention = {SIGN_CONVENTION}")
    if certificate is not None:
        lines.append("")
        lines.append("[certificate]")
        lines.append(json.dumps(certificate, indent=2, sort_keys=True))
    return "\n".join(lines) + "\n"


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


def _parse_matrix(ring, lineno, text, rows, cols, memo):
    """A matrix of ``_read_entries`` rows, split at ``;`` on the raw text
    (the literal grammar has no ``;``)."""
    text = text.strip()
    if rows == 0 or cols == 0:
        if text:
            raise SpecParseError(lineno, "expected an empty matrix")
        return [[] for _ in range(rows)]
    matrix = [_read_entries(ring, lineno, row, "entry", memo)
              for row in text.split(";")] if text else []
    if len(matrix) != rows or any(len(r) != cols for r in matrix):
        raise SpecParseError(lineno, f"matrix shape {len(matrix)} rows, "
                                     f"expected {rows} x {cols}")
    return matrix


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


# -- koszul / fold / complex inputs ---------------------------------------


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


def _parse_super_element(scheme, lineno, text):
    """A sum, at ``+`` tokens, of terms ``(poly)*b0^b1^...``, or ``0``, the
    zero element as ``SuperElement`` prints it."""
    names = {g.name: k for k, g in enumerate(scheme.odd_gens)}
    terms = {}
    toks = tokenize(text)
    if toks == ["0"]:
        return scheme.zero_element()
    for part in split_tokens(toks, "+"):
        if not part:
            continue
        close = len(part) - 1 - part[::-1].index(")") if ")" in part else 0
        tail = part[close + 1:]
        odd = tail[1::2]
        if part[0] != "(" or not odd or tail[::2] != ["*"] + ["^"] * (len(odd) - 1):
            raise SpecParseError(lineno, f"term {' '.join(part)!r} must look "
                                         f"like (poly)*b0^b1")
        coeff = _read_poly(scheme.ring, lineno, part[1:close], "coefficient")
        if len(set(odd)) != len(odd):
            raise SpecParseError(lineno, f"term {' '.join(part)!r} repeats an "
                                         f"odd generator")
        try:
            positions = [names[n] for n in odd]
        except KeyError as e:
            raise SpecParseError(lineno, f"unknown odd generator {e}")
        # odd generators anticommute: sorting them signs the term by the
        # parity of the permutation, the parity of its inversions
        if sum(a > b for a, b in combinations(positions, 2)) % 2:
            coeff = -coeff
        subset = tuple(sorted(positions))
        terms[subset] = terms.get(subset, scheme.ring.zero) + coeff
    return SuperElement(scheme, terms)


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
