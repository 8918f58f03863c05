"""Text formats: curve spec files, matrix-factorization files, and the small
input formats for the koszul/fold/homology commands.

Spec files are sectioned (`[field]`, `[potential]`, `[group]`, `[curve]`);
matrix factorizations are written with fully parenthesised exact entries so
`verify` can re-check delta^2 = W . id from the file alone.  All parse errors
carry the 1-based line number.

Each shape of input has one reader.  ``_section`` reads each ``key = value``
section: keys are case-insensitive, none is repeated, the required ones are
there.  ``_cut`` splits each ``[curve]`` line with keywords: after the
component, a keyword's point, element or scalar list runs to the next
keyword word.  A ``component``, ``bundle`` or ``eta`` line names one
component, before any ``=``, once.  ``_name_weights`` reads every
``name:weight`` list.

Every scalar and polynomial literal is read by the one grammar of
``cyclotomic.read_terms``; a scalar is a scalar list of length one.  That
grammar has no ``,`` or ``;``, so lists are split at ``,`` and matrix rows
at ``;`` on the raw text, and each distinct entry text of a matrix is read
once.  ``(num)/(den)`` at ``/`` and ``(poly)*b0^b1`` terms at ``+``, where
parentheses matter, are split in the token list, outside parentheses, by
``cyclotomic.split_tokens``.
"""

from __future__ import annotations

import json
from itertools import combinations

from . import linalg
from .complexes import FreeComplex, Generator
from .cyclotomic import CyclotomicField, read_terms, split_tokens, tokenize
from .factorizations import (CertificateError, DgSchemePresentation, MatrixFactorization,
                             SuperElement, koszul_of_cells)
from .groups import GroupElement
from .poly import Poly, PolyRing
from .ratfun import RationalFunction, UPoly
from .spincurve import SIGN_CONVENTION, Marking, Node, SpinCurveSpec


class SpecParseError(ValueError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _sections(text):
    """section name -> (header lineno, list of (lineno, stripped line))."""
    out = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            out.setdefault(current, (lineno, []))
            continue
        if current is None:
            raise SpecParseError(lineno, "content before any [section] header")
        out[current][1].append((lineno, line))
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


def _section(sections, name, required=(), lineno=None):
    """``[name]``'s ``key = value`` pairs, key -> (lineno, value); a missing key
    of ``required`` (lower case) is reported at ``lineno``, else at the header."""
    if name not in sections:
        raise SpecParseError(1, f"missing [{name}] section")
    header, lines = sections[name]
    kv = _keyvals(lines)
    for key in required:
        if key not in kv:
            raise SpecParseError(lineno or header, f"missing {key} in [{name}]")
    return kv


def _parse_field(kv):
    """The cyclotomic field Q(zeta_N) from the ``order`` key of a section."""
    return CyclotomicField(_parse_positive(*kv["order"], "cyclotomic order"))


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


def _name_weights(lineno, text, what, default=""):
    """The (name, weight) pairs of the comma-separated ``name:weight`` list
    ``text``, blank entries skipped.  The weight follows the last ``:``; an
    entry with no weight text reads ``default`` instead, so with the empty
    default every entry needs a weight."""
    pairs = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        name, _, w = part.rpartition(":") if ":" in part else (part, "", "")
        try:
            pairs.append((name.strip(), int(w or default)))
        except ValueError:
            raise SpecParseError(lineno, f"bad {what} {part!r}")
    return pairs


def _parse_variables(field, lineno, text):
    """A ring's variables: identifiers, else no literal could name them,
    of weight 1 unless given."""
    pairs = _name_weights(lineno, text, "variable entry", default="1")
    bad = next((name for name, _ in pairs if not name.isidentifier()), None)
    if bad is not None:
        raise SpecParseError(lineno, f"bad variable name {bad!r}")
    try:
        return PolyRing(field, [n for n, _ in pairs], [w for _, w in pairs])
    except ValueError as e:
        raise SpecParseError(lineno, str(e))


def _parse_gen_list(lineno, text):
    return [Generator(*pair) for pair in _name_weights(lineno, text, "generator entry")]


def _read_scalars(field, lineno, text, count=None):
    """The comma-separated scalars of ``text``, a polynomial without
    variables each: exactly ``count`` of them if ``count`` is given."""
    ring = PolyRing(field, [])
    scalars = [_read_poly(ring, lineno, tokenize(part), "scalar").constant_value()
               for part in text.split(",")]
    if count is not None and len(scalars) != count:
        raise SpecParseError(lineno, f"expected {count} scalar(s) in {text.strip()!r}")
    return scalars


def _parse_group_element(ring, lineno, text):
    """A ``diag(...)`` or ``matrix ...`` element; scalars that make none are
    a SpecParseError at ``lineno``, in ``[group]`` as in ``[curve]``."""
    text, field = text.strip(), ring.field
    if text.startswith("diag(") and text.endswith(")"):
        make, value = GroupElement.diagonal, _read_scalars(field, lineno, text[5:-1])
    elif text.startswith("matrix "):
        make, value = GroupElement, [_read_scalars(field, lineno, r) for r in text[7:].split(";")]
    else:
        raise SpecParseError(lineno, f"expected diag(...) or matrix ..., got {text!r}")
    try:
        return make(ring, value)
    except ValueError as e:
        raise SpecParseError(lineno, f"bad group element {text!r}: {e}")


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


def _ring_from_sections(sections, name, required=()):
    """(field, ring, the key = value pairs of ``[name]``): the field from the
    ``order`` of ``[field]``, the ring from the ``variables`` of ``[name]``."""
    field = _parse_field(_section(sections, "field", ("order",)))
    kv = _section(sections, name, ("variables", *required))
    return field, _parse_variables(field, *kv["variables"]), kv


def parse_spec(text):
    sections = _sections(text)
    field, ring, kv = _ring_from_sections(sections, "potential", ("w", "d"))
    lineno, val = kv["w"]
    W = _read_poly(ring, lineno, tokenize(val), "potential")
    degree_d = _parse_positive(*kv["d"], "degree")
    generators, J, J_sqrt_lambda = [], None, None
    singles = []  # the [group] lines other than the repeatable generators
    for lineno, line in sections.get("group", (1, []))[1]:
        key, _, val = line.partition("=")
        if key.strip().lower() == "generator":
            generators.append(_parse_group_element(ring, lineno, val))
        else:
            singles.append((lineno, line))
    for key, (lineno, val) in _keyvals(singles).items():
        if key == "j":
            J = _parse_group_element(ring, lineno, val)
        elif key == "j_sqrt":
            J_sqrt_lambda = _read_scalars(field, lineno, val, 1)[0]
        else:
            raise SpecParseError(lineno, f"unknown [group] key {key!r}")
    if J is None:
        # the exponential-grading element is determined by the weights
        if field.order % degree_d != 0:
            raise SpecParseError(1, "cyclotomic order must be divisible by d")
        zeta_d = field.zeta ** (field.order // degree_d)
        J = GroupElement.diagonal(ring, [zeta_d ** w for w in ring.weights])
    curve = _parse_curve(field, ring, sections["curve"][1]) if "curve" in sections else None
    return SpecDocument(field, ring, W, degree_d, generators, J,
                        J_sqrt_lambda, curve)


_KEYWORDS = ("at", "gamma", "rig", "mult")
_MARKING = "marking <component> at <point> gamma <element> rig <scalars>"
_DIVISOR = "divisor <component> at <point> [mult <m>]"
_NODE = "node <component> at <point> rig <scalars> ~ <component> at <point> rig <scalars>"


def _cut(lineno, text, usage, *forms):
    """(component, {keyword: text}) of a ``[curve]`` line after its head: the
    first word is the component, and the text of each keyword word that
    follows runs to the next keyword word.  The keywords, in order, must
    spell one of ``forms``; each text is checked by the reader of its field."""
    words = text.split()
    cuts = [i for i, w in enumerate(words) if i and w in _KEYWORDS]
    if cuts[:1] != [1] or " ".join(words[i] for i in cuts) not in forms:
        raise SpecParseError(lineno, f"expected {usage}")
    return words[0], {words[i]: " ".join(words[i + 1:j])
                      for i, j in zip(cuts, cuts[1:] + [len(words)])}


def _parse_curve(field, ring, lines):
    components, markings, nodes, divisor = [], [], [], []
    bundle_degrees, eta = {}, {}
    first = {}  # (head, component) -> line, for the lines given once each

    def once(lineno, head, text):
        comp = text.split()
        if len(comp) != 1:
            raise SpecParseError(lineno, f"expected one component after {head}, "
                                         f"got {text.strip()!r}")
        comp = comp[0]
        if (head, comp) in first:
            raise SpecParseError(lineno, f"{head} {comp} repeated (first on line "
                                         f"{first[head, comp]})")
        first[head, comp] = lineno
        return comp

    def point(lineno, text):
        return _read_scalars(field, lineno, text, 1)[0]

    for lineno, line in lines:
        head_word = line.split()[0]
        head, rest = head_word.lower(), line[len(head_word):]
        key, _, val = rest.partition("=")
        try:
            if head == "component":
                components.append(once(lineno, head, rest))
            elif head == "bundle":
                # bundle c0 = 0, -1
                comp = once(lineno, head, key)
                bundle_degrees[comp] = [int(p) for p in val.split(",")]
            elif head == "eta":
                # eta c0 = (2) / (t^2 + (-1))
                eta[once(lineno, head, key)] = _parse_ratfun(field, lineno, val)
            elif head == "marking":
                # marking c0 at 1 gamma diag(1) rig 1, z
                comp, f = _cut(lineno, rest, _MARKING, "at gamma rig")
                markings.append(Marking(comp, point(lineno, f["at"]),
                                        _parse_group_element(ring, lineno, f["gamma"]),
                                        _read_scalars(field, lineno, f["rig"])))
            elif head == "divisor":
                # divisor c0 at (1 + z^3) mult 2
                comp, f = _cut(lineno, rest, _DIVISOR, "at", "at mult")
                mult = _parse_positive(lineno, f["mult"], "multiplicity") if "mult" in f else 1
                divisor.append((comp, point(lineno, f["at"]), mult))
            elif head == "node":
                # node c0 at -1 rig z ~ c1 at 1 rig 1
                branches = rest.split("~")
                if len(branches) != 2:
                    raise SpecParseError(lineno, f"expected {_NODE}")
                cuts = [_cut(lineno, b, _NODE, "at rig") for b in branches]
                nodes.append(Node(*((comp, point(lineno, f["at"]),
                                     _read_scalars(field, lineno, f["rig"]))
                                    for comp, f in cuts)))
            else:
                raise SpecParseError(lineno, f"unknown [curve] entry {head!r}")
        except ValueError as e:
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
    its copies share that one immutable Poly.  A file that is exactly a
    Koszul fold, as every pipeline, ``koszul`` and ``fold`` output of a
    curving linear in the odd generators is, reads back as that
    ``KoszulMF``, certified by sum_k alpha_k beta_k = W and a walk that finds
    every cell equal to its fold's (``koszul_of_cells``).  Any other file,
    such as a tensor product, a fold of a degree-3 curving or an edited
    file, is a ``MatrixFactorization`` checked cell by cell, with the same
    report of the first bad entry as before."""
    sections = _sections(text)
    kv = _section(sections, "mf", ("order", "variables", "potential", "p0", "p1",
                                   "delta0", "delta1"))
    field = _parse_field(kv)
    ring = _parse_variables(field, *kv["variables"])
    lineno, val = kv["potential"]
    potential = _read_poly(ring, lineno, tokenize(val), "potential")
    p0 = _parse_gen_list(*kv["p0"])
    p1 = _parse_gen_list(*kv["p1"])
    memo = {}  # one for both matrices: entry text -> Poly
    delta0 = _parse_matrix(ring, *kv["delta0"], len(p1), len(p0), memo)
    delta1 = _parse_matrix(ring, *kv["delta1"], len(p0), len(p1), memo)
    mf = (koszul_of_cells(ring, p0, p1, delta0, delta1, potential)
          or MatrixFactorization(ring, p0, p1, delta0, delta1, potential))
    certificate = None
    if "certificate" in sections:
        header, lines = sections["certificate"]
        try:
            certificate = json.loads("\n".join(l for (_n, l) in lines))
        except json.JSONDecodeError as e:
            raise SpecParseError(lines[0][0] if lines else header,
                                 f"bad certificate JSON: {e}")
    return mf, certificate


def check_claims(mf, certificate):
    """Check the claims of a ``.mf`` certificate that the file alone can
    confirm: ``rank`` is [rank0, rank1], ``field_order`` the field's order,
    ``potential`` reads to the [mf] potential, and ``sector_variables``
    followed by ``auxiliary_variables`` are the ring's names, in order.  A
    claim the certificate does not make is not checked (nor is any claim of
    a certificate that is no JSON object); a false one is a CertificateError
    that names it and what the file has."""
    claims = certificate if isinstance(certificate, dict) else {}
    ring, ranks, names = mf.ring, [mf.rank0, mf.rank1], list(mf.ring.names)

    def reads_to_potential(text):
        try:
            return _read_poly(ring, 0, tokenize(text), "potential") == mf.potential
        except ValueError:
            return False

    for keys, holds, actual in (
            (["rank"], lambda v: v == ranks, ranks),
            (["field_order"], lambda v: v == ring.field.order, ring.field.order),
            (["potential"], lambda v: isinstance(v, str) and reads_to_potential(v),
             str(mf.potential)),
            (["sector_variables", "auxiliary_variables"],
             lambda s, a: isinstance(s, list) and isinstance(a, list) and s + a == names,
             names)):
        claimed = [claims.get(key, []) for key in keys]
        if not claims.keys().isdisjoint(keys) and not holds(*claimed):
            raise CertificateError(
                f"the certificate claims {' + '.join(keys)} = "
                f"{' + '.join(map(json.dumps, claimed))}, but the file has "
                f"{json.dumps(actual)}")


# -- koszul / fold / complex inputs ---------------------------------------


def parse_koszul(text):
    sections = _sections(text)
    _, ring, _ = _ring_from_sections(sections, "ring")
    kv = _section(sections, "koszul", ("alpha", "beta"))
    (la, alpha), (lb, beta) = kv["alpha"], kv["beta"]
    memo = {}
    return (ring, _read_entries(ring, la, alpha, "alpha entry", memo),
            _read_entries(ring, lb, beta, "beta entry", memo))


def parse_scheme(text):
    """[scheme] with even variables, odd generators, their images, and the
    curving function f_{-1}; returns (scheme, f).  Keys are case-insensitive,
    so ``d(B0)`` and ``d(b0)`` name one key, and two odd generators whose
    names differ only in case are an error."""
    sections = _sections(text)
    _, ring, kv = _ring_from_sections(sections, "scheme", ("odd",))
    lineno, val = kv["odd"]
    odd = _parse_gen_list(lineno, val)
    keys = [f"d({g.name})".lower() for g in odd]
    repeated = next((g.name for k, g in enumerate(odd) if keys[k] in keys[:k]), None)
    if repeated is not None:
        raise SpecParseError(lineno, f"repeated odd generator {repeated} (case ignored)")
    kv = _section(sections, "scheme", keys, lineno)
    images = [_read_poly(ring, kv[key][0], tokenize(kv[key][1]), key) for key in keys]
    scheme = DgSchemePresentation(ring, odd, images)
    f = _parse_super_element(scheme, *kv["f"]) if "f" in kv else scheme.zero_element()
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
    field = _parse_field(_section(sections, "field", ("order",)))
    kv = _section(sections, "complex")
    ring = _parse_variables(field, *kv.get("variables", (1, "")))
    objects, diffs_text = {}, {}
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
