"""Oracle arithmetic, independent of dgmf: Q(zeta_N) mapped into F_p.

For a prime p = 1 (mod N) the N-th cyclotomic polynomial splits over F_p, so
sending zeta_N to an element of order N is a ring map Q(zeta_N) -> F_p (away
from denominators divisible by p).  An exact identity over Q(zeta_N) therefore
holds in F_p; a broken one survives the map only if p divides the norm of the
difference, which a 61-bit p chosen independently of the inputs makes
negligible.  The oracles read dgmf objects as data (``Poly.terms``,
``Scalar.coeffs``) and never call into the library.
"""

from __future__ import annotations

import random
from fractions import Fraction

# every cyclotomic order the workloads use divides this
ORDERS_LCM = 84


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _find_prime():
    k = (1 << 61) // ORDERS_LCM
    while not _is_prime(ORDERS_LCM * k + 1):
        k -= 1
    return ORDERS_LCM * k + 1


P = _find_prime()


def _prime_factors(n):
    out, q = set(), 2
    while q * q <= n:
        while n % q == 0:
            out.add(q)
            n //= q
        q += 1
    if n > 1:
        out.add(n)
    return out


def root_of_unity(order):
    """An element of F_P of multiplicative order exactly ``order``."""
    for a in range(2, 1000):
        g = pow(a, (P - 1) // order, P)
        if all(pow(g, order // q, P) != 1 for q in _prime_factors(order)):
            return g
    raise ArithmeticError(f"no primitive {order}-th root of unity mod {P}")


def frac(q):
    q = Fraction(q)
    return q.numerator % P * pow(q.denominator, -1, P) % P


class Image:
    """The map Q(zeta_N) -> F_P for one cyclotomic order N."""

    def __init__(self, order):
        self.order = order
        self.zeta = root_of_unity(order)

    def coeffs(self, coeffs):
        """Image of sum_k coeffs[k] * zeta^k."""
        total, power = 0, 1
        for c in coeffs:
            if c:
                total = (total + frac(c) * power) % P
            power = power * self.zeta % P
        return total

    def scalar(self, s):
        return self.coeffs(s.coeffs)

    def poly(self, p, point):
        """Image of a dgmf Poly evaluated at ``point`` (values already in F_P)."""
        total = 0
        for exps, c in p.terms.items():
            term = self.scalar(c)
            for x, e in zip(point, exps):
                if e:
                    term = term * pow(x, e, P) % P
            total = (total + term) % P
        return total

    def matrix(self, m, point):
        return [[self.poly(c, point) for c in row] for row in m]


def random_point(rng, n):
    return [rng.randrange(1, P) for _ in range(n)]


def mat_mul(a, b):
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k, c in enumerate(row):
            if c:
                for j, bj in enumerate(b[k]):
                    acc[j] += c * bj
        out.append([x % P for x in acc])
    return out


def mat_add(a, b):
    return [[(x + y) % P for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_scalar_identity(m, value, n):
    """Whether the n x n matrix ``m`` equals value * id (an empty product
    counts as the zero-size identity)."""
    if n == 0:
        return True
    return len(m) == n and all(
        len(row) == n and all(c == (value if i == j else 0)
                              for j, c in enumerate(row))
        for i, row in enumerate(m))


def rank(m):
    m = [list(row) for row in m]
    r = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][j], -1, P)
        m[r] = [x * inv % P for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][j]:
                c = m[i][j]
                m[i] = [(x - c * y) % P for x, y in zip(m[i], m[r])]
        r += 1
    return r


def point_is_contractible(d0, d1, w_value, rank0, rank1):
    """The verdict for an MF at a point, from its F_P image: W(p) != 0, or
    delta(p) exact (rank d0 + rank d1 equal to both ranks)."""
    if w_value:
        return True
    r = rank(d0) + rank(d1)
    return r == rank0 and r == rank1


def rng_for(label):
    """A fixed generator for oracle evaluation points; independent of the
    workload seed so that the same output is checked the same way."""
    return random.Random(f"dgmf-bench-oracle:{label}")


# -- reading the emitted .mf text without the library ---------------------


def _split_top(text, sep):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


class MfText:
    """The [mf] section of a written matrix factorization, with every
    polynomial kept as text and evaluated in F_P on demand."""

    def __init__(self, text):
        fields = {}
        cert_lines = None
        for line in text.splitlines():
            if line.strip() == "[certificate]":
                cert_lines = []
                continue
            if cert_lines is not None:
                cert_lines.append(line)
                continue
            key, sep, val = line.partition("=")
            if sep:
                fields[key.strip()] = val.strip()
        self.order = int(fields["order"])
        self.names = [v.split(":")[0].strip()
                      for v in fields["variables"].split(",") if v.strip()]
        self.potential = fields["potential"]
        self.p0 = [g for g in fields["p0"].split(",") if g.strip()]
        self.p1 = [g for g in fields["p1"].split(",") if g.strip()]
        self.delta0 = self._matrix(fields["delta0"])
        self.delta1 = self._matrix(fields["delta1"])
        self.certificate_text = "\n".join(cert_lines or [])
        self.image = Image(self.order)

    @staticmethod
    def _matrix(text):
        if not text.strip():
            return []
        rows = []
        for rtext in text.split(";"):
            row = []
            for part in _split_top(rtext, ","):
                part = part.strip()
                if part.startswith("(") and part.endswith(")"):
                    part = part[1:-1]
                row.append(part)
            rows.append(row)
        return rows

    def eval_poly(self, text, point):
        env = dict(zip(self.names, point))
        total = 0
        for term in _terms(text):
            total = (total + _eval_term(term, env, self.image.zeta)) % P
        return total

    def eval_matrix(self, m, point):
        return [[self.eval_poly(c, point) for c in row] for row in m]


def _terms(text):
    """Top-level summands of a Poly or Scalar string (signs kept)."""
    text = text.strip()
    if text in ("", "0"):
        return []
    out, depth, cur = [], 0, ""
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and text.startswith(" + ", i):
            out.append(cur)
            cur = ""
            i += 3
            continue
        if depth == 0 and text.startswith(" - ", i):
            out.append(cur)
            cur = "-"
            i += 3
            continue
        cur += ch
        i += 1
    out.append(cur)
    return [t for t in out if t.strip()]


def _eval_term(term, env, zeta):
    term = term.strip()
    sign = 1
    value = 1
    for factor in _split_top(term, "*"):
        factor = factor.strip()
        if factor.startswith("(") and factor.endswith(")"):
            inner = 0
            for t in _terms(factor[1:-1]):
                inner = (inner + _eval_term(t, env, zeta)) % P
            value = value * inner % P
            continue
        if factor.startswith("-"):
            sign = -sign
            factor = factor[1:]
        base, _, exp = factor.partition("^")
        e = int(exp) if exp else 1
        if base == "z":
            value = value * pow(zeta, e, P) % P
        elif base in env:
            value = value * pow(env[base], e, P) % P
        else:
            value = value * pow(frac(base), e, P) % P
    return sign * value % P
