"""The three seeded workloads and their oracles.

A workload's ``build(seed, lib, workdir)`` is its set-up: it turns the seed
into inputs (and, for ``fiber``, precomputes pipeline results) and returns the
fixed job list of a run.  Each job has a ``run`` (the timed library work) and
a ``check`` (the oracle, untimed), which returns the problems it found and the
bytes that go into the output digest.  The seed changes values only: every
size (divisor multiplicity, rank, field order, job count) is fixed here.

Oracles never call dgmf: they read its objects as data and check identities in
F_p through ``modp``.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from . import modp


class Job:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


# exponents k for which 1 + zeta^k has two nonzero coordinates in the power
# basis
_ZETA_EXPONENTS = {4: (1, 3), 7: (1, 2, 3, 4, 5), 12: (1, 7)}


class _Values:
    """Seeded nonzero non-rational values 1 + zeta^k in one field.

    Where zeta -> -zeta is a field automorphism (4 divides N), the exponents
    follow a pattern fixed by ``label`` and the seed picks the sign of zeta
    once: the two inputs are Galois conjugate, their power-basis coordinates
    differ only in sign, and they cost the same.  Elsewhere the seed picks
    each exponent.  Either way the seed moves values, not the cost class.
    """

    def __init__(self, rng, field, label):
        self.one = field.one
        self.exponents = _ZETA_EXPONENTS[field.order]
        if field.order % 4 == 0:
            self.zeta = field.zeta * rng.choice((1, -1))
            self.rng = random.Random(label)
        else:
            self.zeta = field.zeta
            self.rng = rng

    def __call__(self):
        return self.one + self.zeta ** self.rng.choice(self.exponents)

    def sign(self):
        return self.rng.choice((-1, 1))


def _scalar_data(s):
    return tuple(str(c) for c in s.coeffs)


def _poly_data(p):
    return sorted((e, _scalar_data(c)) for e, c in p.terms.items())


def _matrix_data(m):
    return [[_poly_data(c) for c in row] for row in m]


# -- pipeline --------------------------------------------------------------
#
# One job is a user's CLI session on one spin-curve spec (check, fundamental,
# verify on the emitted .mf, support without certificates), or one glue of a
# cylinder pair.  The mix loads spincurve, complexes, poly, factorizations
# (fold and the dense delta^2 check), specfile and cli, with mostly rational
# scalars; linalg and ratfun stay light.  Sizes keep every job well under a
# tenth of a run.

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
divisor c0 at {point} mult {mult}
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
divisor c0 at {point} mult {mult}
"""

_CYLINDERS = """[field]
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
{marks}
divisor c0 at 0 mult {mult}
divisor c1 at 0 mult {mult}
{etas}"""

_DISCONNECTED_MARKS = """marking c0 at 1 gamma diag(1) rig 1
marking c0 at -1 gamma diag(1) rig z
marking c1 at 1 gamma diag(1) rig 1
marking c1 at -1 gamma diag(1) rig z"""

_DISCONNECTED_ETAS = """eta c0 = (2) / (t^2 + (-1))
eta c1 = (2) / (t^2 + (-1))
"""

_GLUED_MARKS = """marking c0 at 1 gamma diag(1) rig 1
marking c1 at -1 gamma diag(1) rig z
node c0 at -1 rig z ~ c1 at 1 rig 1"""

# divisor points off the origin: the seed picks the sign, and a point and
# its negative cost the same
_OFF_ORIGIN = ("2", "-2")

SUPPORT_POINTS = 3


def _session_specs(rng):
    """(name, spec text, dim B, potential degree) for each session job.

    With the two glue jobs that makes 13 jobs.  The three A_2 Q(zeta_6)
    sessions sit in the middle by cost, well apart from their neighbours, and
    cost the same for every seed, so job_s.p50 is the median of their samples."""
    off = [rng.choice(_OFF_ORIGIN) for _ in range(2)]
    a2_n6_m4 = _A2.format(order=6, j="z^2", rig="1", point="0", mult=4)
    return [
        ("a1-m5", _A1.format(point="0", mult=5), 5, 2),
        ("a2-n6-m4-a", a2_n6_m4, 4, 3),
        ("a1-off-m4-a", _A1.format(point=off[0], mult=4), 4, 2),
        ("xy-m2", _XY.format(point="0", mult=2), 4, 2),
        ("a2-n6-m4-b", a2_n6_m4, 4, 3),
        ("a1-m6", _A1.format(point="0", mult=6), 6, 2),
        ("a1-m4", _A1.format(point="0", mult=4), 4, 2),
        ("a2-n12-m3", _A2.format(order=12, j="z^4", rig="z^3", point="0", mult=3), 3, 3),
        ("a1-off-m4-b", _A1.format(point=off[1], mult=4), 4, 2),
        ("a2-n6-m4-c", a2_n6_m4, 4, 3),
        ("a2-n12-m4", _A2.format(order=12, j="z^4", rig="1", point="0", mult=4), 4, 3),
    ]


def build_pipeline(seed, lib, workdir):
    rng = random.Random(f"pipeline:{seed}")
    cli = lib.cli
    jobs = []
    for name, text, dim_b, degree in _session_specs(rng):
        spec_path = os.path.join(workdir, f"{name}.spec")
        with open(spec_path, "w") as fh:
            fh.write(text)
        jobs.append(_session_job(cli, workdir, name, spec_path, dim_b, degree,
                                 rng.randrange(1 << 30)))
    for mult in (2, 1):
        name = f"glue-m{mult}"
        disc = os.path.join(workdir, f"{name}-disconnected.spec")
        glued = os.path.join(workdir, f"{name}-glued.spec")
        with open(disc, "w") as fh:
            fh.write(_CYLINDERS.format(marks=_DISCONNECTED_MARKS, mult=mult,
                                       etas=_DISCONNECTED_ETAS))
        with open(glued, "w") as fh:
            fh.write(_CYLINDERS.format(marks=_GLUED_MARKS, mult=mult, etas=""))
        jobs.append(_glue_job(cli, workdir, name, disc, glued))
    return jobs


def _session_job(cli, workdir, name, spec_path, dim_b, degree, support_seed):
    out = {k: os.path.join(workdir, f"{name}.{k}")
           for k in ("check", "mf", "verify", "support")}

    def run():
        return [
            cli.main(["check", "--input", spec_path, "--output", out["check"]]),
            cli.main(["fundamental", "--input", spec_path, "--output", out["mf"]]),
            cli.main(["verify", "--input", out["mf"], "--output", out["verify"]]),
            cli.main(["support", "--input", out["mf"], "--output", out["support"],
                      "--points", str(SUPPORT_POINTS), "--seed", str(support_seed)]),
        ]

    def check(codes):
        problems = [f"exit code {c} from {cmd}" for c, cmd in
                    zip(codes, ("check", "fundamental", "verify", "support")) if c]
        texts = {}
        for k, path in out.items():
            try:
                with open(path) as fh:
                    texts[k] = fh.read()
                os.remove(path)  # a later pass must not read a stale file
            except OSError as e:
                problems.append(f"missing {k} output: {e}")
        if problems:
            return problems, b""
        problems += _check_report(texts["check"])
        problems += check_mf(texts["mf"], dim_b, degree, name)
        problems += _check_support(texts["mf"], texts["support"])
        if texts["verify"] != "verified: delta^2 = W . id\n":
            problems.append("verify did not certify delta^2 = W . id")
        digest = "".join(texts[k] for k in ("check", "mf", "verify", "support"))
        return problems, digest.encode()

    return Job(name, run, check)


def _check_report(text):
    report = json.loads(text)
    want = {"quasihomogeneous": True, "invariant": True,
            "nondegeneracy": "nondegenerate"}
    return [f"check report {k} = {report.get(k)!r}, expected {v!r}"
            for k, v in want.items() if report.get(k) != v]


def check_mf(mf_text, dim_b, degree, label):
    """Problems with an emitted .mf: its rank, its certificate, and
    delta^2 = W . id with W = sum of W over the sectors, at random points mod p."""
    problems = []
    mf = modp.MfText(mf_text)
    rank = 2 ** (dim_b - 1)
    if (len(mf.p0), len(mf.p1)) != (rank, rank):
        return [f"rank ({len(mf.p0)}|{len(mf.p1)}), expected 2^(dim B - 1) = {rank}"]
    cert = json.loads(mf.certificate_text)
    if cert.get("rank") != [rank, rank]:
        problems.append(f"certificate rank {cert.get('rank')}")
    elements = cert.get("equivariance", {}).get("elements", [])
    if not elements or any(e["verdict"] != "equivariant" for e in elements):
        problems.append(f"equivariance report {elements}")
    sector = [i for i, n in enumerate(mf.names) if not n.startswith("t")]
    rng = modp.rng_for(label)
    for _ in range(2):
        pt = modp.random_point(rng, len(mf.names))
        d0 = mf.eval_matrix(mf.delta0, pt)
        d1 = mf.eval_matrix(mf.delta1, pt)
        w = mf.eval_poly(mf.potential, pt)
        if w != sum(pow(pt[i], degree, modp.P) for i in sector) % modp.P:
            problems.append("potential is not the sum of W over the sectors")
        if not (modp.is_scalar_identity(modp.mat_mul(d1, d0), w, rank)
                and modp.is_scalar_identity(modp.mat_mul(d0, d1), w, rank)):
            problems.append("delta^2 != W . id at a random point mod p")
            break
    return problems


def _check_support(mf_text, support_text):
    mf = modp.MfText(mf_text)
    entries = json.loads(support_text)
    problems = []
    if len(entries) != SUPPORT_POINTS:
        problems.append(f"{len(entries)} support points, expected {SUPPORT_POINTS}")
    for entry in entries:
        pt = [modp.frac(Fraction(c)) for c in entry["point"]]
        d0 = mf.eval_matrix(mf.delta0, pt)
        d1 = mf.eval_matrix(mf.delta1, pt)
        w = mf.eval_poly(mf.potential, pt)
        want = ("contractible" if modp.point_is_contractible(
            d0, d1, w, len(mf.p0), len(mf.p1)) else "noncontractible")
        if entry["verdict"] != want:
            problems.append(f"support verdict {entry['verdict']} at "
                            f"{entry['point']}, expected {want}")
    return problems


def _glue_job(cli, workdir, name, disc, glued):
    out_path = os.path.join(workdir, f"{name}.json")

    def run():
        return cli.main(["glue", "--input", disc, "--glued", glued,
                         "--output", out_path])

    def check(code):
        if code:
            return [f"exit code {code} from glue"], b""
        with open(out_path) as fh:
            text = fh.read()
        os.remove(out_path)
        report = json.loads(text)
        problems = [f"glue report {k} is not true"
                    for k in ("cartesian", "potentials_match") if report.get(k) is not True]
        if report.get("pulled_back_potential") != report.get("glued_potential"):
            problems.append("pulled-back and glued potentials differ")
        return problems, text.encode()

    return Job(name, run, check)


# -- support ---------------------------------------------------------------
#
# support_check with certificates on Koszul MFs {c_i x_i, x_i y} of rank 2
# and 4 over Q(i), Q(zeta_7) and Q(zeta_12), c_i = 1 + zeta^k seeded.  At a
# generic point the certificate is one dense exact solve in 2 r^2 unknowns
# (linalg.rref carries it, with mostly non-rational scalars).  Points on the
# common zero locus x = 0 get a rank verdict only.  spincurve, complexes and
# ratfun are bypassed.  Rank 8 is left out: one certified point costs
# 3.6-14 s, which would dominate a run.

SUPPORT_FIELDS = (4, 7, 12)
# (pairs n, generic points, zero-locus points): certified rank-4 points are
# the majority, so job_s.p50 is the time of one dense certificate solve
SUPPORT_SHAPES = ((3, 4, 1), (2, 2, 0))


def build_support(seed, lib, workdir):
    rng = random.Random(f"support:{seed}")
    jobs = []
    for order in SUPPORT_FIELDS:
        field = lib.CyclotomicField(order)
        for n, n_generic, n_zero in SUPPORT_SHAPES:
            names = [f"x{i}" for i in range(n)] + ["y"]
            ring = lib.PolyRing(field, names, [1] * (n + 1))
            y = ring.gen("y")
            value = _Values(rng, field, f"support:{order}:{n}")
            cs = [value() for _ in range(n)]
            alpha = [c * ring.gen(f"x{i}") for i, c in enumerate(cs)]
            beta = [ring.gen(f"x{i}") * y for i in range(n)]
            mf = lib.koszul_mf(ring, alpha, beta)
            points = [[value() for _ in range(n + 1)] for _ in range(n_generic)]
            points += [[field.zero] * n + [value()] for _ in range(n_zero)]
            for k, point in enumerate(points):
                jobs.append(_support_job(lib, mf, point, f"koszul-N{order}-n{n}-p{k}"))
    return jobs


def _support_job(lib, mf, point, label):
    # contractible iff some alpha_i(p) = c_i x_i or beta_i(p) = x_i y is
    # nonzero, i.e. iff some x_i != 0 (c_i != 0 by construction)
    contractible = any(any(c for c in x.coeffs) for x in point[:-1])
    image = modp.Image(mf.ring.field.order)
    pt = [image.scalar(x) for x in point]

    def run():
        return lib.support_check(mf, [point], degree_bound=4, with_certificates=True)

    def check(report):
        (entry,) = report
        verdict, cert = entry["verdict"], entry["certificate"]
        want = "contractible" if contractible else "noncontractible"
        if verdict != want:
            return [f"verdict {verdict}, expected {want}"], b""
        data = [verdict]
        if contractible:
            if cert is None:
                return ["contractible verdict without a certificate"], b""
            h0, h1 = cert
            if not _is_contracting_homotopy(image, mf, pt, h0, h1):
                return ["certificate fails delta h + h delta = id mod p"], b""
            data += [_matrix_data(h0), _matrix_data(h1)]
        elif cert is not None:
            return ["noncontractible verdict with a certificate"], b""
        return [], repr(data).encode()

    return Job(label, run, check)


def _is_contracting_homotopy(image, mf, pt, h0, h1):
    d0 = image.matrix(mf.delta0, pt)
    d1 = image.matrix(mf.delta1, pt)
    # h entries are constants of the point ring: evaluate at the empty point
    h0 = image.matrix(h0, [])
    h1 = image.matrix(h1, [])
    top = modp.mat_add(modp.mat_mul(d1, h0), modp.mat_mul(h1, d0))
    bottom = modp.mat_add(modp.mat_mul(d0, h1), modp.mat_mul(h0, d1))
    return (modp.is_scalar_identity(top, 1, mf.rank0)
            and modp.is_scalar_identity(bottom, 1, mf.rank1))


# -- fiber -----------------------------------------------------------------
#
# Exact fiber homology over k[t]: two_periodic_homology_dims on Koszul MFs
# {c_i x_i, y_i} of rank 2 and 4 restricted to lines inside W = 0, and
# PipelineResult.fiber_data on single-auxiliary pipeline outputs.  ratfun's
# minor enumeration carries it; linalg and the dense verify are bypassed.
# Rank-8 fibers (21-38 s per line) stay out.
#
# Expected answers come from base cases and two invariances: an affine
# reparametrization t -> a t + b of a line, and the weighted scaling
# x -> lambda x (all weights are 1 here), change the restricted MF only by a
# ring automorphism of k[t] or by constant factors, so (h0, h1) is unchanged.
# Base cases: a line t.v through the origin restricts to t . delta_v with
# delta_v exact (some alpha_i(v) != 0), so H = im(delta_v) (x) k[t]/(t), giving
# (r/2, r/2); a line on which the x_i vanish at distinct t has no point where
# the Koszul MF is not contractible, giving (0, 0).  The pipeline base cases
# are the ones the repository's tests freeze for A_1 (origin (1, 1), zero-locus
# points contractible) and the A_2 value recorded at 259b856 (origin (2, 2)).

FIBER_FIELDS = (4, 7, 12)
# (pairs n, lines of each kind): rank-4 lines are the majority, so job_s.p50
# is the time of one rank-4 fiber (the Q(i) ones)
FIBER_LINES = ((2, 1), (3, 3))


def _fiber_line_jobs(lib, rng, order):
    field = lib.CyclotomicField(order)
    tring = lib.PolyRing(field, ["t"], [1])
    t = tring.gen("t")
    jobs = []
    for n, copies in FIBER_LINES:
        names = [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
        ring = lib.PolyRing(field, names, [1] * (2 * n))
        value = _Values(rng, field, f"fiber:{order}:{n}")
        cs = [value() for _ in range(n)]
        mf = lib.koszul_mf(ring, [c * ring.gen(f"x{i}") for i, c in enumerate(cs)],
                           [ring.gen(f"y{i}") for i in range(n)])
        # y = C^{-1} S x with S antisymmetric keeps sum c_i x_i y_i = 0
        skew = [[field.scalar(j - i) for j in range(n)] for i in range(n)]
        c_inv = [c.inverse() for c in cs]
        kinds = [("origin", [0] * n), ("offset", list(range(1, n + 1)))] * copies
        for k, (kind, offset) in enumerate(kinds):
            a = value()
            b = field.scalar(value.sign())
            lam = value()
            s = a * t + tring.constant(b)
            xs = [lam * (s + offset[i]) for i in range(n)]
            ys = []
            for i in range(n):
                acc = tring.zero
                for j in range(n):
                    if skew[i][j]:
                        acc = acc + skew[i][j] * xs[j]
                ys.append(c_inv[i] * acc)
            r = mf.rank0
            want = (r // 2, r // 2) if kind == "origin" else (0, 0)
            jobs.append(_line_job(lib, mf, xs + ys, want,
                                  f"line-N{order}-n{n}-{kind}-{k}"))
    return jobs


def _to_upoly(lib, p, field):
    coeffs = [field.zero] * (max((e[0] for e in p.terms), default=-1) + 1)
    for e, c in p.terms.items():
        coeffs[e[0]] = c
    return lib.UPoly(field, coeffs)


def _line_job(lib, mf, images, want, label):
    field = mf.ring.field

    def run():
        fiber = mf.restrict_to_line(images)
        d0 = [[_to_upoly(lib, c, field) for c in row] for row in fiber.delta0]
        d1 = [[_to_upoly(lib, c, field) for c in row] for row in fiber.delta1]
        return (fiber.potential, lib.two_periodic_homology_dims(d0, d1))

    def check(out):
        potential, dims = out
        if potential.terms:
            return ["line leaves the zero locus of W"], b""
        if tuple(dims) != want:
            return [f"(h0, h1) = {dims}, expected {want}"], b""
        return [], repr(dims).encode()

    return Job(label, run, check)


# (name, spec, degree d, fiber_data at the origin)
_FIBER_SPECS = [
    ("a1-m2", _A1.format(point="0", mult=2), 2, (1, 1, "noncontractible")),
    ("a2-n12-m3", _A2.format(order=12, j="z^4", rig="z^3", point="0", mult=3), 3,
     (2, 2, "noncontractible")),
]


def _fiber_data_jobs(lib, rng, name, text, degree, at_origin):
    result = lib.fundamental_mf(lib.specfile.parse_spec(text).spin_spec())
    field = result.spec.field
    # zero-locus directions (1, u) with u^d = -1: the odd powers of zeta_{2d}
    step = field.order // (2 * degree)
    roots = [field.zeta ** (step * k) for k in range(1, 2 * degree, 2)]
    contractible = (0, 0, "contractible")
    value = _Values(rng, field, f"fiber:{name}")
    jobs = [_fiber_data_job(result, [field.zero, field.zero], at_origin,
                            f"{name}-origin")]
    for k, u in enumerate(roots):
        lam = value()
        jobs.append(_fiber_data_job(result, [lam, lam * u], contractible,
                                    f"{name}-zero-locus-{k}"))
    for k in range(2):
        # off the zero locus: W(p) = lam^d (1 + (k + 1)^d) != 0
        lam = value()
        jobs.append(_fiber_data_job(result, [lam, lam * field.scalar(k + 1)],
                                    contractible, f"{name}-off-locus-{k}"))
    return jobs


def _fiber_data_job(result, point, want, label):
    def run():
        return result.fiber_data(point)

    def check(out):
        if tuple(out) != want:
            return [f"fiber_data = {out}, expected {want}"], b""
        return [], repr(out).encode()

    return Job(label, run, check)


def build_fiber(seed, lib, workdir):
    rng = random.Random(f"fiber:{seed}")
    jobs = []
    for order in FIBER_FIELDS:
        jobs += _fiber_line_jobs(lib, rng, order)
    for spec in _FIBER_SPECS:
        jobs += _fiber_data_jobs(lib, rng, *spec)
    return jobs


WORKLOADS = {
    "pipeline": build_pipeline,
    "support": build_support,
    "fiber": build_fiber,
}
