"""The traced run: wrappers installed from the benchmark around each dgmf
layer's public entry points, removed again afterwards.

Entry points get a span per call (id, parent id, name, start, end), kept in
memory and written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.  Hot arithmetic gets lighter wrappers:
``Poly.__mul__`` is timed into its layer's self time without a span record,
and Scalar, Poly and UPoly addition and Scalar and UPoly multiplication only
count calls.  Their time stays in the caller's self time.

Wrappers replace the attribute on the defining module or class and on every
other dgmf module that re-binds the same object with ``from ... import``.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, qualified name): the entry points that get spans
SPANS = {
    "cyclotomic": ["Scalar.inverse", "CyclotomicField.parse"],
    "linalg": ["rref", "rank", "nullspace", "solve", "invert", "mat_mul"],
    "poly": ["Poly.substitute", "Poly.evaluate", "PolyRing.parse"],
    "groups": ["GroupElement.act"],
    "jacobian": ["nondegeneracy_check"],
    "ratfun": ["two_periodic_homology_dims", "poly_mat_rank"],
    "complexes": ["sym_power_two_term", "homology_ranks", "cone", "tensor"],
    "factorizations": ["fold_to_mf", "koszul_mf", "dgmf_from_homotopy",
                       "MatrixFactorization.verify",
                       "MatrixFactorization.restrict_to_point",
                       "MatrixFactorization.restrict_to_line",
                       "nullhomotopy_solve", "point_verdict", "support_check"],
    "spincurve": ["two_term_realization", "cech_oracle", "build_obstruction",
                  "solve_f_minus_one", "fundamental_mf", "check_equivariance",
                  "twisted_diagonal_glue", "PipelineResult.fiber_data"],
    "specfile": ["parse_spec", "write_mf", "parse_mf"],
    "cli": ["main"],
}

# timed like a span (self time, calls) but not recorded one by one
TIMED = {"poly": ["Poly.__mul__"]}

# counters only: (module, qualified name) -> counter name
COUNTED = {
    ("cyclotomic", "Scalar.__add__"): "cyclotomic.add",
    ("cyclotomic", "Scalar.__sub__"): "cyclotomic.add",
    ("cyclotomic", "Scalar.__rsub__"): "cyclotomic.add",
    ("cyclotomic", "Scalar.__neg__"): "cyclotomic.add",
    ("cyclotomic", "Scalar.__truediv__"): "cyclotomic.div",
    ("poly", "Poly.__add__"): "poly.add",
    ("poly", "Poly.__sub__"): "poly.add",
    ("poly", "Poly.__neg__"): "poly.add",
    ("ratfun", "UPoly.__add__"): "ratfun.upoly_add",
    ("ratfun", "UPoly.__sub__"): "ratfun.upoly_add",
    ("ratfun", "UPoly.__mul__"): "ratfun.upoly_mul",
}


def _coeff_bits(matrix):
    best = 0
    for row in matrix:
        for s in row:
            for c in s.coeffs:
                if c:
                    best = max(best, c.numerator.bit_length(),
                               c.denominator.bit_length())
    return best


class Tracer:
    """Spans, self times and counters of one traced run."""

    def __init__(self):
        self.modules = {name: sys.modules[f"dgmf.{name}"] for name in SPANS}
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.stats = defaultdict(int)  # maxima and totals gathered by probes
        self.spans = []
        self._ids = itertools.count(1)
        # one frame per open call: [seconds covered by children, span id]
        self._stack = [[0.0, 0]]
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, record, probe=None):
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if record else parent[1]]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                parent[0] += took
                self_s[name] += took - frame[0]
                calls[name] += 1
                if record:
                    spans.append((frame[1], parent[1], name, start, end))
            if probe is not None:
                # probe time is tracer overhead: keep it out of the parent's self time
                t = perf_counter()
                probe(args, out)
                parent[0] += perf_counter() - t
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar_mul(self, fn):
        counts = self.counts

        def mul(a, b):
            counts["cyclotomic.mul"] += 1
            if not any(a.coeffs[1:]) and (not hasattr(b, "coeffs") or not any(b.coeffs[1:])):
                counts["cyclotomic.mul_rational"] += 1
            return fn(a, b)

        mul.__wrapped__ = fn
        return mul

    # -- probes: per-call statistics of selected entry points ---------------

    def _probe_rref(self, args, out):
        matrix = args[0]
        cells = len(matrix) * (len(matrix[0]) if matrix else 0)
        self.stats["linalg.rref.max_cells"] = max(self.stats["linalg.rref.max_cells"], cells)
        bits = _coeff_bits(out[0])
        self.stats["linalg.rref.coeff_bits_max"] = max(
            self.stats["linalg.rref.coeff_bits_max"], bits)

    def _probe_verify(self, args, out):
        mf = args[0]
        self.stats["verify.entries"] += mf.rank0 * mf.rank0 + mf.rank1 * mf.rank1
        for m in (mf.delta0, mf.delta1):
            for row in m:
                self.stats["verify.delta_cells"] += len(row)
                self.stats["verify.delta_nonzero"] += sum(1 for c in row if c.terms)

    def _probe_support(self, args, out):
        for entry in out:
            if entry["verdict"] == "contractible":
                self.stats["support.contractible"] += 1
                if entry["certificate"] is not None:
                    self.stats["support.certified"] += 1

    def _probe_write_mf(self, args, out):
        self.stats["write_mf.bytes"] += len(out.encode())

    # -- install / remove ----------------------------------------------------

    def _replace(self, owner, attr, original, wrapper):
        """Set ``owner.attr`` and every re-binding of ``original`` in dgmf."""
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for mod in [m for n, m in sys.modules.items()
                        if n == "dgmf" or n.startswith("dgmf.")]:
                for key, val in vars(mod).items():
                    if val is original and (mod, key) != (owner, attr):
                        targets.append((mod, key))
        else:
            for key, val in vars(owner).items():
                if val is original and key != attr:
                    targets.append((owner, key))
        for obj, key in targets:
            self._patches.append((obj, key, vars(obj)[key]))
            setattr(obj, key, wrapper)

    def _resolve(self, module, qualname):
        owner = self.modules[module]
        parts = qualname.split(".")
        for p in parts[:-1]:
            owner = getattr(owner, p)
        attr = parts[-1]
        original = vars(owner)[attr]
        return owner, attr, original

    def install(self):
        probes = {("linalg", "rref"): self._probe_rref,
                  ("factorizations", "MatrixFactorization.verify"): self._probe_verify,
                  ("factorizations", "support_check"): self._probe_support,
                  ("specfile", "write_mf"): self._probe_write_mf}
        for table, record in ((SPANS, True), (TIMED, False)):
            for module, names in table.items():
                for qualname in names:
                    owner, attr, original = self._resolve(module, qualname)
                    name = f"{module}.{qualname.split('.')[-1].strip('_')}"
                    self._replace(owner, attr, original,
                                  self._timed(name, original, record,
                                              probes.get((module, qualname))))
        for (module, qualname), name in COUNTED.items():
            owner, attr, original = self._resolve(module, qualname)
            self._replace(owner, attr, original, self._counted(name, original))
        owner, attr, original = self._resolve("cyclotomic", "Scalar.__mul__")
        self._replace(owner, attr, original, self._scalar_mul(original))

    def remove(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    def job(self, fn):
        """Run one job under a root span, so that every span has a parent."""
        return self._timed("bench.job", fn, True)()

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def layer_metrics(self, passes, untraced_s, traced_s, scale):
        """The per-layer metrics, per pass of the job list.  ``scale`` turns
        the wall seconds of the traced passes into reference seconds, so that
        the self times add up to ``trace.job_s``."""
        per = 1.0 / passes
        secs = scale / passes
        c, s, n, st = self.calls, self.self_s, self.counts, self.stats
        job_wall = sum(end - start for _, _, name, start, end in self.spans
                       if name == "bench.job")

        def ratio(a, b):
            return a / b if b else 0.0

        ops = sum(n[k] for k in ("cyclotomic.add", "cyclotomic.mul", "cyclotomic.div"))
        out = {
            "cyclotomic.ops": (ops * per, "count"),
            "cyclotomic.inverse.calls": (c["cyclotomic.inverse"] * per, "count"),
            "cyclotomic.rational_frac": (ratio(n["cyclotomic.mul_rational"],
                                               n["cyclotomic.mul"]), "ratio"),
            "cyclotomic.self_s": (sum(v for k, v in s.items()
                                      if k.startswith("cyclotomic.")) * secs, "s"),
            "linalg.rref.calls": (c["linalg.rref"] * per, "count"),
            "linalg.rref.max_cells": (st["linalg.rref.max_cells"], "count"),
            "linalg.rref.coeff_bits_max": (st["linalg.rref.coeff_bits_max"], "bits"),
            "poly.mul.calls": (c["poly.mul"] * per, "count"),
            "poly.add.calls": (n["poly.add"] * per, "count"),
            "poly.substitute.calls": (c["poly.substitute"] * per, "count"),
            "factorizations.verify.entries": (st["verify.entries"] * per, "count"),
            "factorizations.delta_density": (ratio(st["verify.delta_nonzero"],
                                                   st["verify.delta_cells"]), "ratio"),
            "factorizations.certified_frac": (ratio(st["support.certified"],
                                                    st["support.contractible"]), "ratio"),
            "ratfun.upoly_mul.calls": (n["ratfun.upoly_mul"] * per, "count"),
            "specfile.write_mf.bytes": (st["write_mf.bytes"] * per, "bytes"),
            "groups.act.calls": (c["groups.act"] * per, "count"),
            "trace.job_s": (job_wall * secs, "s"),
            "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        }
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = (s[name] * secs, "s")
        return out


# layers whose self time is reported under "<name>.self_s"
SELF_TIMES = [
    "linalg.rref", "poly.mul", "poly.substitute",
    "complexes.sym_power_two_term", "complexes.homology_ranks",
    "factorizations.fold_to_mf", "factorizations.verify",
    "factorizations.restrict_to_point", "factorizations.nullhomotopy_solve",
    "spincurve.two_term_realization", "spincurve.cech_oracle",
    "spincurve.build_obstruction", "spincurve.solve_f_minus_one",
    "spincurve.fundamental_mf", "spincurve.check_equivariance",
    "spincurve.twisted_diagonal_glue", "spincurve.fiber_data",
    "ratfun.two_periodic_homology_dims", "ratfun.poly_mat_rank",
    "specfile.parse_spec", "specfile.write_mf", "specfile.parse_mf",
    "cli.main", "jacobian.nondegeneracy_check",
]
