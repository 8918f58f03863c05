"""Batch interface: one command per process, deterministic output.

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 certificate failure, 5 solver bound exhausted.

Commands raise, and ``main`` alone maps exceptions to exit codes:
SpecParseError -> 2; CertificateError -> 4; any other ValueError (a failed
precondition, e.g. inconsistent spin data) or an unopenable path (OSError) -> 3;
CliFailure -> its own code, which ``check`` and ``glue`` use for verdicts.
Malformed spec values, such as a degree ``d <= 0`` or a ``divisor`` line
whose fifth word is not ``mult`` or whose multiplicity is not a positive
integer, are SpecParseErrors.  A negative ``--degree-bound`` (``check``,
``support``) or ``--points`` (``support``) is a precondition violation (3),
and so is a ``--points`` above the 19^n - 1 distinct nonzero points with
integer coordinates in [-9, 9] that ``support`` samples from on n
variables, decided before it samples (an MF over the point base has none).
``--degree-bound`` bounds the nondegeneracy search of ``check``; on
``support`` it bounds nothing (a contracting homotopy at a point is
constant) and only exits 3 when negative.  ``check`` runs
``spincurve.check_symmetry`` once: W, the group and J, directly or, with a
``[curve]`` section, as the first step of ``SpinCurveSpec.validate``, which
builds the spin data as ``fundamental`` does.  A W that is not
quasihomogeneous of weight d or not invariant exits 4 under ``check`` and 3
under ``fundamental``; any other rejected datum, such as a wrong J, exits 3
under both, before any report.  ``support`` prints verdicts
without homotopies; the library's ``support_check`` certifies each
contractible point.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import specfile
from .factorizations import (CertificateError, fold_to_mf, dgmf_from_homotopy,
                             koszul_mf, support_check)
from .jacobian import DEGENERATE, INCONCLUSIVE, nondegeneracy_check
from .complexes import homology_ranks
from .spincurve import (PotentialError, check_equivariance, check_symmetry, fundamental_mf,
                        twisted_diagonal_glue)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CERTIFICATE = 4
EXIT_BOUND = 5

SAMPLE_BOUND = 9  # support samples each coordinate from the integers in [-9, 9]


class CliFailure(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


def _read_input(args):
    if args.input:
        with open(args.input) as fh:
            return fh.read()
    return sys.stdin.read()


def _emit(args, text):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args):
    doc = specfile.parse_spec(_read_input(args))
    try:
        if doc.curve is None:
            check_symmetry(doc.field, doc.ring, doc.potential, doc.degree_d,
                           doc.generators, doc.J)
        else:
            doc.spin_spec()  # SpinCurveSpec.validate runs check_symmetry first
    except PotentialError as e:
        raise CliFailure(EXIT_CERTIFICATE, str(e))
    verdict, detail = nondegeneracy_check(doc.potential, args.degree_bound)
    report = {"quasihomogeneous": True, "invariant": True, "nondegeneracy": verdict}
    _emit(args, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if verdict == DEGENERATE:
        raise CliFailure(EXIT_CERTIFICATE, f"degenerate: {detail}")
    if verdict == INCONCLUSIVE:
        raise CliFailure(EXIT_BOUND, "nondegeneracy inconclusive at this bound")
    return EXIT_OK


def cmd_koszul(args):
    ring, alpha, beta = specfile.parse_koszul(_read_input(args))
    mf = koszul_mf(ring, alpha, beta)
    _emit(args, specfile.write_mf(mf))
    return EXIT_OK


def cmd_fold(args):
    scheme, f = specfile.parse_scheme(_read_input(args))
    mf = fold_to_mf(dgmf_from_homotopy(scheme, f))
    _emit(args, specfile.write_mf(mf))
    return EXIT_OK


def cmd_fundamental(args):
    spec = specfile.parse_spec(_read_input(args)).spin_spec()
    result = fundamental_mf(spec)
    cert = result.certificate()
    cert["equivariance"] = check_equivariance(spec, result)
    _emit(args, specfile.write_mf(result.mf, certificate=cert))
    return EXIT_OK


def cmd_verify(args):
    specfile.check_claims(*specfile.parse_mf(_read_input(args)))
    _emit(args, "verified: delta^2 = W . id\n")
    return EXIT_OK


def cmd_homology(args):
    ranks = homology_ranks(specfile.parse_complex(_read_input(args)))
    _emit(args, json.dumps({str(n): r for n, r in sorted(ranks.items())},
                           indent=2) + "\n")
    return EXIT_OK


def cmd_glue(args):
    doc_disc = specfile.parse_spec(_read_input(args))
    if not args.glued:
        raise CliFailure(EXIT_PRECONDITION, "glue requires --glued SPECFILE")
    with open(args.glued) as fh:
        doc_glued = specfile.parse_spec(fh.read())
    report = twisted_diagonal_glue(doc_disc.spin_spec(), doc_glued.spin_spec())
    out = {
        "cartesian": report["cartesian"],
        "potentials_match": report["potentials_match"],
        "pulled_back_potential": str(report["pulled_back_potential"]),
        "glued_potential": str(report["glued_potential"]),
    }
    _emit(args, json.dumps(out, indent=2, sort_keys=True) + "\n")
    if not (report["cartesian"] and report["potentials_match"]):
        raise CliFailure(EXIT_CERTIFICATE, "gluing certificate failed")
    return EXIT_OK


def cmd_support(args):
    if args.points < 0:
        raise ValueError(f"--points must be >= 0, got {args.points}")
    mf, _cert = specfile.parse_mf(_read_input(args))
    field, nvars = mf.ring.field, mf.ring.nvars
    available = (2 * SAMPLE_BOUND + 1) ** nvars - 1  # the nonzero points of the grid
    if args.points > available:
        raise ValueError(
            f"--points {args.points} is too many: " + (
                f"only {available} distinct nonzero points have integer coordinates "
                f"in [-{SAMPLE_BOUND}, {SAMPLE_BOUND}]" if nvars else
                "an MF over the point base has no nonzero point to sample"))
    rng = random.Random(args.seed)
    points = []
    attempts = 0
    while len(points) < args.points and attempts < 100 * args.points:
        attempts += 1
        p = tuple(field.scalar(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND))
                  for _ in range(nvars))
        if any(p) and p not in points:
            points.append(p)
    report = support_check(mf, points, degree_bound=args.degree_bound,
                           with_certificates=False)
    out = [{"point": [str(c) for c in entry["point"]],
            "verdict": entry["verdict"]} for entry in report]
    _emit(args, json.dumps(out, indent=2) + "\n")
    return EXIT_OK


COMMANDS = {
    "check": cmd_check,
    "koszul": cmd_koszul,
    "fold": cmd_fold,
    "fundamental": cmd_fundamental,
    "verify": cmd_verify,
    "homology": cmd_homology,
    "glue": cmd_glue,
    "support": cmd_support,
}


@functools.cache
def build_parser():
    """Built once per process; each ``parse_args`` gives a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="dgmf",
        description="exact dg-matrix factorizations and the genus-0 pipeline")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", help="input file (default: stdin)")
    parser.add_argument("--output", help="output file (default: stdout)")
    parser.add_argument("--glued", help="glued spec file (glue command)")
    parser.add_argument("--degree-bound", type=int, default=4,
                        help="degree bound of check's nondegeneracy search "
                             "(default 4); support only rejects a negative one")
    parser.add_argument("--points", type=int, default=10,
                        help="number of support sample points (default 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sampling seed (default 0)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except specfile.SpecParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except CertificateError as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CliFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
