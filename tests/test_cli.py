import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dgmf import CyclotomicField, PolyRing, cli, koszul_mf
from dgmf.cli import main
from dgmf.specfile import write_mf

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

DISCONNECTED = SPIN.replace(
    "component c0\nbundle c0 = 0",
    "component c0\ncomponent c1\nbundle c0 = 0\nbundle c1 = 0").replace(
    "divisor c0 at 0 mult 1",
    "marking c1 at 1 gamma diag(1) rig 1\n"
    "marking c1 at -1 gamma diag(1) rig z\n"
    "divisor c0 at 0 mult 1\ndivisor c1 at 0 mult 1").replace(
    "eta c0 = (2) / (t^2 + (-1))",
    "eta c0 = (2) / (t^2 + (-1))\neta c1 = (2) / (t^2 + (-1))")

GLUED = """[field]
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
marking c0 at 1 gamma diag(1) rig 1
marking c1 at -1 gamma diag(1) rig z
node c0 at -1 rig z ~ c1 at 1 rig 1
divisor c0 at 0 mult 1
divisor c1 at 0 mult 1
"""

CHECK_GOOD = """[field]
order = 5
[potential]
variables = x:1
W = x^5
d = 5
[group]
generator = diag(z)
"""

CHECK_DEGENERATE = """[field]
order = 8
[potential]
variables = x:2, y:2
W = x^2*y^2
d = 8
[group]
generator = diag(-1, -1)
"""

KOSZUL = """[field]
order = 4
[ring]
variables = x:1
[koszul]
alpha = x
beta = x
"""

FOLD = """[field]
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


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run(tmp_path, command, text, *extra):
    inp = _write(tmp_path, "in.txt", text)
    out = tmp_path / "out.txt"
    code = main([command, "--input", inp, "--output", str(out), *extra])
    return code, out.read_text() if out.exists() else ""


def test_check_good(tmp_path):
    code, out = _run(tmp_path, "check", CHECK_GOOD)
    assert code == 0
    report = json.loads(out)
    assert report["quasihomogeneous"] and report["invariant"]
    assert report["nondegeneracy"] == "nondegenerate"


def test_check_degenerate_exit_4(tmp_path):
    code, _ = _run(tmp_path, "check", CHECK_DEGENERATE)
    assert code == 4


def test_check_inconclusive_exit_5(tmp_path):
    code, _ = _run(tmp_path, "check", CHECK_GOOD, "--degree-bound", "0")
    assert code == 5


def test_check_negative_degree_bound_exit_3(tmp_path, capsys):
    # a bad argument, not an exhausted solver: no report, and not exit 5
    code, out = _run(tmp_path, "check", CHECK_GOOD, "--degree-bound", "-1")
    assert code == 3 and out == ""
    assert "degree_bound must be >= 0" in capsys.readouterr().err
    code, _ = _run(tmp_path, "check", CHECK_GOOD, "--degree-bound", "0")
    assert code == 5


def test_parse_error_exit_2(tmp_path):
    code, _ = _run(tmp_path, "check", "[field]\norder = banana\n")
    assert code == 2


def test_koszul_then_verify(tmp_path):
    code, out = _run(tmp_path, "koszul", KOSZUL)
    assert code == 0
    code2, msg = _run(tmp_path, "verify", out)
    assert code2 == 0
    assert "verified" in msg


def test_fold_matches_koszul_output(tmp_path):
    code, _folded = _run(tmp_path, "fold", FOLD)
    assert code == 0


def test_fold_bad_scheme_exit_3(tmp_path):
    bad = FOLD.replace("f = (-4*u0)*b0", "f = (-4*u0)*b0 + (1)*1")
    code, _ = _run(tmp_path, "fold", bad)
    assert code in (2, 3)


def test_fold_rejects_a_repeated_odd_generator_exit_2(tmp_path, capsys):
    # this used to fold Wedge(b0, b0), with p0 = 1, b0^b0
    text = FOLD.replace("odd = b0:2", "odd = b0:2, b0:2")
    code, out = _run(tmp_path, "fold", text)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert f"line {text.splitlines().index('odd = b0:2, b0:2') + 1}:" in err
    assert "repeated odd generator b0" in err


def test_fold_rejects_a_term_that_repeats_an_odd_generator_exit_2(tmp_path, capsys):
    # this used to exit 3, "curvature is not an even function"
    text = FOLD.replace("odd = b0:2", "odd = b0:2, b1:2\nd(b1) = u0^2").replace(
        "f = (-4*u0)*b0", "f = (-4*u0)*b0 + (1)*b0^b0^b1")
    code, out = _run(tmp_path, "fold", text)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert f"line {len(text.splitlines())}:" in err and "repeats an odd generator" in err
    assert _run(tmp_path, "fold", text.replace(" + (1)*b0^b0^b1", ""))[0] == 0


def test_fold_reads_an_upper_case_odd_generator(tmp_path, capsys):
    # keys are case-insensitive, so d(B0) used to be looked up as a key it
    # could not be: "missing d(B0) in [scheme]", exit 2
    _, want = _run(tmp_path, "fold", FOLD)
    for text in (FOLD.replace("b0", "B0"),
                 FOLD.replace("odd = b0", "odd = B0").replace("*b0", "*B0")):
        code, got = _run(tmp_path, "fold", text)
        assert code == 0 and got == want.replace("b0", "B0")
    # two odd names that differ only in case would share one d() key
    capsys.readouterr()
    assert _run(tmp_path, "fold", FOLD.replace("odd = b0:2", "odd = b0:2, B0:2"))[0] == 2
    assert "line 5: repeated odd generator B0" in capsys.readouterr().err


def test_fundamental_emits_certificate(tmp_path):
    code, out = _run(tmp_path, "fundamental", SPIN)
    assert code == 0
    assert "[certificate]" in out
    assert "x1^2 + x2^2" in out
    # and the emitted file re-verifies
    code2, msg = _run(tmp_path, "verify", out)
    assert code2 == 0


def test_verify_detects_corruption_exit_4(tmp_path):
    _code, out = _run(tmp_path, "fundamental", SPIN)
    bad = out.replace("x1^2 + x2^2", "x1^2 + 3*x2^2", 1)
    code, _ = _run(tmp_path, "verify", bad)
    assert code == 4


def test_verify_rejects_each_false_certificate_claim_exit_4(tmp_path, capsys):
    """``rank``, ``field_order``, ``potential`` and the variable names are
    claims the file alone confirms: each tampered one exits 4 with a message
    that names it, while a claim written another way that reads the same
    verifies, with the same stdout as the untouched file."""
    _code, out = _run(tmp_path, "fundamental", SPIN)
    head, sep, block = out.partition("[certificate]\n")
    cert = json.loads(block)
    assert _run(tmp_path, "verify", out) == (0, "verified: delta^2 = W . id\n")
    capsys.readouterr()
    tampered = {"rank": [2, 1], "field_order": 8, "potential": "x1^2 + 3*x2^2",
                "sector_variables": list(reversed(cert["sector_variables"])),
                "auxiliary_variables": "t1"}
    for key, value in tampered.items():
        bad = head + sep + json.dumps({**cert, key: value}, indent=2) + "\n"
        (tmp_path / "out.txt").unlink(missing_ok=True)
        assert _run(tmp_path, "verify", bad) == (4, ""), key
        err = capsys.readouterr().err
        assert err.startswith("certificate failure: the certificate claims ") and key in err
    same = head + sep + json.dumps({**cert, "potential": "x2^2 + x1 * x1"}) + "\n"
    assert _run(tmp_path, "verify", same) == (0, "verified: delta^2 = W . id\n")
    missing = {k: v for k, v in cert.items() if k not in tampered}
    assert _run(tmp_path, "verify", head + sep + json.dumps(missing) + "\n")[0] == 0


def test_python_m_dgmf_runs_the_cli(tmp_path):
    """``python -m dgmf`` is ``dgmf``: verify of a fundamental ``.mf`` prints
    the verdict and exits 0, and a tampered one exits 4."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    _code, out = _run(tmp_path, "fundamental", SPIN)
    for text, code, stdout in ((out, 0, "verified: delta^2 = W . id\n"),
                               (out.replace("x1^2 + x2^2", "x1^2 + 3*x2^2", 1), 4, "")):
        path = _write(tmp_path, "file.mf", text)
        proc = subprocess.run([sys.executable, "-m", "dgmf", "verify", "--input", path],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, stdout), proc.stderr


def test_homology(tmp_path):
    code, out = _run(tmp_path, "homology", COMPLEX)
    assert code == 0
    assert json.loads(out) == {"0": 0, "1": 0}


def test_glue(tmp_path):
    glued = _write(tmp_path, "glued.spec", GLUED)
    code, out = _run(tmp_path, "glue", DISCONNECTED, "--glued", glued)
    assert code == 0
    report = json.loads(out)
    assert report["cartesian"] and report["potentials_match"]


def test_glue_missing_flag_exit_3(tmp_path):
    code, _ = _run(tmp_path, "glue", DISCONNECTED)
    assert code == 3


@pytest.mark.parametrize("kind", ["directory", "missing"])
@pytest.mark.parametrize("flag", ["--input", "--glued", "--output"])
def test_a_path_that_cannot_be_opened_exits_3(tmp_path, capsys, flag, kind):
    """Any OSError from opening the input, --glued or output path is a
    precondition violation, not a traceback."""
    paths = {"--input": _write(tmp_path, "disc.spec", DISCONNECTED),
             "--glued": _write(tmp_path, "glued.spec", GLUED),
             "--output": str(tmp_path / "out.json")}
    paths[flag] = str(tmp_path if kind == "directory" else tmp_path / "missing" / "x")
    assert main(["glue"] + [word for pair in paths.items() for word in pair]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_support(tmp_path):
    _code, out = _run(tmp_path, "fundamental", SPIN)
    code, rep = _run(tmp_path, "support", out, "--points", "5", "--seed", "1")
    assert code == 0
    entries = json.loads(rep)
    assert len(entries) == 5


def test_output_deterministic(tmp_path):
    _, a = _run(tmp_path, "fundamental", SPIN)
    _, b = _run(tmp_path, "fundamental", SPIN)
    assert a == b


def test_fundamental_wrong_solution_exit_4(tmp_path, wrong_solve):
    code, _ = _run(tmp_path, "fundamental", SPIN)
    assert code == 4


def test_support_negative_degree_bound_exit_3(tmp_path):
    _code, out = _run(tmp_path, "koszul", KOSZUL)
    code, _ = _run(tmp_path, "support", out, "--degree-bound", "-1")
    assert code == 3


def test_support_negative_points_exit_3(tmp_path, capsys):
    _code, out = _run(tmp_path, "koszul", KOSZUL)
    code, _ = _run(tmp_path, "support", out, "--points", "-2")
    assert code == 3
    assert "--points" in capsys.readouterr().err
    code, report = _run(tmp_path, "support", out, "--points", "0")
    assert code == 0 and json.loads(report) == []


def test_support_rejects_more_points_than_the_sample_grid_holds_exit_3(
        tmp_path, capsys, monkeypatch):
    # support samples distinct nonzero points with integer coordinates in
    # [-9, 9]: 19^n - 1 of them on n variables, none on the point base.
    # Asking for more exits 3 before any sampling; up to that many, the
    # report has exactly --points verdicts
    point = PolyRing(CyclotomicField(4), [])
    x = PolyRing(point.field, ["x"]).gen("x")
    mf = koszul_mf(x.ring, [x], [x]).restrict_to_point([2])
    point_mf = write_mf(mf)
    assert mf.ring == point and "variables = \n" in point_mf
    _code, line_mf = _run(tmp_path, "koszul", KOSZUL)
    sampled = []
    real_random = cli.random.Random
    monkeypatch.setattr(cli.random, "Random",
                        lambda seed: sampled.append(seed) or real_random(seed))
    for text, points, why in ((point_mf, (), "point base"),
                              (point_mf, ("--points", "1"), "point base"),
                              (line_mf, ("--points", "19"), "only 18"),
                              (line_mf, ("--points", "30"), "only 18")):
        (tmp_path / "out.txt").unlink(missing_ok=True)
        code, report = _run(tmp_path, "support", text, *points)
        err = capsys.readouterr().err
        assert (code, report, sampled) == (3, "", []), (points, why)
        assert err.startswith("error: --points") and why in err, err
    code, report = _run(tmp_path, "support", point_mf, "--points", "0")
    assert code == 0 and json.loads(report) == []
    code, report = _run(tmp_path, "support", line_mf, "--points", "18")
    entries = json.loads(report)
    assert code == 0 and len(entries) == 18
    assert sorted(int(e["point"][0]) for e in entries) == [v for v in range(-9, 10) if v]


def test_negative_variable_exponent_is_a_parse_error(tmp_path):
    _code, mf_text = _run(tmp_path, "koszul", KOSZUL)
    for old, new in [("delta1 = (x)", "delta1 = (x^-1)"),
                     ("potential = x^2", "potential = x^3*x^-1")]:
        bad = mf_text.replace(old, new)
        assert bad != mf_text
        for command in ("verify", "support"):
            code, _ = _run(tmp_path, command, bad)
            assert code == 2, (command, bad)
    for old, new in [("W = x^2", "W = x^-2"), ("t^2 + (-1)", "t^-2 + (-1)")]:
        bad = SPIN.replace(old, new)
        assert bad != SPIN
        for command in ("check", "fundamental"):
            code, _ = _run(tmp_path, command, bad)
            assert code == 2, (command, bad)


@pytest.mark.parametrize("edit", [
    ("delta0 = ", "delta0 = (0), , "),      # an empty entry
    ("\ndelta1", ",\ndelta1"),              # a trailing ,
    ("\ndelta1", " ;\ndelta1"),             # a trailing ;
    ("delta0 = (", "delta0 = (0, "),        # a , inside parentheses
    ("delta0 = (", "delta0 = (0 ; "),       # a ; inside parentheses
])
def test_a_misplaced_matrix_separator_is_a_parse_error(tmp_path, edit):
    """Matrix rows and entries are split at ; and , on the raw text: every
    misplaced separator leaves an entry that does not parse, or a wrong
    shape, and exits 2."""
    _code, mf_text = _run(tmp_path, "fundamental", SPIN.replace("mult 1", "mult 2"))
    bad = mf_text.replace(*edit, 1)
    assert bad != mf_text
    for command in ("verify", "support"):
        code, _ = _run(tmp_path, command, bad)
        assert code == 2, (command, edit)


def test_malformed_polynomial_is_a_parse_error(tmp_path):
    _code, mf_text = _run(tmp_path, "koszul", KOSZUL)
    for entry in ("(x^)", "(x*)", "(*x)", "(x**1)", "(x +)"):
        bad = mf_text.replace("delta0 = (x)", f"delta0 = {entry}")
        assert bad != mf_text
        code, _ = _run(tmp_path, "verify", bad)
        assert code == 2, entry
    code, _ = _run(tmp_path, "check", CHECK_GOOD.replace("W = x^5", "W = x**5"))
    assert code == 2


def test_cli_rejects_empty_and_repeated_sign_polynomials_exit_2(tmp_path):
    _code, mf_text = _run(tmp_path, "koszul", KOSZUL)
    for old, new in [("delta0 = (x)", "delta0 = ()"), ("delta0 = (x)", "delta0 = (x + - - x)"),
                     ("potential = x^2", "potential ="), ("delta1 = (x)", "delta1 = (- - x)")]:
        bad = mf_text.replace(old, new)
        assert bad != mf_text
        for command in ("verify", "support"):
            code, _ = _run(tmp_path, command, bad)
            assert code == 2, (command, bad)
    for old, new in [("W = x^5", "W ="), ("W = x^5", "W = - - x^5")]:
        bad = CHECK_GOOD.replace(old, new)
        assert bad != CHECK_GOOD
        code, _ = _run(tmp_path, "check", bad)
        assert code == 2, bad


def _sessions(tmp_path):
    """(command, input, extra arguments) for every input format above."""
    glued = _write(tmp_path, "glued.spec", GLUED)
    _code, mf_text = _run(tmp_path, "koszul", KOSZUL)
    return [("check", CHECK_GOOD, ()), ("check", CHECK_DEGENERATE, ()),
            ("fundamental", SPIN, ()), ("glue", DISCONNECTED, ("--glued", glued)),
            ("koszul", KOSZUL, ()), ("fold", FOLD, ()), ("homology", COMPLEX, ()),
            ("verify", mf_text, ()), ("support", mf_text, ("--points", "2"))]


@pytest.mark.parametrize("command", ["check", "fundamental", "glue", "koszul",
                                     "fold", "homology", "verify", "support"])
def test_bad_field_order_exit_2(tmp_path, command):
    for cmd, text, extra in _sessions(tmp_path):
        if cmd != command:
            continue
        for order in ("z", "0", "-3"):
            bad = re.sub(r"^order = \d+$", f"order = {order}", text, flags=re.M)
            assert bad != text
            code, _ = _run(tmp_path, command, bad, *extra)
            assert code == 2, bad


def test_bad_degree_exit_2(tmp_path):
    code, _ = _run(tmp_path, "check", CHECK_GOOD.replace("d = 5", "d = 0"))
    assert code == 2


@pytest.mark.parametrize("line", ["divisor c0 at 0 size 7", "divisor c0 at 0 mult",
                                  "divisor c0 at 0 mult 0", "divisor c0 near 0 mult 2",
                                  "divisor c0 near 0"])
def test_bad_divisor_exit_2(tmp_path, line):
    code, _ = _run(tmp_path, "fundamental",
                   SPIN.replace("divisor c0 at 0 mult 1", line))
    assert code == 2


@pytest.mark.parametrize("text, tight, spaced", [
    (SPIN, "divisor c0 at (1+z) mult 1", "divisor c0 at ( 1 + z ) mult 1"),
    (GLUED, "node c0 at -1 rig z ~ c1 at (2-1) rig 1",
     "node c0 at - 1 rig z ~ c1 at (2 - 1) rig 1")], ids=["divisor", "node"])
def test_fundamental_reads_a_curve_point_with_spaces(tmp_path, text, tight, spaced):
    # the point is the text between "at" and the next keyword, "mult" or "rig"
    line = next(ln for ln in text.splitlines() if ln.startswith(tight.split()[0]))
    outputs = []
    for new in (tight, spaced):
        code, out = _run(tmp_path, "fundamental", text.replace(line, new))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_missing_marking_and_node_keywords_exit_2(tmp_path):
    # every keyword the line format names is checked, with the line number
    bad = SPIN.replace("marking c0 at 1 gamma", "marking c0 1 gamma")
    assert bad != SPIN
    assert _run(tmp_path, "fundamental", bad)[0] == 2
    for old, new in [("c0 at -1 rig z", "c0 near -1 rig z"), ("c1 at 1 rig 1", "c1 at 1 via 1")]:
        bad = GLUED.replace(old, new)
        assert bad != GLUED
        assert _run(tmp_path, "check", bad)[0] == 2, new


def test_variable_name_must_be_an_identifier_exit_2(tmp_path):
    bad = CHECK_GOOD.replace("variables = x:1\nW = x^5", "variables = x':1\nW = x'^5")
    assert bad != CHECK_GOOD
    assert _run(tmp_path, "check", bad)[0] == 2


def test_repeated_key_exit_2(tmp_path, capsys):
    # the second delta0 line used to replace the first, unverified
    _code, mf_text = _run(tmp_path, "koszul", KOSZUL)
    lines = mf_text.splitlines()
    first = lines.index("delta0 = (x)") + 1
    bad = mf_text.replace("delta0 = (x)", "delta0 = (x^5)\ndelta0 = (x)")
    code, _ = _run(tmp_path, "verify", bad)
    err = capsys.readouterr().err
    assert code == 2
    assert f"line {first + 1}:" in err and f"first on line {first})" in err


def test_scalar_slots_read_every_polynomial_form(tmp_path):
    # a scalar is a polynomial without variables, in every slot of a spec
    _, want = _run(tmp_path, "fundamental", SPIN)
    for old, new in [("rig z\n", "rig 1-1 +z\n"), ("rig 1\n", "rig 2 -1\n"),
                     ("diag(-1)", "diag(z*z)"), ("J_sqrt = z", "J_sqrt = (1 + z) - 1")]:
        text = SPIN.replace(old, new)
        assert text != SPIN
        code, got = _run(tmp_path, "fundamental", text)
        assert code == 0 and got == want, new


def test_eta_with_a_fraction_coefficient(tmp_path):
    _, want = _run(tmp_path, "fundamental", SPIN)
    code, got = _run(tmp_path, "fundamental", SPIN.replace("eta c0 = (2)",
                                                           "eta c0 = (4/2)"))
    assert code == 0 and got == want


def test_eta_fraction_bar_is_a_slash_token(tmp_path):
    # the "/" of a numeral is not the bar of (num)/(den)
    eta = "eta c0 = (2) / (t^2 + (-1))"
    assert _run(tmp_path, "fundamental", SPIN.replace(eta, "eta c0 = 1/2"))[0] == 2
    _, want = _run(tmp_path, "fundamental", SPIN.replace(eta, "eta c0 = (2/3)/(t^2 + (-1))"))
    code, got = _run(tmp_path, "fundamental", SPIN.replace(eta, "eta c0 = 2/3/(t^2 + (-1))"))
    assert code == 0 and got == want


def test_component_named_inside_marking(tmp_path):
    # "k" occurs in the word "marking": the point is read after the
    # component name, not after its first occurrence in the line
    _, want = _run(tmp_path, "fundamental", SPIN)
    code, got = _run(tmp_path, "fundamental", SPIN.replace("c0", "k"))
    assert code == 0 and got == want


@pytest.mark.parametrize("first, second", [
    ("component c0", "component c0"),
    ("bundle c0 = 0", "bundle c0 = 1"),
    ("eta c0 = (2) / (t^2 + (-1))", "eta c0 = (3) / (t^2 + (-1))")],
    ids=["component", "bundle", "eta"])
def test_cli_rejects_a_repeated_curve_line_exit_2(tmp_path, capsys, first, second):
    # a second line for one component used to replace the first, or (for
    # component) to fail later with a misleading homology mismatch
    text = SPIN + second + "\n"
    lines = text.splitlines()
    code, out = _run(tmp_path, "fundamental", text)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert f"line {len(lines)}:" in err
    assert f"first on line {lines.index(first) + 1})" in err


@pytest.mark.parametrize("old, new", [
    ("bundle c0 = 0", "bundle c0=0"), ("bundle c0 = 0", "bundle c0= 0"),
    ("eta c0 = (2) / (t^2 + (-1))", "eta c0= (2)/(t^2 + (-1))")])
def test_the_component_of_a_curve_line_ends_at_the_equals_sign(tmp_path, old, new):
    # these used to take "c0=0" or "c0=" for the component and exit 3,
    # "component c0 has no bundle degrees"
    _, want = _run(tmp_path, "fundamental", SPIN)
    assert _run(tmp_path, "fundamental", SPIN.replace(old, new)) == (0, want)


@pytest.mark.parametrize("old, new", [
    ("component c0", "component c0 c9"), ("bundle c0 = 0", "bundle c0 c9 = 0"),
    ("eta c0 =", "eta c0 c9 ="), ("bundle c0 = 0", "bundle = 0"), ("eta c0 =", "eta =")])
def test_a_curve_line_names_one_component_exit_2(tmp_path, capsys, old, new):
    # these used to drop c9 and exit 0, or take "=" for the component and
    # exit 3
    text = SPIN.replace(old, new)
    code, out = _run(tmp_path, "fundamental", text)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    lineno = next(k for k, (a, b) in enumerate(zip(SPIN.splitlines(), text.splitlines()), 1)
                  if a != b)
    assert f"line {lineno}: expected one component after {new.split()[0]}" in err


@pytest.mark.parametrize("line", ["marking c0 at 1gamma diag(1) rig 1",
                                  "marking c0 at 1 gamma diag(1)rig 1"])
def test_a_marking_keyword_is_a_word_exit_2(tmp_path, capsys, line):
    # a keyword inside a word used to cut the line and exit 0; a marking is
    # cut at keyword words, as a divisor and a node are
    code, out = _run(tmp_path, "fundamental",
                     SPIN.replace("marking c0 at 1 gamma diag(1) rig 1", line))
    err = capsys.readouterr().err
    assert code == 2 and out == "" and "line 14: expected marking" in err


@pytest.mark.parametrize("text, old, new", [
    (SPIN, "marking c0 at 1 gamma", "marking c0 at 1, 2 gamma"),
    (SPIN, "divisor c0 at 0 mult", "divisor c0 at 0, 2 mult"),
    (SPIN, "J_sqrt = z", "J_sqrt = z, 1"),
    (GLUED, "c1 at 1 rig 1", "c1 at 1, 3 rig 1")], ids=["marking", "divisor", "J_sqrt", "node"])
def test_a_point_or_a_scalar_is_one_value_exit_2(tmp_path, capsys, text, old, new):
    # a single scalar is read as a scalar list that must have one entry
    assert _run(tmp_path, "fundamental", text.replace(old, new))[0] == 2
    assert "expected 1 scalar(s)" in capsys.readouterr().err


@pytest.mark.parametrize("old, lineno", [
    ("generator = diag(-1)", 8), ("J = diag(-1)", 9),
    ("marking c0 at 1 gamma diag(1)", 14)], ids=["generator", "J", "gamma"])
@pytest.mark.parametrize("element", ["matrix 1, 0 ; 0, 1", "diag(0)"], ids=["shape", "order"])
def test_a_matrix_that_is_no_group_element_exit_2(tmp_path, capsys, old, lineno, element):
    # in [group] these used to exit 3, while the same text as a [curve]
    # gamma exited 2: both are parse errors at the element's line now
    new = old.replace("diag(-1)", element).replace("diag(1)", element)
    code, out = _run(tmp_path, "fundamental", SPIN.replace(old, new))
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert f"line {lineno}: bad group element {element!r}" in err


@pytest.mark.parametrize("command, text, line, message", [
    ("check", SPIN, "W = x^2", "line 3: missing w in [potential]"),
    ("koszul", KOSZUL, "beta = x", "line 5: missing beta in [koszul]"),
    ("fold", FOLD, "d(b0) = u1^2", "line 5: missing d(b0) in [scheme]")],
    ids=["potential", "koszul", "scheme"])
def test_a_missing_key_is_reported_at_its_section_header_exit_2(tmp_path, capsys, command,
                                                                 text, line, message):
    # these used to be reported at line 1; a missing d(name) of [scheme] is
    # reported at the odd line that names it
    code, out = _run(tmp_path, command, text.replace(line + "\n", ""))
    err = capsys.readouterr().err
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("line", ["marking c0 at 1 gamma diag(1) rig z",
                                  "divisor c0 at 0 mult 2"], ids=["marking", "divisor"])
def test_cli_rejects_a_repeated_point_exit_3(tmp_path, capsys, line):
    # these used to exit 3 with "divisor misses markings" or a homology
    # mismatch against the Cech oracle
    code, out = _run(tmp_path, "fundamental", SPIN + line + "\n")
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert "repeats" in err


def test_cli_rejects_a_variable_whose_sector_names_clash_exit_3(tmp_path, capsys):
    # at mult 2 there is one auxiliary coordinate, t1, and the sector
    # coordinates of a V-variable named t are t1 and t2
    text = SPIN.replace("variables = x:1\nW = x^2", "variables = t:1\nW = t^2")
    code, out = _run(tmp_path, "fundamental", text.replace("mult 1", "mult 2"))
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert "'t'" in err and "t1, t2" in err
    # without an auxiliary coordinate nothing clashes, and another name works
    assert _run(tmp_path, "fundamental", text)[0] == 0
    renamed = SPIN.replace("variables = x:1\nW = x^2", "variables = s:1\nW = s^2")
    assert _run(tmp_path, "fundamental", renamed.replace("mult 1", "mult 2"))[0] == 0


TOKEN = re.compile(r"\w+|[^\w\s]")
REPLACEMENTS = ["z", "0", "-1", "", "(", "x, x", "1-z", "2z", "x^2_0"]


def _mutants(text):
    """Each input with one line deleted or repeated, or one token replaced."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]
        for m in TOKEN.finditer(line):
            for r in REPLACEMENTS:
                yield lines[:i] + [line[:m.start()] + r + line[m.end():]] + lines[i + 1:]


def test_mutated_inputs_give_documented_exit_codes(tmp_path):
    rng = random.Random(0)
    runs = 0
    for command, text, extra in _sessions(tmp_path):
        for lines in _mutants(text):
            if rng.random() >= 0.3:
                continue
            mutated = "\n".join(lines) + "\n"
            try:
                code, _ = _run(tmp_path, command, mutated, *extra)
            except Exception as e:
                pytest.fail(f"{command} raised {e!r} on:\n{mutated}")
            assert code in (0, 2, 3, 4, 5), f"{command} exited {code} on:\n{mutated}"
            runs += 1
    assert runs > 500


CUBIC = (SPIN.replace("W = x^2\nd = 2", "W = x^3\nd = 3")
         .replace("generator = diag(-1)\nJ = diag(-1)", "J = diag(1)"))
MF_BAD_CERTIFICATE = """[mf]
order = 4
variables = x:1
potential = x^2
p0 = 1:0
p1 = b0:1
delta0 = (x)
delta1 = (x)
[certificate]
{"rank": [1, 1],
"""


@pytest.mark.parametrize("command, text, glued, code, message", [
    ("check", CUBIC.replace("J = diag(1)\n", ""), None, 2,
     "cyclotomic order must be divisible by d"),
    ("fundamental", CUBIC, None, 3,
     "cyclotomic order 4 does not accommodate the exponent group of order 3"),
    ("fundamental", SPIN.replace("generator = diag(-1)", "generator = diag(z)"), None, 3,
     "W is not invariant under a group generator"),
    ("fundamental", SPIN.replace("bundle c0 = 0", "bundle c0 = -3"), None, 3,
     "H^1(L_0(D)) != 0 on c0"),
    ("verify", MF_BAD_CERTIFICATE, None, 2, "line 10: bad certificate JSON"),
    ("homology", COMPLEX.replace("[complex]", "[complex]\nvariables = x:1"), None, 3,
     "homology only over a point"),
    ("fundamental", GLUED.replace("J_sqrt = z\n", ""), None, 3,
     "nodal curve requires J_sqrt"),
    ("glue", DISCONNECTED, GLUED.replace("J_sqrt = z\n", ""), 3,
     "glued spec must carry J_sqrt"),
    ("glue", DISCONNECTED, DISCONNECTED, 3, "expected exactly one new node"),
    ("glue", DISCONNECTED, GLUED.replace("node c0 at -1", "node c0 at 2"), 3,
     "(c0, 2) is not a marking of the disconnected spec"),
    ("glue", DISCONNECTED, GLUED.replace("divisor c0 at 0 mult 1", "divisor c0 at 0 mult 2"),
     3, "different section models"),
], ids=["order-not-divisible-by-d", "order-without-the-exponent-group", "w-not-invariant",
        "h1-of-a-summand", "bad-certificate-json", "homology-over-variables",
        "node-without-j-sqrt", "glued-without-j-sqrt", "no-new-node",
        "branch-not-a-marking", "different-section-models"])
def test_input_errors_exit_with_their_code_and_message(tmp_path, capsys, command, text,
                                                       glued, code, message):
    extra = ("--glued", _write(tmp_path, "glued.txt", glued)) if glued else ()
    got, out = _run(tmp_path, command, text, *extra)
    err = capsys.readouterr().err
    assert got == code and message in err, err
    assert out == "" and "Traceback" not in err


# the lists of a spec whose length is the number of V-variables
LIST = re.compile(r"(bundle \w+ = |rig |diag\()([^\n~)]*?)(?= ~|\n|\))")


def _length_mutants(text, rng):
    """The spec with one list of ``LIST`` made one entry shorter or longer,
    at every list, in a seeded order."""
    for m in LIST.finditer(text):
        entries = [e.strip() for e in m.group(2).split(",")]
        k = rng.randrange(len(entries))
        for changed in (entries[:k] + entries[k + 1:], entries[:k + 1] + entries[k:],
                        entries + [rng.choice(["0", "1", "z", "-1"])]):
            yield text[:m.start(2)] + ", ".join(changed) + text[m.end(2):]


def test_spec_lists_of_the_wrong_length_give_documented_exit_codes(tmp_path, capsys):
    from test_spincurve import GLUE_PAIRS, XY
    rng = random.Random(28)
    runs = 0
    for text in (SPIN, DISCONNECTED, GLUED, XY, GLUE_PAIRS["xy"][1]):
        for mutated in _length_mutants(text, rng):
            for command in ("check", "fundamental"):
                try:
                    code, _ = _run(tmp_path, command, mutated)
                except Exception as e:
                    pytest.fail(f"{command} raised {e!r} on:\n{mutated}")
                assert code in (0, 2, 3, 4, 5), f"{command} exited {code} on:\n{mutated}"
                assert "Traceback" not in capsys.readouterr().err
                runs += 1
    assert runs > 200


def test_rig_negative_power_of_z(tmp_path):
    _, plain = _run(tmp_path, "fundamental", SPIN)
    _, want = _run(tmp_path, "fundamental", SPIN.replace("rig z\n", "rig -z\n"))
    code, got = _run(tmp_path, "fundamental", SPIN.replace("rig z\n", "rig z^-1\n"))
    assert code == 0 and got == want and got != plain


def test_a1_mult_6_fundamental_and_support_bytes_are_pinned(tmp_path):
    """The sha256 of the `fundamental` .mf of A_1 with `divisor c0 at 0
    mult 6` (rank 32) and of `support --points 10 --seed 0` on it.  Both
    hashes were computed at commit c7b3fac, where every cell of the fold,
    the reader and the restrictions was its own Poly object."""
    spec, mf, support = (tmp_path / name for name in ("a1.spec", "a1.mf", "support.json"))
    spec.write_text(SPIN.replace("mult 1", "mult 6"))
    assert main(["fundamental", "--input", str(spec), "--output", str(mf)]) == 0
    assert main(["support", "--points", "10", "--seed", "0", "--input", str(mf),
                 "--output", str(support)]) == 0
    assert hashlib.sha256(mf.read_bytes()).hexdigest() == (
        "843b30632130b6cc5fa59d5f0e763171f0a97c2c2c6dd729401372655010d56d")
    assert hashlib.sha256(support.read_bytes()).hexdigest() == (
        "f5df23d61b97197664f94da1500c59752a5b9836adee31e484d5f2ed63968b30")


def test_cli_rejects_an_eta_whose_residue_vanishes_exit_3(tmp_path, capsys):
    # (t - 1) / (t^2 - 1) has residue 0 at the marking 1, but it is read in
    # lowest terms, as 1 / (t + 1): it has lost its pole at 1, and is
    # rejected for that before any residue is looked at
    text = SPIN.replace("eta c0 = (2) / (t^2 + (-1))",
                        "eta c0 = (t + (-1)) / (t^2 + (-1))")
    code, out = _run(tmp_path, "fundamental", text)
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert "eta on c0 must have simple poles exactly at the markings" in err


def test_check_rejects_a_curve_that_fundamental_rejects_exit_3(tmp_path, capsys):
    """Every length mutant whose spin data ``SpinCurveSpec.validate``
    rejects exits 3 under ``check`` as under ``fundamental``, with no
    report written."""
    from test_spincurve import GLUE_PAIRS, XY
    from dgmf.specfile import SpecParseError, parse_spec
    from dgmf.spincurve import SpinDataError
    rng = random.Random(28)
    rejected = 0
    for text in (SPIN, DISCONNECTED, GLUED, XY, GLUE_PAIRS["xy"][1]):
        for mutated in _length_mutants(text, rng):
            try:
                parse_spec(mutated).spin_spec()
                continue
            except SpecParseError:
                continue
            except SpinDataError:
                rejected += 1
            for command in ("check", "fundamental"):
                (tmp_path / "out.txt").unlink(missing_ok=True)
                code, out = _run(tmp_path, command, mutated)
                err = capsys.readouterr().err
                assert code == 3 and out == "", f"{command} exited {code} on:\n{mutated}"
                assert err.startswith("error: ") and "Traceback" not in err
    assert rejected == 55


NO_CURVE = SPIN[:SPIN.index("[curve]")]


@pytest.mark.parametrize("text", [SPIN, NO_CURVE], ids=["curve", "no-curve"])
@pytest.mark.parametrize("edit, code, message", [
    (("J = diag(-1)", "J = diag(z)"), 3,
     "J must act diagonally by the d-th roots of the R-charge weights"),
    (("generator = diag(-1)", "generator = diag(z)"), 4,
     "W is not invariant under a group generator"),
    (("W = x^2", "W = x^2 + x"), 4, "W is not quasihomogeneous of weight 2"),
], ids=["wrong-j", "w-not-invariant", "w-inhomogeneous"])
def test_check_rejects_bad_symmetry_data_with_and_without_a_curve(tmp_path, capsys, text,
                                                                  edit, code, message):
    bad = text.replace(*edit)
    assert bad != text
    got, out = _run(tmp_path, "check", bad)
    err = capsys.readouterr().err
    assert got == code and out == "" and message in err, err
    # fundamental reads the same checks, and exits 3 on each
    if text is SPIN:
        assert _run(tmp_path, "fundamental", bad)[0] == 3


@pytest.mark.parametrize("text", [SPIN, NO_CURVE], ids=["curve", "no-curve"])
def test_check_tests_w_once(tmp_path, monkeypatch, text):
    """W's quasihomogeneity and its invariance under the one generator are
    each tested once per ``check``, with a [curve] section or without."""
    from dgmf.groups import GroupElement
    from dgmf.poly import Poly
    from dgmf.specfile import parse_spec
    W = parse_spec(text).potential
    calls = {"weight": 0, "act": 0}
    is_qh, act = Poly.is_quasihomogeneous_of, GroupElement.act

    def counted_is_qh(self, d):
        calls["weight"] += self == W
        return is_qh(self, d)

    def counted_act(self, p):
        calls["act"] += p == W
        return act(self, p)

    monkeypatch.setattr(Poly, "is_quasihomogeneous_of", counted_is_qh)
    monkeypatch.setattr(GroupElement, "act", counted_act)
    assert _run(tmp_path, "check", text)[0] == 0
    assert calls == {"weight": 1, "act": 1}
