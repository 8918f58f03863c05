"""Self-test of the benchmark: tiny instances of every workload report every
metric BENCHMARK.json names, with its unit, and corrupted outputs are counted
as failed jobs.

    python3 -m pytest -q bench/tests
"""

import copy
import json
import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from dgmf_bench import harness, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_benchmark_json_lists_the_harness_workloads_and_metrics():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    result, lines = harness.run(workload, 1, 0.0, trace, ROOT, max_jobs=2)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"], lines
    assert (result["attempted"], result["failed"]) == (2 * (1 + trace), 0)
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _one_pass(workload, n_jobs, corrupt):
    workdir = os.path.join(ROOT, "bench", "out", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        lib = harness.fresh_import(os.path.join(ROOT, "src"))
        jobs = workloads.WORKLOADS[workload](1, lib, workdir)[:n_jobs]
        corrupt(lib)
        tally = harness.Tally(harness.Clock())
        tally.run_pass(jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tally


def _flip_first_delta_entry(mf):
    bad = copy.copy(mf)
    bad.delta0 = [list(row) for row in mf.delta0]
    i, j = next((i, j) for i, row in enumerate(bad.delta0)
                for j, c in enumerate(row) if c)
    bad.delta0[i][j] = -bad.delta0[i][j]
    return bad


def test_flipped_delta_entry_counts_as_failed(monkeypatch):
    def corrupt(lib):
        write_mf = lib.specfile.write_mf
        monkeypatch.setattr(lib.specfile, "write_mf",
                            lambda mf, certificate=None:
                            write_mf(_flip_first_delta_entry(mf), certificate))

    tally = _one_pass("pipeline", 1, corrupt)
    assert tally.failed / tally.attempted == 1.0


def test_oracle_catches_a_flipped_delta_entry_on_its_own():
    lib = harness.fresh_import(os.path.join(ROOT, "src"))
    text = workloads._A1.format(point="0", mult=3)
    spec = lib.specfile.parse_spec(text).spin_spec()
    result = lib.fundamental_mf(spec)
    cert = result.certificate()
    cert["equivariance"] = lib.check_equivariance(spec, result)
    good = lib.specfile.write_mf(result.mf, certificate=cert)
    bad = lib.specfile.write_mf(_flip_first_delta_entry(result.mf), certificate=cert)
    assert workloads.check_mf(good, 3, 2, "selftest") == []
    assert "delta^2 != W . id at a random point mod p" in workloads.check_mf(
        bad, 3, 2, "selftest")


def test_wrong_verdict_counts_as_failed(monkeypatch):
    def corrupt(lib):
        verdict = lib.factorizations.point_verdict
        flip = {"contractible": "noncontractible", "noncontractible": "contractible"}
        monkeypatch.setattr(lib.factorizations, "point_verdict",
                            lambda mf, point: flip[verdict(mf, point)])

    tally = _one_pass("support", 2, corrupt)
    assert tally.failed / tally.attempted == 1.0
    assert all("expected contractible" in p for p in tally.problems)
