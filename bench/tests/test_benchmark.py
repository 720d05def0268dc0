"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import eulerscan  # noqa: E402
import eulerscan.cli  # noqa: E402,F401

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_and_reports_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def _off_by_one(name, fn):
    if name != "calculus.integrate":
        return fn

    @functools.wraps(fn)
    def wrong(*args, **kwargs):
        return fn(*args, **kwargs) + 1

    return wrong


def _failures(workload) -> int:
    runner = run.Runner(workload, None)
    for index in range(len(workload.slots)):
        runner.op(index)
    return runner.failed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_integrate_off_by_one_fails_ops(name, tmp_path):
    wl = workloads.WORKLOADS[name](eulerscan, 5, workloads.SMOKE, str(tmp_path))
    restore = tracer.install(_off_by_one)
    try:
        assert _failures(wl) > 0
    finally:
        restore()
    assert _failures(wl) == 0


def test_install_wraps_every_namespace_and_restores():
    holders = {
        "chi_minimal_model": (eulerscan, eulerscan.reduction, eulerscan.network, eulerscan.cli),
        "integrate": (eulerscan, eulerscan.calculus, eulerscan.network, eulerscan.cli),
    }
    originals = {name: getattr(eulerscan, name) for name in holders}
    from_covers = eulerscan.Poset.__dict__["from_covers"]
    restore = tracer.install(lambda name, fn: functools.wraps(fn)(lambda *a, **k: fn(*a, **k)))
    try:
        for name, modules in holders.items():
            assert all(getattr(m, name) is not originals[name] for m in modules)
        assert eulerscan.Poset.__dict__["from_covers"] is not from_covers
        assert eulerscan.Poset.from_covers(2, [(0, 1)]).n == 2
    finally:
        restore()
    for name, modules in holders.items():
        assert all(getattr(m, name) is originals[name] for m in modules)
    assert eulerscan.Poset.__dict__["from_covers"] is from_covers


def test_pinned_digest_mismatch_fails_op(tmp_path):
    wl = workloads.Readings(eulerscan, 5, workloads.SMOKE, str(tmp_path))
    runner = run.Runner(wl, ["0" * 64] * len(wl.slots))
    runner.op(0)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_tail_percentile_named_by_sample_count():
    assert run._percentile_name([0.1] * 100)[0] == "op_p90_s"
    assert run._percentile_name([0.1] * 50)[0] == "op_p80_s"
    assert run._percentile_name([0.1] * 15)[0] == "op_p50_s"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "drill", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
