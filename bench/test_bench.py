"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _traced_pass(workload, seed, limit, tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--work-dir", str(tmp_path), "--trace", "1",
         "--limit", str(limit)],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert not result["setup_failures"]
    assert all(problem is None for _, _, problem, _, _ in result["pairs"])
    return result["trace"]["counters"]


@pytest.mark.parametrize("workload,limit", [
    ("paper_table", 2), ("class_sweep", 25), ("oracle_sweep", 12),
    ("cache_requery", 200),
])
def test_traced_counters_repeat_for_one_seed(workload, limit, tmp_path):
    first = _traced_pass(workload, 7, limit, tmp_path)
    second = _traced_pass(workload, 7, limit, tmp_path)
    assert first == second
    assert any(k.startswith("calls.") for k in first)


@pytest.mark.parametrize("workload", ["class_sweep", "oracle_sweep", "cache_requery"])
def test_seeds_give_different_pair_lists(workload):
    ref = workloads.load_reference()
    a = workloads.draw(workload, 1, ref)
    b = workloads.draw(workload, 2, ref)
    assert a != b
    assert a == workloads.draw(workload, 1, ref)
    assert set(a) <= set(ref)


def test_reference_covers_the_pool():
    assert set(workloads.pool_pairs()) == set(workloads.load_reference())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "class_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
