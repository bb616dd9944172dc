"""``benchmarks/compare.py check`` over one run and over several runs."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

COMPARE = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"
)


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("bench_compare", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(path, mins):
    """A pytest-benchmark JSON file with the given per-benchmark minima."""
    path.write_text(json.dumps({"benchmarks": [
        {"name": name, "stats": {"min": m, "mean": m}}
        for name, m in mins.items()
    ]}))
    return str(path)


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"benchmarks": {
        "test_a": {"min": 1.0, "mean": 1.0},
        "test_b": {"min": 2.0, "mean": 2.0},
    }}))
    return str(path)


def test_one_slow_run_fails(compare, baseline, tmp_path):
    slow = _write_run(tmp_path / "slow.json", {"test_a": 1.8, "test_b": 2.0})
    assert compare.main(["check", slow, "--baseline", baseline]) == 1


def test_minimum_over_runs_forgives_one_slow_run(compare, baseline, tmp_path):
    runs = [
        _write_run(tmp_path / "slow.json", {"test_a": 1.8, "test_b": 2.0}),
        _write_run(tmp_path / "fast.json", {"test_a": 1.0, "test_b": 3.0}),
        _write_run(tmp_path / "mid.json", {"test_a": 1.1, "test_b": 2.4}),
    ]
    assert compare.main(["check", *runs, "--baseline", baseline]) == 0


def test_minimum_over_runs_still_fails_a_regression(compare, baseline, tmp_path):
    runs = [
        _write_run(tmp_path / f"run{i}.json", {"test_a": 1.0, "test_b": m})
        for i, m in enumerate((2.6, 2.9, 2.7))
    ]
    assert compare.main(["check", *runs, "--baseline", baseline]) == 1


def test_benchmark_missing_from_one_run_fails(compare, baseline, tmp_path):
    runs = [
        _write_run(tmp_path / "full.json", {"test_a": 1.0, "test_b": 2.0}),
        _write_run(tmp_path / "partial.json", {"test_a": 1.0}),
    ]
    assert compare.main(["check", *runs, "--baseline", baseline]) == 1


def test_update_takes_one_run(compare, baseline, tmp_path):
    runs = [
        _write_run(tmp_path / f"run{i}.json", {"test_a": 1.0, "test_b": 2.0})
        for i in range(2)
    ]
    with pytest.raises(SystemExit):
        compare.main(["update", *runs, "--baseline", baseline])
