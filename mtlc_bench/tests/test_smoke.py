"""Smoke test for the benchmark: every workload at a tiny size, untraced and
traced, must report every metric BENCHMARK.json names, with its unit.

    python3 -m pytest mtlc_bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "mtlc_bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(workload: str, trace: str, seconds: str = "2") -> dict:
    # at the tiny size one iteration runs per second of --seconds
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", seconds,
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_reports_every_metric(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_counts_do_not_depend_on_the_number_of_traced_iterations():
    one, two = (_result("train_hard_char", "1", seconds) for seconds in ("2", "4"))
    for name in ("numcore.tensor.tape_records_per_sample", "encoder.forward_calls",
                 "text.encode_calls", "numcore.optim.steps"):
        assert one["metrics"][name]["value"] > 0, name
        assert one["metrics"][name]["value"] == two["metrics"][name]["value"], name


def test_same_seed_gives_same_corpus(tmp_path):
    sys.path.insert(0, str(ROOT / "mtlc_bench"))
    from corpus import CorpusSpec, generate

    spec = CorpusSpec(n_train=20, n_val=5, n_test=5, max_len=64)
    generate(3, spec, str(tmp_path / "a"))
    generate(3, spec, str(tmp_path / "b"))
    for name in ("train.tsv", "val.tsv", "test.tsv", "corpus.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fails_without_program_source(tmp_path):
    shutil.copytree(ROOT / "mtlc_bench", tmp_path / "mtlc_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
