"""Tests of the benchmark harness itself: python3 -m pytest bench -q"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from gates import check_pass, primary
from tracer import covered, tail

SMALL = {
    "small-ladder": lambda seed: [["ladder", "--r", "4", "--seed", seed],
                                  ["max-step", "--r", "4"]],
    "small-lemma": lambda seed: [["lemma-check", "--all-downsets", "--r", "3", "--s", "3",
                                  "--seed", seed]],
}


@pytest.fixture
def small(monkeypatch):
    for name, commands in SMALL.items():
        monkeypatch.setitem(run.WORKLOADS, name, commands)


def test_each_pass_gets_a_fresh_interpreter(small, tmp_path):
    bench = run.Bench("small-ladder", 0, tmp_path)
    first, _, _ = bench.timed_pass(0)
    second, _, _ = bench.timed_pass(1)
    pids = {first["pid"], second["pid"]}
    assert len(pids) == 2, "two passes shared a process, so library caches stay warm"
    assert os.getpid() not in pids


def test_traced_pass_changes_no_output_and_attributes_pool_work(small, tmp_path):
    bench = run.Bench("small-lemma", 0, tmp_path)
    metrics, _, checks, _ = run.per_layer(bench, 0)
    assert [name for name, ok in checks if not ok] == []
    assert any("traced artifacts identical" in name for name, _ in checks)
    # ascent gradients run on pool workers; they only count toward
    # iters_per_start when attached to their maximize span
    assert metrics["simplex.maximize.starts"] > 0
    assert metrics["simplex.ascent.iters_per_start"] > 1
    assert 0 < metrics["simplex.maximize.self_s"] < metrics["simplex.maximize.s"]
    assert metrics["simplex.certify_max_upper.coarse_warnings"] >= 1
    assert metrics["trace.overhead_ratio"] > 0


def test_gates_fail_on_a_wrong_step(small, tmp_path):
    bench = run.Bench("small-ladder", 0, tmp_path)
    result, out_dirs, checks = bench.timed_pass(0)
    assert checks and all(ok for _, ok in checks)
    art = primary(out_dirs[0])
    lines = art.read_text().splitlines()
    fields = lines[2].split(",")
    fields[-1] = str(int(fields[-1]) + 1)  # perturb one step denominator
    lines[2] = ",".join(fields)
    art.write_text("\n".join(lines) + "\n")
    commands = [argv + ["--out", str(d)] for argv, d in zip(SMALL["small-ladder"]("0"), out_dirs)]
    failed = [name for name, ok in check_pass(commands, out_dirs, result) if not ok]
    assert any("step" in name for name in failed)
    assert any("telescope" in name for name in failed)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "chain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_covered_is_the_union_of_overlapping_children():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3)], 1.5, 2.5) == 1
    assert covered([], 0, 1) == 0


def test_tail_leaves_ten_samples_beyond():
    values = list(range(50))
    assert tail(values) == 39
    assert tail([3.0, 1.0]) == 3.0
