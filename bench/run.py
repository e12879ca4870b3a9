"""turangap benchmark: the paper's three checks as CLI batch jobs.

Usage:
    python3 bench/run.py --workload {chain,ladder,lemma} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source tree that has ``src/turangap``.  Each pass
runs the workload's command list through ``turangap.cli.dispatch`` in a fresh
interpreter (bench/one_pass.py), started one at a time from this process.
Passes repeat while another fits in ``--seconds``; figures are medians over
the passes.  Every artifact is gated for correctness (bench/gates.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
and traced passes in pairs with the same seed, checks that both wrote the
same artifacts, and reports the per-layer metrics of bench/tracer.py.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gates import check_pass, same_outputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# extra interpreter starts that only import and prepare, so set-up time is a
# median of several samples even when a run has room for one pass
SETUP_PROBES = 9
PASS_TIMEOUT_S = 170

LEMMA_CASES = ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3))
BUNCHING_CASES = ((8, 1), (12, 2), (16, 3))

# Why these workloads: `chain` is simplex ascent with warm starts and nothing
# else; `ladder` is exact occupancy enumeration and Monte Carlo and never
# touches simplex; `lemma` is cold small-pattern maximization (including one
# degenerate family that dominates its time), batched grid certification,
# down-set enumeration and exact Fraction work.  A change to one layer has a
# workload that exercises it and one that predicts no change.
WORKLOADS = {
    "chain": lambda seed: [
        ["chain", "--r", "3", "--m", "7", "--seed", seed],
        ["chain", "--r", "4", "--m", "6", "--format", "json", "--seed", seed],
    ],
    "ladder": lambda seed: [
        ["ladder", "--r", "6", "--mc-trials", "1000000", "--seed", seed],
        ["ladder", "--r", "8", "--mc-trials", "1000000", "--seed", seed],
        ["max-step", "--r", "12"],
    ],
    "lemma": lambda seed: [
        ["lemma-check", "--all-downsets", "--r", str(r), "--s", str(s), "--seed", seed]
        for r, s in LEMMA_CASES
    ] + [
        ["bunching", "--r", str(r), "--h", str(h), "--seed", seed]
        for r, h in BUNCHING_CASES
    ],
}
# untimed runs after each pass: two seeds must give two Monte Carlo samples
PROBES = {
    "ladder": lambda seed: [
        ["ladder", "--r", "6", "--mc-trials", "20000", "--seed", str(int(seed) + k)]
        for k in (0, 1)
    ],
}

END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") or last == "s":
        return "s"
    if last.endswith("_mb"):
        return "MB"
    if last.endswith("_bytes"):
        return "B"
    if last.endswith("ratio") or "_per_" in last:
        return "ratio"
    return "count"


class Bench:
    """One benchmark run: its scratch directory and the passes it launched."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "TURANGAP_WORKERS"}
        self.launched = 0

    def launch(self, commands, probes=(), trace=False, setup_only=False):
        """Start one pass in a fresh interpreter and return (result, out dirs)."""
        self.launched += 1
        base = self.work / f"pass-{self.launched}"
        out_dirs = [base / f"cmd-{i}" for i in range(len(commands))]
        probe_dirs = [base / f"probe-{i}" for i in range(len(probes))]
        base.mkdir(parents=True)
        spec = {
            "src": str(SRC),
            "commands": [argv + ["--out", str(d)] for argv, d in zip(commands, out_dirs)],
            "probes": [argv + ["--out", str(d)] for argv, d in zip(probes, probe_dirs)],
            "trace": trace,
            "setup_only": setup_only,
            "result": str(base / "result.json"),
        }
        (base / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, str(BENCH / "one_pass.py"), str(base / "spec.json"),
               repr(time.monotonic())]
        proc = subprocess.run(cmd, env=self.env, cwd=base, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"pass exited {proc.returncode}:\n{proc.stderr}")
        return json.loads((base / "result.json").read_text(encoding="utf-8")), out_dirs

    def timed_pass(self, index: int, trace=False):
        """Pass number index of the run, on workload seed 100 * seed + index.

        Varying the workload seed between passes spreads a run's median over
        several inputs, so one unlucky set of random starts weighs less.
        """
        seed = str(100 * self.seed + index)
        commands = WORKLOADS[self.workload](seed)
        probes = PROBES.get(self.workload, lambda _: [])(seed)
        result, out_dirs = self.launch(commands, probes, trace=trace)
        result["workload_seed"] = seed
        return result, out_dirs, check_pass(commands, out_dirs, result)


def room_for_another(started: float, spent: list[float], seconds: float) -> bool:
    """At least one pass; then another only if a typical pass still fits.

    Predicting the end keeps the pass count, and so the run length, the same
    from run to run instead of flipping when a pass ends near the deadline.
    """
    if not spent:
        return True
    return time.monotonic() - started + statistics.median(spent) <= seconds


def end_to_end(bench: Bench, seconds: float):
    started = time.monotonic()
    setups = [bench.launch([], setup_only=True)[0]["setup_s"] for _ in range(SETUP_PROBES)]
    passes, checks, spent = [], [], []
    while room_for_another(started, spent, seconds):
        begun = time.monotonic()
        result, _, pass_checks = bench.timed_pass(len(passes))
        spent.append(time.monotonic() - begun)
        passes.append(result)
        checks += pass_checks
        report_pass(result, pass_checks)
    metrics = {name: statistics.median(p[name] for p in passes) for name in END_TO_END
               if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setups + [p["setup_s"] for p in passes])
    units = dict(END_TO_END)
    return metrics, units, checks, passes


def per_layer(bench: Bench, seconds: float):
    started = time.monotonic()
    plain_runs, traced_runs, checks, spent = [], [], [], []
    while room_for_another(started, spent, seconds):
        begun = time.monotonic()
        plain, plain_dirs, plain_checks = bench.timed_pass(len(traced_runs))
        traced, traced_dirs, traced_checks = bench.timed_pass(len(traced_runs), trace=True)
        pair_checks = plain_checks + traced_checks + same_outputs(
            plain_dirs, traced_dirs, plain, traced)
        report_pass(plain, plain_checks)
        report_pass(traced, traced_checks, "traced")
        checks += pair_checks
        plain_runs.append(plain)
        traced_runs.append(traced)
        traced["layers"]["cli.artifact_bytes"] = sum(
            p.stat().st_size for d in traced_dirs for p in d.iterdir()
            if not p.name.endswith(".manifest.json"))
        spent.append(time.monotonic() - begun)
    metrics = {name: statistics.median(t["layers"][name] for t in traced_runs)
               for name in traced_runs[0]["layers"]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(t["solve_s"] for t in traced_runs)
        / statistics.median(p["solve_s"] for p in plain_runs))
    units = {name: layer_unit(name) for name in metrics}
    return metrics, units, checks, traced_runs


def report_pass(result, checks, label="pass") -> None:
    ok = sum(passed for _, passed in checks)
    print(f"  {label} seed {result['workload_seed']} pid {result['pid']}: "
          f"setup {result['setup_s']:.3f} s, solve {result['solve_s']:.3f} s, "
          f"cpu {result['cpu_s']:.3f} s, peak rss {result['peak_rss_mb']:.1f} MB, "
          f"checks {ok}/{len(checks)}")
    for name, passed in checks:
        if not passed:
            print(f"    FAILED {name}")


def context(passes) -> dict:
    ctx = dict(passes[0]["context"])
    ctx["src_lines"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                           for p in sorted(SRC.rglob("*.py")))
    # the ceiling keeps git from reporting an enclosing repository's commit
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        ctx["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        ctx["git_sha"] = None
    ctx["turangap_workers"] = "unset (program default)"
    return ctx


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "turangap" / "cli.py").is_file():
        print(f"bench: no turangap sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, units, checks, passes = measure(bench, args.seconds)
        print("context:", json.dumps(context(passes), sort_keys=True))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(checks)
    failed = sum(not ok for _, ok in checks)
    for name in sorted(metrics):
        print(f"  {name:<48} {metrics[name]!r:>24} {units[name]}")
    print(f"  {'fail_ratio':<48} {failed / attempted!r:>24} ratio "
          f"({failed} of {attempted} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
