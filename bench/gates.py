"""Correctness gates on the artifacts and summaries of one benchmark pass.

Each gate is one attempted check.  The exact ones recompute occupancy counts
with the benchmark's own closed form, so they do not share code with the
library routes they check.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

# chain rung values recorded at commit c62d65c with seed 0
REFERENCE = Path(__file__).with_name("reference.json")
# known largest ladder steps and the compositions where they sit
MAX_STEP = {
    4: (Fraction(9, 16), "2-1-1-0"),
    12: (Fraction(741125, 3981312), "3-2-2-1-1-1-1-1-0-0-0-0"),
}


def occupancy(comp: tuple[int, ...], s: int) -> int:
    """Functions [r] -> [s] whose sorted fiber sizes are comp (zero-padded)."""
    parts = list(comp) + [0] * (s - len(comp))
    count = factorial(sum(parts))
    for v in parts:
        count //= factorial(v)
    arrangements = factorial(s)
    for v in set(parts):
        arrangements //= factorial(parts.count(v))
    return count * arrangements


def primary(out_dir: Path) -> Path:
    (path,) = [p for p in out_dir.iterdir() if not p.name.endswith(".manifest.json")]
    return path


def _rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _chain(argv, stdout, art: Path):
    r, m = int(_flag(argv, "--r")), int(_flag(argv, "--m"))
    if art.suffix == ".json":
        obj = json.loads(art.read_text(encoding="utf-8"))
        values = obj["values"]
        yield "gap_ok", obj["gap_ok"] is True
        yield "near_equality_ok", obj["near_equality_ok"] is True
    else:
        values = [float(row["value"]) for row in _rows(art)]
        yield "gap_ok", "step bound: ok" in stdout
        yield "near_equality_ok", any(
            line.startswith("near-equality") and line.endswith(": ok")
            for line in stdout.splitlines())
    top = factorial(r) * comb(m, r) / m**r
    yield "top value", abs(values[-1] - top) <= 1e-9
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[f"chain_r{r}_m{m}"]
    yield "rung count", len(values) == len(ref)
    for i, (got, want) in enumerate(zip(values, ref)):
        yield f"rung {i}", abs(got - want) <= 1e-9


def _ladder(argv, stdout, art: Path):
    r = int(_flag(argv, "--r"))
    value = Fraction(0)
    telescopes = True
    for row in _rows(art)[1:]:
        comp = tuple(int(v) for v in row["composition"].split("-"))
        step = Fraction(int(row["step_num"]), int(row["step_den"]))
        yield f"step {row['composition']}", step == Fraction(occupancy(comp, r), r**r)
        value += step
        telescopes &= value == Fraction(int(row["value_num"]), int(row["value_den"]))
    yield "steps telescope to 1", telescopes and value == 1


def _max_step(argv, stdout, art: Path):
    (row,) = _rows(art)
    got = Fraction(int(row["step_num"]), int(row["step_den"])), row["composition"]
    yield "largest step", got == MAX_STEP.get(int(row["r"]))


def _lemma_check(argv, stdout, art: Path):
    r, s = int(_flag(argv, "--r")), int(_flag(argv, "--s"))
    rows = _rows(art)
    yield "families reported", len(rows) > 0
    for row in rows:
        members = [tuple(int(v) for v in c.split("-")) for c in row["members"].split(";") if c]
        u = Fraction(int(row["uniform_num"]), int(row["uniform_den"]))
        label = row["members"] or "{}"
        yield f"uniform {label}", u == Fraction(sum(occupancy(c, s) for c in members), s**r)
        opt = float(row["opt_value"])
        yield f"opt {label}", float(u) - 1e-9 <= opt <= float(u) + 1e-6


def _bunching(argv, stdout, art: Path):
    total = sum(Fraction(int(row["coeff_num"]), int(row["coeff_den"])) for row in _rows(art))
    yield "coefficients sum to 0", total == 0


GATES = {
    "chain": _chain,
    "ladder": _ladder,
    "max-step": _max_step,
    "lemma-check": _lemma_check,
    "bunching": _bunching,
}


def mc_table(stdout: str) -> list[str]:
    """Monte Carlo lines of a ``ladder --mc-trials`` summary."""
    return [line for line in stdout.splitlines() if " empirical " in line]


def check_pass(commands, out_dirs, result) -> list[tuple[str, bool]]:
    """(label, ok) for every gate on one pass."""
    checks: list[tuple[str, bool]] = []
    for argv, out_dir, code, stdout in zip(commands, out_dirs, result["codes"], result["stdout"]):
        where = " ".join(argv[:-2])  # drop --out DIR
        checks.append((f"{where}: exit 0", code == 0))
        try:
            checks.extend((f"{where}: {label}", ok)
                          for label, ok in GATES[argv[0]](argv, stdout, primary(out_dir)))
        except (OSError, ValueError, KeyError) as exc:
            checks.append((f"{where}: artifact readable ({exc})", False))
    if result["probes"]:
        first, second = (mc_table(text) for text in result["probes"])
        checks.append(("changed seed changes the Monte Carlo sample",
                       bool(first) and bool(second) and first != second))
    return checks


def same_outputs(plain_dirs, traced_dirs, plain, traced) -> list[tuple[str, bool]]:
    """Traced and untraced passes wrote the same artifacts and summaries."""
    checks = []
    for a, b, out_a, out_b in zip(plain_dirs, traced_dirs, plain["stdout"], traced["stdout"]):
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        same = names_a == names_b and all(
            _comparable(a / n) == _comparable(b / n) for n in names_a)
        checks.append((f"{a.name}: traced artifacts identical", same))
        checks.append((f"{a.name}: traced summary identical",
                       out_a.replace(str(a), "") == out_b.replace(str(b), "")))
    return checks


def _comparable(path: Path) -> bytes:
    """File bytes; a manifest without its informational wall time."""
    data = path.read_bytes()
    if path.name.endswith(".manifest.json"):
        obj = json.loads(data)
        obj.pop("wall_time_s")
        data = json.dumps(obj, sort_keys=True).encode()
    return data
