"""Command line front end.

Each subcommand computes one ``Result`` and writes nothing itself; one
writer then writes the machine-readable artifact (csv or json; text for
``blow-up``) plus a manifest JSON next to it, so a failed run writes no
artifact.  argparse alone reads the command line and its type converters
normalize each flag; artifact names are content-addressed from the parsed
flags, an input file standing in by its normalized content rather than its
path, so identical invocations rewrite byte-identical primary outputs.
The manifest wall time (Monte Carlo included) is informational only.
Stdout holds only the summary; the artifact path goes to stderr.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage error
(argparse's, or ``turangap <command>: <message>``).  ``chain`` prints the
verdicts of ``verify_gap_bound`` and exits 1 when it fails; from
m = minimal_m(r) on, they include whether the top rung crosses 1 - r!/r^r:
run ``chain --m "$(turangap minimal-m --r R)"``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .chain import build_chain_ladder, minimal_m, verify_gap_bound
from .dominance import (
    bunching_verify,
    downset_to_dict,
    iter_down_sets,
    load_downset,
)
from .exact_ladder import (
    ladder,
    max_step,
    mc_verdict,
    monte_carlo_urns,
    occupancy_count,
    verify_lemma,
)
from .patterns import (
    BlowupSpec,
    blow_up,
    blowup_edge_count,
    load_pattern,
    pattern_to_dict,
)
from .simplex import _check_seed, certificate, maximize


@dataclass(frozen=True)
class Result:
    """One subcommand's output: the json object, a (csv header, rows)
    ``table`` or the finished text of a ``.txt`` artifact, summary lines,
    False in ``ok`` if a check failed, and the normalized content of each
    input file by flag, which stands for the file path in the content
    address.
    """

    json: object
    table: tuple[list[str], list[list]] | str
    summary: list[str]
    ok: bool = True
    inputs: dict = field(default_factory=dict)


def _write(args, result: Result, wall_time_s: float) -> str:
    """Write the artifact in ``args.format`` and its manifest; return the path."""
    if args.format == "json":
        content, ext = json.dumps(result.json, indent=2) + "\n", ".json"
    elif isinstance(result.table, str):
        content, ext = result.table, ".txt"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(result.table[0])
        writer.writerows(result.table[1])
        content, ext = buf.getvalue(), ".csv"
    # the first four manifest keys are the content address; the parameters
    # are every parsed flag but --seed (a key of its own) and --out, with an
    # input file's normalized content in place of its path
    manifest = {
        "command": args.command,
        "parameters": {k: result.inputs.get(k, v) for k, v in vars(args).items()
                       if k not in ("command", "handler", "seed", "out")},
        "seed": args.seed,
        "version": __version__,
    }
    key = json.dumps(manifest, sort_keys=True).encode("utf-8")
    base = os.path.join(args.out, f"{args.command}-{hashlib.sha256(key).hexdigest()[:12]}")
    manifest.update(outputs=[os.path.basename(base + ext)], wall_time_s=wall_time_s)
    os.makedirs(args.out, exist_ok=True)
    for path, text in ((base + ext, content),
                       (base + ".manifest.json", json.dumps(manifest, indent=2) + "\n")):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return base + ext


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# subcommand handlers


def _handle_lagrangian(args) -> Result:
    pattern = load_pattern(args.pattern)
    res = maximize(pattern, args.seed)
    point = " ".join(f"{v:.17g}" for v in res.point)
    table = (
        ["value", "kkt_residual", "starts", "seed", "point"],
        [[f"{res.value:.17g}", f"{res.kkt_residual:.3e}", res.starts_used, res.seed, point]],
    )
    summary = [
        f"pattern: r={pattern.r} m={pattern.m} multisets={len(pattern.multisets)}",
        f"value:        {res.value:.12f}",
        f"point:        ({', '.join(f'{v:.6f}' for v in res.point)})",
        f"kkt residual: {res.kkt_residual:.3e}",
    ]
    return Result(certificate(pattern, res), table, summary,
                  inputs={"pattern": pattern_to_dict(pattern)})


def _handle_chain(args) -> Result:
    r, m = args.r, args.m
    lad = build_chain_ladder(r, m, args.order, args.seed)
    gap = verify_gap_bound(lad)
    steps = (0.0,) + lad.steps
    rows = [
        [i, i, f"{lad.values[i]:.17g}", f"{steps[i]:.17g}", f"{lad.kkt_residuals[i]:.3e}"]
        for i in range(len(lad.values))
    ]
    obj = {
        "r": r,
        "m": m,
        "order": args.order,
        "values": [float(v) for v in lad.values],
        "steps": [float(s) for s in steps],
        "kkt_residuals": [float(k) for k in lad.kkt_residuals],
        "closed_form_rungs": list(lad.closed_form_rungs),
        "segment_rungs": list(lad.segment_rungs),
        "triangle_rungs": list(lad.triangle_rungs),
        "tetrahedron_rungs": list(lad.tetrahedron_rungs),
        "max_step": lad.max_step,
        "max_step_index": lad.max_step_index,
        "gap_ok": not gap.step_violations,
        "near_equality_ok": not gap.near_violations,
        "kkt_ok": not gap.kkt_violations,
        "top_ok": gap.top_ok,
    }
    summary = [
        f"chain r={r} m={m} order={args.order}: {len(lad.edges)} edges",
        f"closed-form rungs: {len(lad.closed_form_rungs)} of {len(lad.edges)}",
        f"segment rungs: {len(lad.segment_rungs)} of {len(lad.edges)}",
        f"triangle rungs: {len(lad.triangle_rungs)} of {len(lad.edges)}",
        f"tetrahedron rungs: {len(lad.tetrahedron_rungs)} of {len(lad.edges)}",
        f"top value:  {lad.values[-1]:.9f} (threshold {1 - gap.bound:.9f}, "
        f"checked: {'False' if gap.top_ok is None else 'True' if gap.top_ok else 'VIOLATED'})",
        f"max step:   {lad.max_step:.9f} at index {lad.max_step_index} "
        f"(bound {gap.bound:.9f})",
        f"step bound: {'ok' if not gap.step_violations else f'VIOLATED at {gap.step_violations}'}",
        f"near-equality: {'ok' if not gap.near_violations else f'VIOLATED at {gap.near_violations}'}",
        f"kkt residuals: {'ok' if not gap.kkt_violations else f'VIOLATED at {gap.kkt_violations}'}"
        f" (largest {max(lad.kkt_residuals):.3e})",
    ]
    table = (["index", "num_edges", "value", "step", "kkt_residual"], rows)
    return Result(obj, table, summary, gap.ok)


def _handle_ladder(args) -> Result:
    # Monte Carlo first: it rejects a bad trial count before the ladder is built
    freq = monte_carlo_urns(args.r, args.mc_trials, args.seed) if args.mc_trials else None
    entries = ladder(args.r)
    rows = []
    summary = [f"ladder r={args.r}: {len(entries) - 1} rungs"]
    for e in entries:
        comp = "-".join(map(str, e.composition)) if e.composition else ""
        rows.append(
            [e.index, comp, e.value.numerator, e.value.denominator,
             e.step.numerator, e.step.denominator]
        )
        summary.append(f"  {e.index:3d}  {comp or '(start)':<24} value {str(e.value):<12} "
                       f"step {e.step}")
    obj = {
        "r": args.r,
        "entries": [
            {
                "index": e.index,
                "composition": list(e.composition) if e.composition else None,
                "value": _frac_str(e.value),
                "step": _frac_str(e.step),
            }
            for e in entries
        ],
    }
    table = (["index", "composition", "value_num", "value_den", "step_num", "step_den"], rows)
    if freq is None:
        return Result(obj, table, summary)
    summary.append(f"monte carlo ({args.mc_trials} trials, seed {args.seed}):")
    verdict = mc_verdict(freq, args.mc_trials, args.r)
    for comp, f in freq.items():
        p = occupancy_count(comp, args.r) / args.r**args.r
        summary.append(f"  {'-'.join(map(str, comp)):<24} exact {p:.6f} "
                       f"empirical {f:.6f} (n*KL {verdict.scores[comp]:.2f})")
    summary.append(f"worst n*KL: {verdict.worst:.2f} (limit {verdict.limit:.2f})")
    return Result(obj, table, summary, verdict.ok)


def _handle_max_step(args) -> Result:
    step, comp = max_step(args.r)
    obj = {"r": args.r, "step": _frac_str(step), "composition": list(comp)}
    table = (
        ["r", "step_num", "step_den", "composition"],
        [[args.r, step.numerator, step.denominator, "-".join(map(str, comp))]],
    )
    summary = [f"largest ladder step for r={args.r}: {step} "
               f"(= {float(step):.9f}) at composition {comp}"]
    return Result(obj, table, summary)


def _handle_lemma_check(args) -> Result:
    if args.downset:
        down = load_downset(args.downset)
        if down.r != args.r or down.s != args.s:
            raise ValueError(
                f"file has r={down.r} s={down.s}, flags say r={args.r} s={args.s}"
            )
        sets = [down]
        inputs = {"downset": downset_to_dict(down)}
    else:
        sets = list(iter_down_sets(args.r, args.s))
        inputs = {}
    reports = [verify_lemma(a, args.seed) for a in sets]
    rows = []
    summary = [f"lemma-check r={args.r} s={args.s}: {len(reports)} down-closed families"]
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        members = rep.down_set.sorted_members()
        rows.append(
            [
                ";".join("-".join(map(str, c)) for c in members),
                rep.uniform_value.numerator,
                rep.uniform_value.denominator,
                f"{rep.opt_value:.17g}",
                f"{rep.kkt_residual:.3e}",
                "" if rep.grid_bound is None else f"{rep.grid_bound:.17g}",
                status,
            ]
        )
        summary.append(f"  {status}  uniform {str(rep.uniform_value):<10} "
                       f"optimizer {rep.opt_value:.12f}  "
                       "{" + ", ".join(str(c) for c in members) + "}")
    obj = {
        "r": args.r,
        "s": args.s,
        "reports": [
            {
                "down_set": downset_to_dict(rep.down_set),
                "uniform_value": _frac_str(rep.uniform_value),
                "opt_value": rep.opt_value,
                "kkt_residual": rep.kkt_residual,
                "grid_bound": rep.grid_bound,
                "passed": rep.passed,
            }
            for rep in reports
        ],
    }
    table = (
        ["members", "uniform_num", "uniform_den", "opt_value", "kkt_residual",
         "grid_bound", "status"],
        rows,
    )
    return Result(obj, table, summary, all(rep.passed for rep in reports), inputs=inputs)


def _handle_bunching(args) -> Result:
    h = Fraction(args.h)
    report = bunching_verify(args.r, h, args.seed)
    rows = []
    summary = [f"bunching r={args.r} h={h}: grouped coefficients"]
    for j2, coeff in report.coefficients:
        j = Fraction(j2, 2)
        region = "inside" if abs(j2) <= report.h2 else "outside"
        rows.append([str(j), coeff.numerator, coeff.denominator, region])
        summary.append(f"  j={str(j):>5}  {str(coeff):>16}  ({region})")
    summary.append(f"signs ok: {report.inside_ok and report.outside_ok}   "
                   f"zero sum: {report.zero_sum_ok}   "
                   f"sampled min: {float(report.sample_min):.3e} over {report.samples} points")
    obj = {
        "r": args.r,
        "h": args.h,
        "coefficients": [{"j": j, "coefficient": f"{n}/{d}"} for j, n, d, _ in rows],
        "inside_ok": report.inside_ok,
        "outside_ok": report.outside_ok,
        "zero_sum_ok": report.zero_sum_ok,
        "sample_min": str(report.sample_min),
        "passed": report.passed,
    }
    table = (["j", "coeff_num", "coeff_den", "region"], rows)
    return Result(obj, table, summary, report.passed)


def _handle_blow_up(args) -> Result:
    pattern = load_pattern(args.pattern)
    spec = BlowupSpec(pattern, args.sizes)
    edges = blow_up(spec)
    expected = blowup_edge_count(spec)
    obj = {"part_sizes": list(args.sizes), "edge_count": len(edges),
           "edges": [list(e) for e in edges]}
    text = "".join(" ".join(map(str, e)) + "\n" for e in edges)
    summary = [f"blow-up of r={pattern.r} m={pattern.m} pattern with sizes {args.sizes}: "
               f"{len(edges)} edges (closed form {expected})"]
    return Result(obj, text, summary, len(edges) == expected,
                  inputs={"pattern": pattern_to_dict(pattern)})


def _handle_minimal_m(args) -> Result:
    m = minimal_m(args.r)
    return Result({"r": args.r, "m": m}, (["r", "m"], [[args.r, m]]), [str(m)])


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, seed=True):
    if seed:
        sub.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="machine-readable artifact format (default csv)")
    sub.add_argument("--out", default=".", help="artifact directory (default .)")


def _seed(text: str) -> int:
    try:
        return _check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}") from None


def _fraction(text: str) -> str:
    try:
        return str(Fraction(text))
    except (ValueError, ZeroDivisionError):  # argparse does not catch the second
        raise argparse.ArgumentTypeError(f"cannot parse --h value {text!r}") from None


def _sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse --sizes value {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; no flag has a mutable default, so
    every parse starts from the same state."""
    parser = argparse.ArgumentParser(
        prog="turangap",
        description="Certified simplex maxima, density chains, and exact "
        "ladders for multiset patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lagrangian", help="maximize one pattern over the simplex")
    p.add_argument("--pattern", required=True, help="pattern JSON file")
    _add_common(p)
    p.set_defaults(handler=_handle_lagrangian)

    p = sub.add_parser("chain", help="certified ladder over a one-edge-at-a-time chain")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--order", choices=("colex", "lex", "random"), default="colex")
    _add_common(p)
    p.set_defaults(handler=_handle_chain)

    p = sub.add_parser("ladder", help="exact value ladder for r balls in r urns")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mc-trials", type=int, default=0, dest="mc_trials",
                   help="cross-check against this many seeded trials")
    _add_common(p)
    p.set_defaults(handler=_handle_ladder)

    p = sub.add_parser("max-step", help="largest exact ladder step")
    p.add_argument("--r", type=int, required=True)
    _add_common(p, seed=False)
    p.set_defaults(handler=_handle_max_step, seed=None)

    p = sub.add_parser("lemma-check",
                       help="uniform-maximizer audit of down-closed families")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all-downsets", action="store_true", dest="all_downsets")
    group.add_argument("--downset", help="down-set JSON file")
    _add_common(p)
    p.set_defaults(handler=_handle_lemma_check)

    p = sub.add_parser("bunching", help="coefficient audit of the averaging inequality")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=_fraction, required=True,
                   help="layer bound, integer or half-integer (e.g. 2, 3/2, 0.5)")
    _add_common(p)
    p.set_defaults(handler=_handle_bunching)

    p = sub.add_parser("blow-up", help="materialize the blow-up of a pattern")
    p.add_argument("--pattern", required=True, help="pattern JSON file")
    p.add_argument("--sizes", type=_sizes, required=True,
                   help="comma-separated class sizes, e.g. 3,2")
    _add_common(p, seed=False)
    p.set_defaults(handler=_handle_blow_up, seed=None)

    p = sub.add_parser("minimal-m",
                       help="smallest ground set whose chain tops the gap threshold")
    p.add_argument("--r", type=int, required=True)
    _add_common(p, seed=False)
    p.set_defaults(handler=_handle_minimal_m, seed=None)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    started = time.perf_counter()
    try:
        result = args.handler(args)
        path = _write(args, result, round(time.perf_counter() - started, 6))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"turangap {args.command}: {exc}", file=sys.stderr)
        return 2
    for line in result.summary:
        print(line)
    print(f"wrote {path}", file=sys.stderr)
    return 0 if result.ok else 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
