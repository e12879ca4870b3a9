"""Command line front end.

Every subcommand prints a human-readable table on stdout and writes a
machine-readable artifact (csv or json) plus a RunManifest JSON next to it.
Artifact names are content-addressed from the full parameter set, so
identical invocations rewrite byte-identical primary outputs; manifest
wall times are informational only.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import sqrt

from . import __version__
from .chain import (
    ChainConfig,
    build_chain_ladder,
    minimal_m,
    near_equality_check,
    verify_gap_bound,
)
from .dominance import (
    bunching_verify,
    downset_to_dict,
    iter_down_sets,
    load_downset,
)
from .exact_ladder import (
    ladder,
    max_step,
    monte_carlo_urns,
    urn_probability_exact,
    verify_lemma,
)
from .patterns import BlowupSpec, blow_up, blowup_edge_count, load_pattern
from .simplex import OptimizerConfig, certificate, maximize


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    version: str
    outputs: list[str]
    wall_time_s: float


def _artifact_paths(command: str, params: dict, seed, out_dir: str, ext: str):
    key = json.dumps(
        {"command": command, "parameters": params, "seed": seed, "version": __version__},
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
    base = os.path.join(out_dir, f"{command}-{digest}")
    return base + ext, base + ".manifest.json"


def _write_artifacts(
    command: str,
    params: dict,
    seed,
    out_dir: str,
    ext: str,
    content: str,
    started: float,
) -> str:
    os.makedirs(out_dir, exist_ok=True)
    primary, manifest_path = _artifact_paths(command, params, seed, out_dir, ext)
    with open(primary, "w", encoding="utf-8", newline="") as fh:
        fh.write(content)
    manifest = RunManifest(
        command=command,
        parameters=params,
        seed=seed,
        version=__version__,
        outputs=[os.path.basename(primary)],
        wall_time_s=round(time.perf_counter() - started, 6),
    )
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(asdict(manifest), fh, indent=2)
        fh.write("\n")
    return primary


def _csv_content(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_content(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# subcommand handlers


def _opt_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        starts=args.starts, max_iterations=args.max_iter, seed=args.seed
    )


def _handle_lagrangian(args) -> int:
    started = time.perf_counter()
    pattern = load_pattern(args.pattern)
    res = maximize(pattern, _opt_config(args))
    cert = certificate(pattern, res)
    params = {
        "pattern": os.path.abspath(args.pattern),
        "starts": args.starts,
        "max_iter": args.max_iter,
        "format": args.format,
    }
    if args.format == "json":
        content, ext = _json_content(cert), ".json"
    else:
        point = " ".join(f"{v:.17g}" for v in res.point)
        content = _csv_content(
            ["value", "kkt_residual", "starts", "seed", "point"],
            [[f"{res.value:.17g}", f"{res.kkt_residual:.3e}", res.starts_used, res.seed, point]],
        )
        ext = ".csv"
    path = _write_artifacts("lagrangian", params, args.seed, args.out, ext, content, started)
    print(f"pattern: r={pattern.r} m={pattern.m} multisets={len(pattern.multisets)}")
    print(f"value:        {res.value:.12f}")
    print(f"point:        ({', '.join(f'{v:.6f}' for v in res.point)})")
    print(f"kkt residual: {res.kkt_residual:.3e}")
    print(f"wrote {path}")
    return 0


def _handle_chain(args) -> int:
    started = time.perf_counter()
    r = args.r
    m = minimal_m(r) if args.slow else args.m
    if m is None:
        print("chain: --m is required unless --slow is given", file=sys.stderr)
        return 2
    config = ChainConfig(r=r, m=m, edge_order=args.order, opt=_opt_config(args))
    lad = build_chain_ladder(config)
    gap = verify_gap_bound(lad)
    near = near_equality_check(lad)
    params = {
        "r": r,
        "m": m,
        "order": args.order,
        "starts": args.starts,
        "max_iter": args.max_iter,
        "slow": bool(args.slow),
        "format": args.format,
    }
    steps = (0.0,) + lad.steps
    rows = [
        [i, i, f"{lad.values[i]:.17g}", f"{steps[i]:.17g}", f"{lad.kkt_residuals[i]:.3e}"]
        for i in range(len(lad.values))
    ]
    if args.format == "json":
        obj = {
            "r": r,
            "m": m,
            "order": args.order,
            "values": [float(v) for v in lad.values],
            "steps": [float(s) for s in steps],
            "kkt_residuals": [float(k) for k in lad.kkt_residuals],
            "max_step": lad.max_step,
            "max_step_index": lad.max_step_index,
            "gap_ok": gap.ok,
            "near_equality_ok": near.ok,
        }
        content, ext = _json_content(obj), ".json"
    else:
        content = _csv_content(["index", "num_edges", "value", "step", "kkt_residual"], rows)
        ext = ".csv"
    path = _write_artifacts("chain", params, args.seed, args.out, ext, content, started)
    print(f"chain r={r} m={m} order={args.order}: {len(lad.edges)} edges")
    print(f"top value:  {lad.values[-1]:.9f} (threshold {gap.top_threshold:.9f}, "
          f"checked: {gap.top_checked})")
    print(f"max step:   {lad.max_step:.9f} at index {lad.max_step_index} "
          f"(bound {gap.bound:.9f})")
    print(f"step bound: {'ok' if not gap.step_violations else f'VIOLATED at {gap.step_violations}'}")
    print(f"near-equality rungs {near.triggered}: "
          f"{'ok' if near.ok else f'VIOLATED at {near.violations}'}")
    print(f"wrote {path}")
    return 0 if (gap.ok and near.ok) else 1


def _mc_table(r: int, trials: int, seed: int):
    freq = monte_carlo_urns(r, trials, seed)
    rows = []
    worst = 0.0
    for comp, f in freq.items():
        p = float(urn_probability_exact(comp))
        se = sqrt(p * (1 - p) / trials)
        dev = abs(f - p) / se if se > 0 else 0.0
        worst = max(worst, dev)
        rows.append((comp, p, f, dev))
    return rows, worst


def _handle_ladder(args) -> int:
    started = time.perf_counter()
    entries = ladder(args.r)
    params = {"r": args.r, "mc_trials": args.mc_trials, "format": args.format}
    rows = []
    for e in entries:
        comp = "-".join(map(str, e.composition)) if e.composition else ""
        rows.append(
            [e.index, comp, e.value.numerator, e.value.denominator,
             e.step.numerator, e.step.denominator]
        )
    if args.format == "json":
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
        content, ext = _json_content(obj), ".json"
    else:
        content = _csv_content(
            ["index", "composition", "value_num", "value_den", "step_num", "step_den"],
            rows,
        )
        ext = ".csv"
    path = _write_artifacts("ladder", params, args.seed, args.out, ext, content, started)
    print(f"ladder r={args.r}: {len(entries) - 1} rungs")
    for e in entries:
        comp = "-".join(map(str, e.composition)) if e.composition else "(start)"
        print(f"  {e.index:3d}  {comp:<24} value {str(e.value):<12} step {e.step}")
    code = 0
    if args.mc_trials:
        mc_rows, worst = _mc_table(args.r, args.mc_trials, args.seed)
        print(f"monte carlo ({args.mc_trials} trials, seed {args.seed}):")
        for comp, p, f, dev in mc_rows:
            print(f"  {'-'.join(map(str, comp)):<24} exact {p:.6f} "
                  f"empirical {f:.6f} ({dev:.2f} se)")
        print(f"worst deviation: {worst:.2f} standard errors (limit 4)")
        if worst > 4.0:
            code = 1
    print(f"wrote {path}")
    return code


def _handle_max_step(args) -> int:
    started = time.perf_counter()
    step, comp = max_step(args.r)
    params = {"r": args.r, "format": args.format}
    if args.format == "json":
        content = _json_content(
            {"r": args.r, "step": _frac_str(step), "composition": list(comp)}
        )
        ext = ".json"
    else:
        content = _csv_content(
            ["r", "step_num", "step_den", "composition"],
            [[args.r, step.numerator, step.denominator, "-".join(map(str, comp))]],
        )
        ext = ".csv"
    path = _write_artifacts("max-step", params, None, args.out, ext, content, started)
    print(f"largest ladder step for r={args.r}: {step} "
          f"(= {float(step):.9f}) at composition {comp}")
    print(f"wrote {path}")
    return 0


def _handle_lemma_check(args) -> int:
    started = time.perf_counter()
    if args.downset:
        down = load_downset(args.downset)
        if down.r != args.r or down.s != args.s:
            print(
                f"lemma-check: file has r={down.r} s={down.s}, flags say "
                f"r={args.r} s={args.s}",
                file=sys.stderr,
            )
            return 2
        sets = [down]
    else:
        sets = list(iter_down_sets(args.r, args.s))
    opt = _opt_config(args)
    reports = [verify_lemma(a, opt) for a in sets]
    params = {
        "r": args.r,
        "s": args.s,
        "all_downsets": bool(args.all_downsets),
        "downset": os.path.abspath(args.downset) if args.downset else None,
        "starts": args.starts,
        "max_iter": args.max_iter,
        "format": args.format,
    }
    rows = []
    for rep in reports:
        members = ";".join("-".join(map(str, c)) for c in rep.down_set.sorted_members())
        rows.append(
            [
                members,
                rep.uniform_value.numerator,
                rep.uniform_value.denominator,
                f"{rep.opt_value:.17g}",
                f"{rep.kkt_residual:.3e}",
                "" if rep.grid_bound is None else f"{rep.grid_bound:.17g}",
                "pass" if rep.passed else "FAIL",
            ]
        )
    if args.format == "json":
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
        content, ext = _json_content(obj), ".json"
    else:
        content = _csv_content(
            ["members", "uniform_num", "uniform_den", "opt_value", "kkt_residual",
             "grid_bound", "status"],
            rows,
        )
        ext = ".csv"
    path = _write_artifacts("lemma-check", params, args.seed, args.out, ext, content, started)
    ok = all(rep.passed for rep in reports)
    print(f"lemma-check r={args.r} s={args.s}: {len(reports)} down-closed families")
    for rep in reports:
        members = "{" + ", ".join(str(c) for c in rep.down_set.sorted_members()) + "}"
        print(f"  {'pass' if rep.passed else 'FAIL'}  uniform {str(rep.uniform_value):<10} "
              f"optimizer {rep.opt_value:.12f}  {members}")
    print(f"wrote {path}")
    return 0 if ok else 1


def _handle_bunching(args) -> int:
    started = time.perf_counter()
    try:
        h = Fraction(args.h)
    except (ValueError, ZeroDivisionError):
        print(f"bunching: cannot parse --h value {args.h!r}", file=sys.stderr)
        return 2
    report = bunching_verify(args.r, h, seed=args.seed)
    params = {"r": args.r, "h": str(h), "format": args.format}
    rows = []
    for j2, coeff in report.coefficients:
        j = Fraction(j2, 2)
        region = "inside" if abs(j2) <= report.h2 else "outside"
        rows.append([str(j), coeff.numerator, coeff.denominator, region])
    if args.format == "json":
        obj = {
            "r": args.r,
            "h": str(h),
            "coefficients": [
                {"j": str(Fraction(j2, 2)), "coefficient": _frac_str(c)}
                for j2, c in report.coefficients
            ],
            "inside_ok": report.inside_ok,
            "outside_ok": report.outside_ok,
            "zero_sum_ok": report.zero_sum_ok,
            "sample_min": str(report.sample_min),
            "passed": report.passed,
        }
        content, ext = _json_content(obj), ".json"
    else:
        content = _csv_content(
            ["j", "coeff_num", "coeff_den", "region"], rows
        )
        ext = ".csv"
    path = _write_artifacts("bunching", params, args.seed, args.out, ext, content, started)
    print(f"bunching r={args.r} h={h}: grouped coefficients")
    for j2, coeff in report.coefficients:
        region = "inside" if abs(j2) <= report.h2 else "outside"
        print(f"  j={str(Fraction(j2, 2)):>5}  {str(coeff):>16}  ({region})")
    print(f"signs ok: {report.inside_ok and report.outside_ok}   "
          f"zero sum: {report.zero_sum_ok}   "
          f"sampled min: {float(report.sample_min):.3e} over {report.samples} points")
    print(f"wrote {path}")
    return 0 if report.passed else 1


def _handle_blow_up(args) -> int:
    started = time.perf_counter()
    pattern = load_pattern(args.pattern)
    try:
        sizes = tuple(int(v) for v in args.sizes.split(","))
    except ValueError:
        print(f"blow-up: cannot parse --sizes value {args.sizes!r}", file=sys.stderr)
        return 2
    spec = BlowupSpec(pattern, sizes)
    edges = blow_up(spec)
    expected = blowup_edge_count(spec)
    params = {
        "pattern": os.path.abspath(args.pattern),
        "sizes": list(sizes),
        "format": args.format,
    }
    if args.format == "json":
        content = _json_content(
            {"part_sizes": list(sizes), "edge_count": len(edges),
             "edges": [list(e) for e in edges]}
        )
        ext = ".json"
    else:
        content = "".join(" ".join(map(str, e)) + "\n" for e in edges)
        ext = ".txt"
    path = _write_artifacts("blow-up", params, None, args.out, ext, content, started)
    print(f"blow-up of r={pattern.r} m={pattern.m} pattern with sizes {sizes}: "
          f"{len(edges)} edges (closed form {expected})")
    print(f"wrote {path}")
    return 0 if len(edges) == expected else 1


def _handle_minimal_m(args) -> int:
    started = time.perf_counter()
    m = minimal_m(args.r)
    params = {"r": args.r, "format": args.format}
    if args.format == "json":
        content, ext = _json_content({"r": args.r, "m": m}), ".json"
    else:
        content, ext = _csv_content(["r", "m"], [[args.r, m]]), ".csv"
    path = _write_artifacts("minimal-m", params, None, args.out, ext, content, started)
    print(m)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, seed=True, fmt=True):
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    if fmt:
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="machine-readable artifact format (default csv)")
    sub.add_argument("--out", default=".", help="artifact directory (default .)")


def _add_opt_flags(sub):
    sub.add_argument("--starts", type=int, default=50,
                     help="optimizer restarts (default 50)")
    sub.add_argument("--max-iter", type=int, default=5000, dest="max_iter",
                     help="optimizer iteration cap per start (default 5000)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turangap",
        description="Certified simplex maxima, density chains, and exact "
        "ladders for multiset patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lagrangian", help="maximize one pattern over the simplex")
    p.add_argument("--pattern", required=True, help="pattern JSON file")
    _add_opt_flags(p)
    _add_common(p)
    p.set_defaults(handler=_handle_lagrangian)

    p = sub.add_parser("chain", help="certified ladder over a one-edge-at-a-time chain")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--order", choices=("colex", "lex", "random"), default="colex")
    p.add_argument("--slow", action="store_true",
                   help="use m = minimal_m(r) instead of --m")
    _add_opt_flags(p)
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
    group.add_argument("--downset", default=None, help="down-set JSON file")
    _add_opt_flags(p)
    _add_common(p)
    p.set_defaults(handler=_handle_lemma_check)

    p = sub.add_parser("bunching", help="coefficient audit of the averaging inequality")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", required=True,
                   help="layer bound, integer or half-integer (e.g. 2, 3/2, 0.5)")
    _add_common(p)
    p.set_defaults(handler=_handle_bunching)

    p = sub.add_parser("blow-up", help="materialize the blow-up of a pattern")
    p.add_argument("--pattern", required=True, help="pattern JSON file")
    p.add_argument("--sizes", required=True,
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
    try:
        return args.handler(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"turangap {args.command}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
