"""End-to-end runs of every subcommand through dispatch()."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import turangap
from turangap import DownSet, compositions, simple_pattern
from turangap.cli import build_parser, dispatch
from turangap.dominance import downset_to_dict, linear_extension
from turangap.patterns import pattern_to_dict

from oracles import bumped_bunching, fabricated_ladder

WORKED = {"r": 3, "m": 3, "multisets": [[1, 1, 2], [1, 2, 3]]}


@pytest.fixture
def pattern_file(tmp_path):
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(WORKED))
    return str(path)


def _artifacts(tmp_path, stem):
    primary = [
        p for p in tmp_path.iterdir()
        if p.name.startswith(stem) and not p.name.endswith(".manifest.json")
    ]
    manifests = sorted(tmp_path.glob(f"{stem}*.manifest.json"))
    return sorted(primary), manifests


def test_lagrangian_csv_and_manifest(tmp_path, pattern_file, capsys):
    code = dispatch(
        ["lagrangian", "--pattern", pattern_file, "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "value:" in out and "kkt residual" in out

    primaries, manifests = _artifacts(tmp_path, "lagrangian-")
    assert len(primaries) == 1 and len(manifests) == 1
    rows = list(csv.DictReader(primaries[0].open()))
    assert len(rows) == 1
    assert abs(float(rows[0]["value"]) - 4 / 9) < 1e-8
    manifest = json.loads(manifests[0].read_text())
    assert manifest["command"] == "lagrangian"
    assert manifest["outputs"] == [primaries[0].name]
    assert manifest["seed"] == 0


def test_identical_runs_are_byte_identical(tmp_path, pattern_file):
    argv = ["lagrangian", "--pattern", pattern_file, "--out", str(tmp_path)]
    assert dispatch(argv) == 0
    primaries, _ = _artifacts(tmp_path, "lagrangian-")
    first = primaries[0].read_bytes()
    assert dispatch(argv) == 0
    primaries, manifests = _artifacts(tmp_path, "lagrangian-")
    assert len(primaries) == 1  # same content-addressed name
    assert primaries[0].read_bytes() == first
    # different seed lands at a different address
    assert dispatch(argv + ["--seed", "5"]) == 0
    primaries, _ = _artifacts(tmp_path, "lagrangian-")
    assert len(primaries) == 2


def _written(out_dir):
    """Each file's bytes by name, the manifests without their wall time."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text())
            del manifest["wall_time_s"]
            files[path.name] = manifest
        else:
            files[path.name] = path.read_bytes()
    return files


def test_one_parser_serves_every_dispatch(tmp_path, pattern_file):
    # the parser is built once per process; runs that reuse it, around a
    # rejected flag, write what runs with a fresh parser write
    runs = [["lagrangian", "--pattern", pattern_file, "--seed", "3"],
            ["chain", "--r", "3", "--m", "5", "--format", "json"],
            ["lemma-check", "--r", "3", "--s", "2", "--all-downsets"],
            ["max-step", "--r", "4"]]
    fresh = tmp_path / "fresh"
    for argv in runs:
        build_parser.cache_clear()
        assert dispatch(argv + ["--out", str(fresh)]) == 0
    assert build_parser() is build_parser()
    shared = tmp_path / "shared"
    for argv in runs:
        assert dispatch(argv + ["--out", str(shared)]) == 0
        assert dispatch(argv + ["--bogus", "--out", str(shared)]) == 2
        assert dispatch(["chain", "--r", "x", "--out", str(shared)]) == 2
    assert _written(shared) == _written(fresh)


@pytest.mark.parametrize("command,extra,flag,first,turned,other", [
    ("lagrangian", [], "--pattern", WORKED,
     dict(WORKED, multisets=WORKED["multisets"][::-1]),
     {"r": 3, "m": 3, "multisets": [[1, 2, 3]]}),
    ("blow-up", ["--sizes", "2,2,2"], "--pattern", WORKED,
     dict(WORKED, multisets=WORKED["multisets"][::-1]),
     {"r": 3, "m": 3, "multisets": [[1, 2, 3]]}),
    ("lemma-check", ["--r", "3", "--s", "2"], "--downset",
     {"r": 3, "s": 2, "members": [[2, 1], [3, 0]]},
     {"r": 3, "s": 2, "members": [[3, 0], [2, 1]]},
     {"r": 3, "s": 2, "members": []}),
])
def test_input_file_names_its_artifact_by_content(tmp_path, command, extra, flag,
                                                  first, turned, other):
    # one content in two directories, reordered or not, gets one name and
    # the same bytes (a lagrangian certificate echoes the sorted multisets);
    # new content at the same path gets a new name
    def written(path, obj):
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(obj))
        out = tmp_path / f"out-{len(list(tmp_path.glob('out-*')))}"
        assert dispatch([command, *extra, flag, str(path), "--format", "json",
                         "--out", str(out)]) == 0
        primaries, _ = _artifacts(out, command + "-")
        return primaries[0].name, primaries[0].read_bytes()

    a, b = tmp_path / "a" / "in.json", tmp_path / "b" / "in.json"
    assert written(a, first) == written(b, first) == written(b, turned)
    assert written(a, other)[0] != written(b, first)[0]


def test_lagrangian_json_format(tmp_path, pattern_file):
    code = dispatch(
        ["lagrangian", "--pattern", pattern_file, "--format", "json",
         "--out", str(tmp_path)]
    )
    assert code == 0
    primaries, _ = _artifacts(tmp_path, "lagrangian-")
    cert = json.loads(primaries[0].read_text())
    assert abs(cert["value"] - 4 / 9) < 1e-8
    assert len(cert["point"]) == 3


def test_chain_subcommand(tmp_path, capsys):
    code = dispatch(
        ["chain", "--r", "3", "--m", "5", "--format", "json", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "max step" in out
    primaries, _ = _artifacts(tmp_path, "chain-")
    obj = json.loads(primaries[0].read_text())
    assert obj["r"] == 3 and obj["m"] == 5
    assert len(obj["values"]) == 11  # C(5,3) rungs plus the start
    assert obj["gap_ok"] and obj["near_equality_ok"] and obj["kkt_ok"]
    assert obj["top_ok"] is None  # m = 5 < minimal_m(3): nothing claimed
    assert obj["max_step"] <= 2 / 9 + 1e-6
    assert "\nkkt residuals: ok (largest " in out
    # rungs 3 and 9 have two twin classes, rung 8 three
    assert obj["segment_rungs"] == [3, 9] and "\nsegment rungs: 2 of 10\n" in out
    assert obj["triangle_rungs"] == [8] and "\ntriangle rungs: 1 of 10\n" in out
    assert obj["tetrahedron_rungs"] == [] and "\ntetrahedron rungs: 0 of 10\n" in out
    assert out.index("triangle rungs:") < out.index("tetrahedron rungs:") < out.index("top value:")


def test_chain_subcommand_lists_tetrahedron_rungs(tmp_path, capsys):
    # colex r=4 m=6 rung 11 has the twin classes {1}, {2, 3}, {4}, {5, 6}
    code = dispatch(
        ["chain", "--r", "4", "--m", "6", "--format", "json", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    obj = json.loads(_artifacts(tmp_path, "chain-")[0][0].read_text())
    assert obj["tetrahedron_rungs"] == [11] and "\ntetrahedron rungs: 1 of 15\n" in out
    assert obj["kkt_ok"] and "\nkkt residuals: ok (largest " in out


_VERDICT_LINES = {"gap_ok": "step bound: ",
                  "near_equality_ok": "near-equality: ",
                  "kkt_ok": "kkt residuals: "}


@pytest.mark.parametrize("lad,flag,where", [
    (fabricated_ladder(0.0, 2 / 9, 0.25, 0.24), "gap_ok", (3,)),  # a falling rung
    (fabricated_ladder(0.0, 0.005, 0.005 + 2 / 9 + 2e-6), "gap_ok", (2,)),
    (fabricated_ladder(0.0, 0.05, 0.05 + 2 / 9 - 0.005), "near_equality_ok", (2,)),
    (replace(fabricated_ladder(0.0, 0.1, 0.2), kkt_residuals=(0.0, 2e-6, 0.0)),
     "kkt_ok", (1,)),
], ids=["falling", "step-over", "near-equality", "kkt"])
def test_every_chain_verdict_line_can_fail(tmp_path, capsys, monkeypatch, lad, flag, where):
    # each fabricated ladder breaks one check: its summary line, its JSON
    # flag and the exit code all say so, and the other two checks pass
    monkeypatch.setattr("turangap.cli.build_chain_ladder", lambda *args: lad)
    code = dispatch(["chain", "--r", "3", "--m", "8", "--format", "json",
                     "--out", str(tmp_path)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    obj = json.loads(_artifacts(tmp_path, "chain-")[0][0].read_text())
    for name, prefix in _VERDICT_LINES.items():
        line = next(x for x in lines if x.startswith(prefix))
        if name == flag:
            assert f"VIOLATED at {where}" in line and obj[name] is False
        else:
            assert ": ok" in line and "VIOLATED" not in line and obj[name] is True


@pytest.mark.parametrize("shift", [Fraction(1, 10**4), Fraction(-1, 10**4)],
                         ids=["lower-side", "upper-side"])
def test_lemma_check_fails_a_wrong_uniform_value(tmp_path, capsys, monkeypatch, shift):
    # u moved up by 1e-4 leaves the optimizer below the window, moved down
    # above it; each family's row and line read FAIL and the run exits 1
    exact = turangap.exact_ladder.uniform_value_exact
    monkeypatch.setattr("turangap.exact_ladder.uniform_value_exact", lambda a: exact(a) + shift)
    code = dispatch(["lemma-check", "--r", "3", "--s", "2", "--all-downsets",
                     "--out", str(tmp_path)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 3 and all(line.startswith("  FAIL  uniform ") for line in lines)
    rows = list(csv.DictReader(_artifacts(tmp_path, "lemma-check-")[0][0].open()))
    assert [row["status"] for row in rows] == ["FAIL"] * 3


def test_bunching_fails_a_nonzero_coefficient_sum(tmp_path, capsys, monkeypatch):
    # raising the outside j2 = -4 coefficient by 1 keeps every sign, breaks the sum
    real = turangap.cli.bunching_verify
    monkeypatch.setattr("turangap.cli.bunching_verify",
                        lambda *args: bumped_bunching(real(*args), {-4: 1}))
    code = dispatch(["bunching", "--r", "4", "--h", "1", "--out", str(tmp_path)])
    assert code == 1
    line = next(ln for ln in capsys.readouterr().out.splitlines() if "zero sum:" in ln)
    assert "   zero sum: False   " in line
    assert line.startswith("signs ok: True   "), line


def test_blow_up_fails_an_edge_count_off_the_closed_form(tmp_path, pattern_file, capsys,
                                                         monkeypatch):
    real = turangap.cli.blowup_edge_count
    monkeypatch.setattr("turangap.cli.blowup_edge_count", lambda spec: real(spec) + 1)
    code = dispatch(["blow-up", "--pattern", pattern_file, "--sizes", "2,2,2",
                     "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().out.endswith(": 10 edges (closed form 11)\n")


def test_ladder_fails_a_monte_carlo_table_off_the_occupancy_law(tmp_path, capsys,
                                                                monkeypatch):
    # every throw lands on one shape: the other shapes score far above the limit
    def one_shape(r, trials, seed):
        order = linear_extension(r)
        return {comp: float(comp == order[0]) for comp in order}

    monkeypatch.setattr("turangap.cli.monte_carlo_urns", one_shape)
    code = dispatch(["ladder", "--r", "4", "--mc-trials", "1000", "--out", str(tmp_path)])
    assert code == 1
    worst, limit = re.fullmatch(r"worst n\*KL: ([\d.]+) \(limit ([\d.]+)\)",
                                capsys.readouterr().out.splitlines()[-1]).groups()
    assert float(worst) > float(limit)


def test_chain_requires_m(tmp_path):
    assert dispatch(["chain", "--r", "3", "--out", str(tmp_path)]) == 2


def test_chain_r6_passes_the_near_equality_audit(tmp_path, capsys):
    # r!/r^r = 0.0154 at r = 6: steps of 0.0055 from 0.021 are within bound
    assert dispatch(["chain", "--r", "6", "--m", "7", "--out", str(tmp_path)]) == 0
    assert "\nnear-equality: ok\n" in capsys.readouterr().out


def test_chain_fails_a_top_value_below_the_threshold(tmp_path, capsys, monkeypatch):
    # on 13 = minimal_m(3) vertices the top rung is compared with 1 - 2/9 exactly
    lad = fabricated_ladder(0.0, 2 / 9, 0.24, m=13)
    monkeypatch.setattr("turangap.cli.build_chain_ladder", lambda *args: lad)
    code = dispatch(["chain", "--r", "3", "--m", "13", "--format", "json",
                     "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "checked: VIOLATED)" in out and "near-equality: ok" in out
    obj = json.loads(_artifacts(tmp_path, "chain-")[0][0].read_text())
    assert obj["top_ok"] is False and obj["gap_ok"] and obj["near_equality_ok"]


def test_chain_checks_the_top_from_minimal_m(tmp_path, capsys, monkeypatch):
    # 3 = minimal_m(2), the smallest m whose top rung crosses 1/2; the audit
    # decides it from lambda(K_m) alone, never walking m
    for where in ("turangap.chain.minimal_m", "turangap.cli.minimal_m"):
        monkeypatch.setattr(where, lambda r: pytest.fail("walked m"))
    assert dispatch(["chain", "--r", "2", "--m", "3", "--out", str(tmp_path)]) == 0
    assert "(threshold 0.500000000, checked: True)" in capsys.readouterr().out
    assert dispatch(["chain", "--r", "2", "--m", "2", "--out", str(tmp_path)]) == 0
    assert "(threshold 0.500000000, checked: False)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["ladder", "--r", "3", "--mc-trials", "-1"],
        ["ladder", "--r", "36", "--mc-trials", "10"],
        ["chain", "--r", "3"],
        ["bunching", "--r", "4", "--h", "wat"],
        ["bunching", "--r", "4", "--h", "1/0"],
        ["blow-up", "--pattern", "PATTERN", "--sizes", "2,x,2"],
        ["lemma-check", "--r", "4", "--s", "2", "--downset", "DOWNSET"],
    ],
    ids=" ".join,
)
def test_failed_run_writes_nothing(tmp_path, pattern_file, argv):
    down = tmp_path / "down.json"
    down.write_text(json.dumps(downset_to_dict(DownSet.from_generators(3, 2, [(2, 1)]))))
    files = {"PATTERN": pattern_file, "DOWNSET": str(down)}
    out = tmp_path / "out"
    assert dispatch([files.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_bad_seed_is_usage_error_for_every_seeded_command(tmp_path, pattern_file, capsys):
    # one converter judges --seed, so every seeded subcommand rejects a bad
    # one alike, before any work and before anything is written
    commands = [["lagrangian", "--pattern", pattern_file],
                ["chain", "--r", "3", "--m", "4"],
                ["ladder", "--r", "4"],
                ["ladder", "--r", "4", "--mc-trials", "10"],
                ["lemma-check", "--r", "3", "--s", "2", "--all-downsets"],
                ["bunching", "--r", "4", "--h", "1"]]
    out = tmp_path / "out"
    for argv in commands:
        for seed in ("-1", "2.5", "x"):
            assert dispatch(argv + ["--seed", seed, "--out", str(out)]) == 2, (argv, seed)
            err = capsys.readouterr().err
            assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err
    assert not out.exists()


def test_bad_trial_count_fails_before_the_ladder_is_built(tmp_path, capsys, monkeypatch):
    def no_ladder(r):
        raise AssertionError("ladder built before the trial count was checked")

    monkeypatch.setattr("turangap.cli.ladder", no_ladder)
    code = dispatch(["ladder", "--r", "3", "--mc-trials", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert "trials must be >= 1" in capsys.readouterr().err


def test_ladder_csv_columns(tmp_path, capsys):
    code = dispatch(["ladder", "--r", "3", "--out", str(tmp_path)])
    assert code == 0
    primaries, _ = _artifacts(tmp_path, "ladder-")
    rows = list(csv.DictReader(primaries[0].open()))
    assert [r["composition"] for r in rows] == ["", "1-1-1", "2-1-0", "3-0-0"]
    assert [r["value_num"] for r in rows] == ["0", "2", "8", "1"]
    assert [r["value_den"] for r in rows] == ["1", "9", "9", "1"]
    assert rows[2]["step_num"] == "2" and rows[2]["step_den"] == "3"


def test_ladder_monte_carlo_flag(tmp_path, capsys):
    code = dispatch(
        ["ladder", "--r", "3", "--mc-trials", "20000", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "worst n*KL" in out and "(limit 15.61)" in out


@pytest.mark.parametrize("argv,marker", [
    (["ladder", "--r", "4", "--mc-trials", "2000"], "empirical "),
    (["bunching", "--r", "4", "--h", "1"], "sampled min: ")])
def test_another_seed_draws_another_sample(tmp_path, capsys, argv, marker):
    seen = []
    for seed in ("0", "1"):
        assert dispatch(argv + ["--seed", seed, "--out", str(tmp_path)]) == 0
        lines = [ln[ln.index(marker):] for ln in capsys.readouterr().out.splitlines()
                 if marker in ln]
        assert lines
        seen.append(lines)
    assert seen[0] != seen[1]


def test_ladder_monte_carlo_rare_shape_is_no_false_alarm(tmp_path, capsys):
    # 8-0-...-0 comes up 4 times where 0.48 are expected (5.1 standard
    # errors); the per-shape 4-sigma rule failed this correct sample, and
    # each shape's line now prints the n*KL score the verdict judges
    code = dispatch(["ladder", "--r", "8", "--mc-trials", "1000000",
                     "--seed", "4103", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"{'8-0-0-0-0-0-0-0':<24} exact 0.000000 empirical 0.000004 (n*KL 4.98)" in out
    assert " se)" not in out
    assert "worst n*KL: 4.98 (limit 17.60)" in out


def test_max_step_subcommand(tmp_path, capsys):
    code = dispatch(["max-step", "--r", "4", "--format", "json",
                     "--out", str(tmp_path)])
    assert code == 0
    primaries, _ = _artifacts(tmp_path, "max-step-")
    obj = json.loads(primaries[0].read_text())
    assert obj["step"] == "9/16"
    assert obj["composition"] == [2, 1, 1, 0]


def test_lemma_check_all_downsets(tmp_path, capsys):
    code = dispatch(
        ["lemma-check", "--r", "3", "--s", "2", "--all-downsets", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    primaries, _ = _artifacts(tmp_path, "lemma-check-")
    rows = list(csv.DictReader(primaries[0].open()))
    assert len(rows) == 3  # chain poset on {(2,1),(3,0)} plus empty family
    assert all(r["status"] == "pass" for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lemma_check_above_four_urns_reports_no_grid_bound(tmp_path, capsys, fmt):
    # the grid bound runs for s <= 4 only; at s = 5 its cells stay empty
    code = dispatch(["lemma-check", "--r", "3", "--s", "5", "--all-downsets",
                     "--format", fmt, "--out", str(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lemma-check r=3 s=5: 4 down-closed families"
    assert len(lines) == 5 and all(line.startswith("  pass ") for line in lines[1:])
    path = _artifacts(tmp_path, "lemma-check-")[0][0]
    if fmt == "csv":
        rows = list(csv.DictReader(path.open()))
        assert [(row["grid_bound"], row["status"]) for row in rows] == [("", "pass")] * 4
    else:
        reports = json.loads(path.read_text())["reports"]
        assert [(rep["grid_bound"], rep["passed"]) for rep in reports] == [(None, True)] * 4


def test_lemma_check_prints_coarse_grid_warnings_without_source_paths(tmp_path, capsys):
    # three r=4 s=3 families get grid bounds far above 1; each warning is one
    # line naming the command, with no library path or source line
    code = dispatch(
        ["lemma-check", "--r", "4", "--s", "3", "--all-downsets", "--out", str(tmp_path)]
    )
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    warned = [line for line in err if line.startswith("turangap lemma-check: warning: ")]
    assert len(warned) == 3 and all("too coarse" in line for line in warned)
    assert len(err) == 4 and err[-1].startswith("wrote ")
    assert not any(".py" in line for line in err)


def test_cli_warnings_keep_the_error_filters(tmp_path, monkeypatch):
    # pytest turns a RuntimeWarning into an error; dispatch must not catch it
    def overflow(r):
        warnings.warn("overflow encountered", RuntimeWarning)

    monkeypatch.setattr("turangap.cli.max_step", overflow)
    with pytest.raises(RuntimeWarning, match="overflow"):
        dispatch(["max-step", "--r", "3", "--out", str(tmp_path)])


def test_lemma_check_single_downset_file(tmp_path):
    down = DownSet.from_generators(3, 2, [(2, 1)])
    path = tmp_path / "down.json"
    path.write_text(json.dumps(downset_to_dict(down)))
    code = dispatch(
        ["lemma-check", "--r", "3", "--s", "2", "--downset", str(path),
         "--format", "json", "--out", str(tmp_path)]
    )
    assert code == 0
    primaries, _ = _artifacts(tmp_path, "lemma-check-")
    obj = json.loads(primaries[0].read_text())
    assert len(obj["reports"]) == 1
    assert obj["reports"][0]["passed"]
    assert obj["reports"][0]["uniform_value"] == "3/4"


def test_lemma_check_flag_file_mismatch_is_usage_error(tmp_path, capsys):
    down = DownSet.from_generators(3, 2, [(2, 1)])
    path = tmp_path / "down.json"
    path.write_text(json.dumps(downset_to_dict(down)))
    code = dispatch(
        ["lemma-check", "--r", "4", "--s", "2", "--downset", str(path),
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "flags say" in capsys.readouterr().err


def test_bunching_integer_and_fraction_h(tmp_path, capsys):
    assert dispatch(["bunching", "--r", "4", "--h", "1",
                     "--out", str(tmp_path)]) == 0
    assert dispatch(["bunching", "--r", "3", "--h", "3/2",
                     "--out", str(tmp_path)]) == 0
    assert dispatch(["bunching", "--r", "3", "--h", "0.5",
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "zero sum: True" in out


def test_bunching_bad_h_is_usage_error(tmp_path, capsys):
    assert dispatch(["bunching", "--r", "4", "--h", "wat",
                     "--out", str(tmp_path)]) == 2
    # off-lattice h raises ValueError inside the library -> usage error
    assert dispatch(["bunching", "--r", "4", "--h", "1/2",
                     "--out", str(tmp_path)]) == 2


def test_bunching_csv_coefficients(tmp_path):
    assert dispatch(["bunching", "--r", "2", "--h", "0",
                     "--out", str(tmp_path)]) == 0
    primaries, _ = _artifacts(tmp_path, "bunching-")
    rows = list(csv.DictReader(primaries[0].open()))
    got = {r["j"]: (r["coeff_num"], r["coeff_den"], r["region"]) for r in rows}
    assert got["-1"] == ("1", "2", "outside")
    assert got["0"] == ("-1", "1", "inside")
    assert got["1"] == ("1", "2", "outside")


def test_blow_up_txt_wire_format(tmp_path, pattern_file, capsys):
    code = dispatch(
        ["blow-up", "--pattern", pattern_file, "--sizes", "2,2,2",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert "10 edges" in capsys.readouterr().out
    primaries, _ = _artifacts(tmp_path, "blow-up-")
    lines = primaries[0].read_text().splitlines()
    assert len(lines) == 10
    assert lines[0] == "1 2 3"
    for line in lines:
        assert len(line.split()) == 3


@pytest.mark.parametrize("cap,code", [(10, 0), (9, 2)])
def test_blow_up_size_is_checked_before_any_edge_is_built(tmp_path, pattern_file, capsys,
                                                          monkeypatch, cap, code):
    # sizes 2,2,2 give exactly 10 edges: at the cap they are built, one below it none are
    real, calls = turangap.cli.blow_up, []
    monkeypatch.setattr("turangap.cli._MAX_BLOWUP_EDGES", cap)
    monkeypatch.setattr("turangap.cli.blow_up", lambda spec: calls.append(spec) or real(spec))
    assert dispatch(["blow-up", "--pattern", pattern_file, "--sizes", "2,2,2",
                     "--out", str(tmp_path)]) == code
    assert len(calls) == (code == 0)
    if code:
        assert capsys.readouterr().err == "turangap blow-up: the blow-up has 10 edges, more than 9\n"
        assert not list(tmp_path.glob("blow-up-*"))


def test_blow_up_above_ten_million_edges_is_usage_error(tmp_path, pattern_file, capsys,
                                                        monkeypatch):
    monkeypatch.setattr("turangap.cli.blow_up", lambda spec: pytest.fail("blow_up ran"))
    # C(1000, 2) 1000 + 1000^3 edges
    assert dispatch(["blow-up", "--pattern", pattern_file, "--sizes", "1000,1000,1000",
                     "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "turangap blow-up: the blow-up has 1499500000 edges, more than 10000000\n")


def test_blow_up_bad_sizes_is_usage_error(tmp_path, pattern_file, capsys):
    code = dispatch(
        ["blow-up", "--pattern", pattern_file, "--sizes", "2,x,2",
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err


def test_blow_up_wrong_part_count_is_usage_error(tmp_path, pattern_file):
    code = dispatch(
        ["blow-up", "--pattern", pattern_file, "--sizes", "2,2",
         "--out", str(tmp_path)]
    )
    assert code == 2  # BlowupSpec raises ValueError -> usage error


def test_minimal_m_prints_13(tmp_path, capsys):
    code = dispatch(["minimal-m", "--r", "3", "--out", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    # stdout holds only the number, so $(turangap minimal-m ...) can feed --m
    assert captured.out == "13\n"
    primaries, _ = _artifacts(tmp_path, "minimal-m-")
    assert captured.err == f"wrote {primaries[0]}\n"
    rows = list(csv.DictReader(primaries[0].open()))
    assert rows[0]["m"] == "13"


def test_unknown_command_is_usage_error(capsys):
    assert dispatch(["solve-everything"]) == 2
    assert dispatch([]) == 2


def test_missing_pattern_file_is_usage_error(tmp_path, capsys):
    code = dispatch(
        ["lagrangian", "--pattern", str(tmp_path / "nope.json"),
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "lagrangian" in capsys.readouterr().err


def test_malformed_pattern_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = dispatch(
        ["lagrangian", "--pattern", str(bad), "--out", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize("command,extra", [("lagrangian", []),
                                           ("blow-up", ["--sizes", "1,1,1"])])
@pytest.mark.parametrize("multisets", [5, [[1, 1, "a"]], [7], [[1.5, 2, 3]], [[True, 2, 3]]],
                         ids=repr)
def test_malformed_pattern_object_is_usage_error(tmp_path, capsys, command, extra, multisets):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"r": 3, "m": 3, "multisets": multisets}))
    out = tmp_path / "out"
    code = dispatch([command, "--pattern", str(bad), *extra, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"turangap {command}: malformed pattern object")
    assert not out.exists()


@pytest.mark.parametrize("command,extra", [("lagrangian", []),
                                           ("blow-up", ["--sizes", "1,1,1"])])
@pytest.mark.parametrize("multisets,why", [([[1, 1, 2], [1, 1, 2]], "duplicate multiset"),
                                           ([[0, 1, 2]], "element 0 outside"),
                                           ([[1, 2, 4]], "element 4 outside")],
                         ids=["duplicate", "element-0", "element-m+1"])
def test_invalid_pattern_is_usage_error(tmp_path, capsys, command, extra, multisets, why):
    # well-typed but not a pattern: Pattern's own check is the message
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"r": 3, "m": 3, "multisets": multisets}))
    out = tmp_path / "out"
    code = dispatch([command, "--pattern", str(bad), *extra, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"turangap {command}: ") and why in err
    assert not out.exists()


def test_fractional_pattern_size_is_usage_error(tmp_path, capsys):
    # "r": 3.9 must not be truncated to 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**WORKED, "r": 3.9}))
    out = tmp_path / "out"
    assert dispatch(["lagrangian", "--pattern", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("turangap lagrangian: malformed pattern object")
    assert not out.exists()


def test_fractional_downset_member_is_usage_error(tmp_path, capsys):
    # a member [2.7, 1] must not be truncated to (2, 1)
    bad = tmp_path / "down.json"
    bad.write_text(json.dumps({"r": 3, "s": 2, "members": [[2.7, 1]]}))
    out = tmp_path / "out"
    code = dispatch(["lemma-check", "--r", "3", "--s", "2", "--downset", str(bad),
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("turangap lemma-check: malformed down-set object")
    assert not out.exists()


@pytest.mark.parametrize("command,extra", [("lagrangian", []),
                                           ("blow-up", ["--sizes", "1,1,1"])])
@pytest.mark.parametrize("obj", [{"r": 3, "m": True, "multisets": [[1, 1, 1]]},
                                 {"r": True, "m": 3, "multisets": [[1]]}],
                         ids=["m", "r"])
def test_boolean_pattern_size_is_usage_error(tmp_path, capsys, command, extra, obj):
    # JSON true is no integer, though Python counts it as 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "out"
    code = dispatch([command, "--pattern", str(bad), *extra, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"turangap {command}: malformed pattern object")
    assert not out.exists()


@pytest.mark.parametrize("obj", [{"r": 3, "s": 2, "members": [[2, True]]},
                                 {"r": 3, "s": True, "members": [[3]]},
                                 {"r": True, "s": 2, "members": []}],
                         ids=["member", "s", "r"])
def test_boolean_in_downset_file_is_usage_error(tmp_path, capsys, obj):
    bad = tmp_path / "down.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "out"
    flags = ["--r", str(int(obj["r"])), "--s", str(int(obj["s"]))]
    code = dispatch(["lemma-check", *flags, "--downset", str(bad), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("turangap lemma-check: malformed down-set object")
    assert not out.exists()


def test_pattern_roundtrip_through_cli(tmp_path):
    # a pattern serialized by the library is accepted by the CLI
    path = tmp_path / "single.json"
    path.write_text(json.dumps(pattern_to_dict(simple_pattern(3, 3, [(1, 2, 3)]))))
    code = dispatch(
        ["lagrangian", "--pattern", str(path), "--format", "json",
         "--out", str(tmp_path)]
    )
    assert code == 0
    primaries, _ = _artifacts(tmp_path, "lagrangian-")
    cert = json.loads(primaries[0].read_text())
    assert abs(cert["value"] - 6 / 27) < 1e-9


# exact-Fraction outputs whose params hold no file path: names and bytes are
# platform independent, and each name pins the content address
PINNED = {
    ("ladder", "--r", "4"): {
        "csv": ("ladder-c01f9b422f17.csv",
                "5df58301aadaeffed54688f029723aa642920afbc766bf5d96db2b605f4011c6"),
        "json": ("ladder-8550687cd69c.json",
                 "cd87fd73a5ce1b00409efe8b3904b2f30dd3f0f9cd7c8c72a3699011762b80b9"),
    },
    ("max-step", "--r", "6"): {
        "csv": ("max-step-696f14d6bc8f.csv",
                "45805e71012c8b7e0190fb808d979d470e0ffe9c615c75e6f0607f40abd3b3fa"),
        "json": ("max-step-50eb37c6924e.json",
                 "df37fdd6fd0b0118884e6548d947989abab3c3827f56ce139cc0d14fc65664d9"),
    },
    ("bunching", "--r", "4", "--h", "1"): {
        "csv": ("bunching-17362bd70ee6.csv",
                "d58a75d7bed7f38517ce3511a5d8a4d5d3c70df1a0c911457c4b549d020902c2"),
        "json": ("bunching-68e79347c3d0.json",
                 "75935c1d821d94c2924b1a0d03b6566185ef51dbe44047b99fc242c1cdae0c08"),
    },
    ("bunching", "--r", "3", "--h", "3/2"): {
        "csv": ("bunching-6a343fae0e69.csv",
                "c99c3f43c050c53dedc32ffdbc9f67a1838df15c239b6782531b9e8e7446e305"),
        "json": ("bunching-a3d5e69cfc39.json",
                 "df6d2513ce06720f8ee0bc180f378c125f1443f23a11998e04f66edfa55e658f"),
    },
    ("minimal-m", "--r", "3"): {
        "csv": ("minimal-m-d235ff75d77a.csv",
                "acbda759388406932b4e0bd4132d4f2d176a69ff601213446361979094a00f51"),
        "json": ("minimal-m-0df2fac7ae62.json",
                 "40ecd3c10b2ea9311d178aa5a119c7af21b8844773f665586b9d68c859d0ecad"),
    },
}


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_artifacts_are_pinned(tmp_path, argv, fmt):
    assert dispatch(list(argv) + ["--format", fmt, "--out", str(tmp_path)]) == 0
    primaries, manifests = _artifacts(tmp_path, argv[0] + "-")
    name, digest = PINNED[argv][fmt]
    assert [p.name for p in primaries] == [name]
    assert hashlib.sha256(primaries[0].read_bytes()).hexdigest() == digest
    assert json.loads(manifests[0].read_text())["outputs"] == [name]


def _fresh_interpreter(tmp_path, script, blas_threads=None):
    """Run script in one fresh interpreter on this source tree, with
    OPENBLAS_NUM_THREADS set to blas_threads or unset, and return the last
    line it printed."""
    src = str(Path(turangap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def _loads_numpy_random(tmp_path, *argvs):
    """Run each argv through dispatch in a fresh interpreter, each exiting 0,
    and say whether that imported numpy.random."""
    script = ("import sys\nfrom turangap.cli import dispatch\n"
              f"assert [dispatch(a) for a in {argvs!r}] == [0] * {len(argvs)}\n"
              "print('numpy.random' in sys.modules)")
    return _fresh_interpreter(tmp_path, script) == "True"


def test_only_monte_carlo_loads_numpy_random(tmp_path, pattern_file):
    # the optimizer's starts and the bunching samples come from random.Random
    out = ["--out", str(tmp_path)]
    assert not _loads_numpy_random(
        tmp_path,
        ["lemma-check", "--all-downsets", "--r", "3", "--s", "3"] + out,
        ["bunching", "--r", "4", "--h", "1"] + out,
        ["lagrangian", "--pattern", pattern_file] + out,
    )
    assert _loads_numpy_random(tmp_path, ["ladder", "--r", "4", "--mc-trials", "1000"] + out)


def test_bare_package_import_loads_no_numpy(tmp_path):
    assert _fresh_interpreter(
        tmp_path, "import sys, turangap\nprint('numpy' in sys.modules)") == "False"


# the thread count is read from /proc where it exists; elsewhere it prints as None
_BLAS_PIN = ("import os, sys\n{first}import turangap.cli\n"
             "tasks = '/proc/self/task'\n"
             "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), threads)")


def test_cli_import_runs_openblas_on_one_thread(tmp_path):
    pinned, threads = _fresh_interpreter(tmp_path, _BLAS_PIN.format(first="")).split()
    assert pinned == "1"
    assert threads in ("1", "None")


def test_cli_import_keeps_a_preset_blas_thread_count(tmp_path):
    line = _fresh_interpreter(tmp_path, _BLAS_PIN.format(first=""), blas_threads="2")
    assert line.split()[0] == "2"


def test_cli_import_after_numpy_leaves_the_blas_thread_count_unset(tmp_path):
    # numpy has read the variable already, so setting it would only reach child processes
    line = _fresh_interpreter(tmp_path, _BLAS_PIN.format(first="import numpy\n"))
    assert line.split()[0] == "None"


def test_partition_counts_count_the_compositions():
    for r in range(13):
        for s in range(1, 14):
            counts = list(turangap.cli._partition_counts(r, s))
            assert counts[-1] == len(compositions(r, s))
            if s > 1:  # for s = 1 the one count, 1, stands for every n
                assert counts == [len(compositions(n, s)) for n in range(r + 1)]


# each small case, its work function, and its size: C(5, 3) edges, p(4)
# partitions, and the four compositions 4, 31, 22, 211 of 4 into at most 3 parts
SIZED = [
    (["chain", "--r", "3", "--m", "5"], "_MAX_CHAIN_EDGES", "build_chain_ladder", 10,
     "the 3-sets on 5 vertices"),
    (["ladder", "--r", "4"], "_MAX_LADDER_PARTITIONS", "ladder", 5, "the partitions of r=4"),
    (["max-step", "--r", "4"], "_MAX_LADDER_PARTITIONS", "max_step", 5,
     "the partitions of r=4"),
    (["lemma-check", "--all-downsets", "--r", "4", "--s", "3"], "_MAX_LEMMA_COMPOSITIONS",
     "iter_down_sets", 4, "the compositions of r=4 into at most s=3 parts"),
]


@pytest.mark.parametrize("argv,cap,work,size,what", SIZED, ids=[a[0][0] for a in SIZED])
@pytest.mark.parametrize("over", [False, True])
def test_input_size_is_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, cap,
                                              work, size, what, over):
    # at the cap the command runs; one below it, it exits 2 before its work starts
    real, calls = getattr(turangap.cli, work), []
    monkeypatch.setattr(f"turangap.cli.{cap}", size - over)
    monkeypatch.setattr(f"turangap.cli.{work}",
                        lambda *a: calls.append(a) or real(*a))
    assert dispatch(argv + ["--out", str(tmp_path)]) == (2 if over else 0)
    assert len(calls) == (not over)
    if over:
        assert capsys.readouterr().err == (
            f"turangap {argv[0]}: {what} number more than {size - 1}\n")
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,work", [
    (["chain", "--r", "6", "--m", "12"], "build_chain_ladder"),  # 924 edges
    (["ladder", "--r", "54"], "ladder"),  # 386155 partitions
    (["max-step", "--r", "54"], "max_step"),
    (["lemma-check", "--all-downsets", "--r", "8", "--s", "8"], "iter_down_sets"),  # 22
    (["lemma-check", "--all-downsets", "--r", "43", "--s", "2"], "iter_down_sets"),  # 22
])
def test_largest_accepted_sizes_reach_their_work(tmp_path, capsys, monkeypatch, argv, work):
    # the stand-in stops the run where the work would start, so no large size runs
    def stand_in(*args):
        raise ValueError("work reached")
    monkeypatch.setattr(f"turangap.cli.{work}", stand_in)
    assert dispatch(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"turangap {argv[0]}: work reached\n"


@pytest.mark.parametrize("argv,message", [
    (["chain", "--r", "6", "--m", "13"], "the 6-sets on 13 vertices number more than 1000"),
    (["chain", "--r", "5", "--m", "1000000000"],
     "the 5-sets on 1000000000 vertices number more than 1000"),
    (["chain", "--r", "500000000", "--m", "1000000000"],
     "the 500000000-sets on 1000000000 vertices number more than 1000"),
    (["ladder", "--r", "55"], "the partitions of r=55 number more than 400000"),
    (["max-step", "--r", "1000000000"],
     "the partitions of r=1000000000 number more than 400000"),
    (["lemma-check", "--all-downsets", "--r", "9", "--s", "9"],
     "the compositions of r=9 into at most s=9 parts number more than 22"),
    (["lemma-check", "--all-downsets", "--r", "1000000000", "--s", "2"],
     "the compositions of r=1000000000 into at most s=2 parts number more than 22"),
])
def test_inputs_past_the_size_limits_are_usage_errors(tmp_path, capsys, monkeypatch, argv,
                                                      message):
    for work in ("build_chain_ladder", "ladder", "max_step", "iter_down_sets"):
        monkeypatch.setattr(f"turangap.cli.{work}", lambda *a: pytest.fail("work started"))
    assert dispatch(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"turangap {argv[0]}: {message}\n"
