import argparse
import csv
import gc
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_sphere import cli, oracle

# A numpy RuntimeWarning (a division by zero, an invalid value) on a CLI path
# is a defect even when the command exits 0.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def model2_doc(**over):
    doc = {
        "model": 2,
        "R": 1.0,
        "k": 2.0,
        "levels": 3,
        "grid": {"L": 12.0, "N": 4001},
        "model2": {"sign_a": "-", "sign_b": "+"},
    }
    doc.update(over)
    return doc


def model1_doc(**over):
    doc = {
        "model": 1,
        "R": 1.0,
        "k": 2.0,
        "levels": 4,
        "grid": {"L": 8.0, "N": 1201},
        "model1": {"C1": 0.4, "branch": "half-up"},
    }
    doc.update(over)
    return doc


def example_config(name):
    return os.path.join(os.path.dirname(__file__), "..", "examples", name)


def child_env():
    """The environment for a child interpreter that imports this package's source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------ config


def test_missing_r_exits_1_writes_nothing(tmp_path):
    doc = model2_doc()
    del doc["R"]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, model2_doc(extra_knob=1))
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    cfg = write_config(tmp_path, model2_doc(model2={"sign_a": "-", "sgn_b": "+"}))
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    cfg = write_config(tmp_path, model2_doc(corrupt_forced=True))  # not a config key
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "model": 2,\n  oops\n}', encoding="utf-8")
    assert cli.main(["spectrum", "--config", str(path)]) == 1
    assert "line" in capsys.readouterr().err


def test_mixed_branch_spec_rejected(tmp_path):
    doc = model2_doc(model2={"sign_a": "-", "alpha": 1.0, "beta": 1 / 3})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_nonphysical_construction_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, model1_doc(model1={"C1": 0.6, "branch": "half-up"}))
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    # C1 = 0 gives s = 0, so the level-0 denominator s - n vanishes
    cfg = write_config(tmp_path, model1_doc(model1={"C1": 0.0, "branch": "half-up"}))
    for command in ("spectrum", "verify", "wavefunction"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2, command
        assert "construction error" in capsys.readouterr().err, command


# ------------------------------------------------------------ spectrum


def test_spectrum_model2_values(tmp_path):
    cfg = write_config(tmp_path, model2_doc())
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["level", "E_sq_bar", "E_minus", "E_plus", "physical", "reason", "norm_divergence"]
    assert len(rows) == 3
    assert float(rows[0][3]) == pytest.approx(math.sqrt(113 / 75), abs=1e-12)
    assert float(rows[1][3]) == pytest.approx(2.2, abs=1e-12)
    assert all(r[4] == "true" for r in rows)


def test_spectrum_model2_pole_branch_divergent_norm(tmp_path):
    # (+, -) at k = 0.5 puts the envelope pole inside the sphere: every level
    # of the table has a divergent norm, which verify (exit 2) also refuses
    pole = {"model": 2, "R": 1, "k": 0.5, "model2": {"sign_a": "+", "sign_b": "-"}}
    cfg = write_config(tmp_path, pole)
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 4
    assert all(r[4] == "false" and r[5] == "divergent-norm" for r in rows)
    # the README's Model-II default config stays physical on every level
    example = example_config("model2.json")
    out = tmp_path / "example"
    assert cli.main(["spectrum", "--config", example, "--out", str(out)]) == 0
    _, rows = read_csv(out / "spectrum.csv")
    assert rows and all(r[4] == "true" and r[5] == "" for r in rows)


@pytest.mark.parametrize(
    "doc, divergent",
    [
        (model1_doc(), True),
        ({"model": 2, "R": 1, "k": 0.5, "model2": {"sign_a": "+", "sign_b": "-"}}, True),
        (model2_doc(), False),
        # alpha <= -1 has no printed eigenfunction record, but a spectrum
        (model2_doc(model2={"alpha": -1.5, "beta": 0.5}), True),
    ],
    ids=["model1", "model2-pole", "model2-regular", "model2-alpha-below-minus-one"],
)
def test_spectrum_names_why_a_norm_diverges(tmp_path, doc, divergent):
    # the norm_divergence column is the reason the printed eigenfunction's
    # norm diverges (its norm_reason), quoted where it holds a comma, and
    # empty where the norm is finite; reason keeps its one word
    cfg = write_config(tmp_path, doc)
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header[-2:] == ["reason", "norm_divergence"] and all(len(r) == len(header) for r in rows)
    assert all((r[6] != "") == divergent and (r[5] == "divergent-norm") <= divergent for r in rows)
    c = cli.parse_config(doc)
    spec = oracle.model_spec(c.params(), c.k, c.R)
    for r in rows:
        assert r[6] == (spec.printed(int(r[0])).norm_reason or "")
        if "alpha" not in doc.get("model2", {}):
            for _, wavefunction in spec.eigenfunctions.values():
                assert r[6] == (wavefunction(int(r[0])).norm_reason or "")
    if doc["model"] == 2 and doc["k"] == 0.5:
        assert all("vanishes at t = -0.5" in r[6] and "in [-1, 1]:" in r[6] for r in rows)
        assert ',"denominator alpha' in (tmp_path / "spectrum.csv").read_text()


def test_spectrum_model1_fig1_nonphysical(tmp_path):
    cfg = write_config(tmp_path, model1_doc())
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 4
    assert all(r[4] == "false" for r in rows)
    assert all(r[5] == "negative-radicand" for r in rows)
    assert rows[0][2] == "nan" and rows[0][3] == "nan"
    assert float(rows[0][1]) == pytest.approx(-4.34, abs=1e-12)


# ------------------------------------------------------------ potential


def test_potential_model1_asymptotes(tmp_path):
    cfg = write_config(tmp_path, model1_doc())
    assert cli.main(["potential", "--config", cfg, "--which", "A_u", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "potential_a_u.csv")
    vals = [(float(w), float(v)) for w, v in rows]
    assert vals[0][1] == pytest.approx(2.5, abs=1e-4)   # C3 - C2
    assert vals[-1][1] == pytest.approx(3.5, abs=1e-4)  # C3 + C2
    assert all(math.isfinite(v) for _, v in vals)


def test_potential_singular_branch_gap_marker(tmp_path):
    # potential and wavefunction share one curve writer: the profile and the
    # eigenfunction envelope have their pole at the same tanh w = -1/2
    doc = model2_doc(model2={"C1": 0.5, "alpha": 1.0, "beta": -1 / 3}, grid={"L": 6.0, "N": 801})
    cfg = write_config(tmp_path, doc)
    for args, stem in (
        (["potential", "--which", "A_u"], "potential_a_u"),
        (["wavefunction", "--level", "1"], "wavefunction_l1_classical"),
    ):
        assert cli.main(args + ["--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / f"{stem}.csv")
        ws = [float(r[0]) for r in rows]
        assert ws == sorted(ws) and len(rows) == 802, stem
        gap = [r for r in rows if r[1] == "nan"]
        assert len(gap) == 1, stem
        assert float(gap[0][0]) == pytest.approx(math.atanh(-0.5), rel=1e-12)
        side = json.loads((tmp_path / f"{stem}_poles.json").read_text())
        assert side["poles_w"][0] == pytest.approx(math.atanh(-0.5), rel=1e-12)


def test_curve_with_a_node_on_the_pole(tmp_path):
    # a2 = alpha + beta = 0 puts the Model-II pole at w = 0, grid node 401 of
    # 801: each curve drops that node, and the pole's gap marker stands for it
    doc = {"model": 2, "R": 1, "k": 2, "levels": 2, "grid": {"L": 6, "N": 801},
           "model2": {"C1": 0.5, "alpha": 0.5, "beta": -0.5}}
    cfg = write_config(tmp_path, doc)
    for args, stem in (
        (["potential", "--which", "A_u"], "potential_a_u"),
        (["potential", "--which", "Veff1"], "potential_veff1"),
        (["potential", "--which", "Veff2"], "potential_veff2"),
        (["wavefunction", "--level", "1"], "wavefunction_l1_classical"),
        (["wavefunction", "--level", "1", "--polynomial", "x1"], "wavefunction_l1_x1"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(args + ["--config", cfg, "--out", str(tmp_path)]) == 0, stem
        assert not caught, (stem, [str(c.message) for c in caught])
        _, rows = read_csv(tmp_path / f"{stem}.csv")
        assert len(rows) == 801, stem  # 800 nodes and the gap marker
        assert [r for r in rows if r[1] == "nan"] == [["-0.0", "nan"]], stem
        ws = [float(r[0]) for r in rows]
        assert ws == sorted(ws) and ws.count(0.0) == 1, stem
        assert all(math.isfinite(float(v)) for _, v in rows if v != "nan"), stem


def test_potential_veff1_bounded_for_model1(tmp_path):
    cfg = write_config(tmp_path, model1_doc())
    assert cli.main(["potential", "--config", cfg, "--which", "Veff1", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "potential_veff1.csv")
    vals = [float(v) for _, v in rows]
    assert max(map(abs, vals)) < 10.0  # finite asymptotes, no growth


# ------------------------------------------------------------ wavefunction


def test_wavefunction_model2_both_variants(tmp_path):
    cfg = write_config(tmp_path, model2_doc(grid={"L": 8.0, "N": 801}))
    for poly in ("classical", "x1"):
        code = cli.main(
            ["wavefunction", "--config", cfg, "--level", "0", "--polynomial", poly,
             "--out", str(tmp_path)]
        )
        assert code == 0
        _, rows = read_csv(tmp_path / f"wavefunction_l0_{poly}.csv")
        vals = [float(v) for _, v in rows]
        assert all(math.isfinite(v) for v in vals)
        assert max(map(abs, vals)) > 0.1  # normalized, O(1) peak


@pytest.mark.parametrize(
    "example, polynomial, stem",
    [
        ("model1.json", "classical", "wavefunction_l0"),
        ("model2.json", "classical", "wavefunction_l0_classical"),
        ("model2.json", "x1", "wavefunction_l0_x1"),
    ],
)
def test_wavefunction_norm_sidecar(tmp_path, example, polynomial, stem):
    # every wavefunction curve says whether it is normalized and how the norm
    # was decided; Model I as printed is raw, with the analytic reason
    code = cli.main(["wavefunction", "--config", example_config(example),
                     "--polynomial", polynomial, "--out", str(tmp_path)])
    assert code == 0
    side = json.loads((tmp_path / f"{stem}_norm.json").read_text(encoding="utf-8"))
    cfg = cli.parse_config(cli._read_config(example_config(example)))
    wf = oracle.model_spec(cfg.params(), cfg.k, cfg.R).eigenfunctions[polynomial][1](0)
    assert side == {"normalized": wf.norm_finite, **wf.norm_details()}
    if example == "model1.json":
        assert list(side) == ["normalized", "norm_divergence"] and side["normalized"] is False
        assert "not integrable" in side["norm_divergence"]
    else:
        assert list(side) == ["normalized", "norm_rule", "norm_nodes"] and side["normalized"] is True
        assert side["norm_rule"].startswith("gauss-jacobi") and side["norm_nodes"] > 0


def test_wavefunction_model1_rejects_x1(tmp_path, capsys):
    # Model I has one eigenfunction reading; asking for the X1 one is a
    # config error, not a silent classical curve
    cfg = write_config(tmp_path, model1_doc())
    out = tmp_path / "out"
    code = cli.main(["wavefunction", "--config", cfg, "--polynomial", "x1", "--out", str(out)])
    assert code == 1
    assert "'x1'" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ verify


def test_verify_report_structure_and_exit(tmp_path):
    cfg = write_config(tmp_path, model2_doc(grid={"L": 12.0, "N": 4001}))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify_model2.json").read_text())
    claims = doc["report"]["claims"]
    assert len(claims) >= 7
    ids = [c["claim_id"] for c in claims]
    for family in ("f.", "a.", "b.", "c.", "d.", "e.", "g."):
        assert any(i.startswith(family) for i in ids), family
    assert any(i.startswith("d.eigenfunction.classical") for i in ids)
    assert any(i.startswith("d.eigenfunction.x1") for i in ids)
    for c in claims:
        assert c["verdict"] in ("pass", "fail", "recorded")
        if c["claim_id"].startswith("f."):
            assert c["verdict"] == "pass"
        if c["verdict"] == "recorded":
            assert math.isfinite(c["metric"])
        if c["claim_id"].startswith("c."):
            # the Galerkin oracle's grid is its basis size
            assert list(c["grid"]) == ["n"] and c["grid"]["n"] == c["details"]["n"]
        elif c["claim_id"].startswith("e."):
            # the larger of the two components' basis sizes
            assert c["grid"] == {"n": max(c["details"]["n"])}
        elif c["claim_id"].startswith("d."):
            # the residual window and its quadrature nodes, not the config grid
            assert c["grid"] == {"w_lo": -8.0, "w_hi": 8.0, "nodes": c["details"]["nodes"]}
        else:
            assert "L" in c["grid"] or "w_lo" in c["grid"]
    assert "grid" not in doc["config"]


def test_verify_strict_corrupt_exits_3(tmp_path, forced_fault):
    doc = model2_doc(grid={"L": 8.0, "N": 1201})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert cli.main(["verify", "--config", cfg, "--strict", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("example", ["model1.json", "model2.json"])
def test_spectrum_table_matches_verify_closed_form(tmp_path, example):
    # both commands read the printed levels from one model spec, so the table
    # and the report's c.* claims carry the same floats
    cfg = example_config(example)
    for command in ("spectrum", "verify"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    report = json.loads(next(tmp_path.glob("verify_model*.json")).read_text())
    closed = {
        c["claim_id"]: c["details"]["closed_form"]
        for c in report["report"]["claims"]
        if c["claim_id"].startswith("c.spectrum.m")
    }
    assert len(closed) == len(rows) == 4
    for row in rows:
        assert float(row[1]) == closed[f"c.spectrum.m{row[0]}"]


def test_verify_round_trip_bit_identical(tmp_path):
    cfg = write_config(tmp_path, model1_doc(grid={"L": 8.0, "N": 1201}, levels=2))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "verify_model1.json").read_bytes()
    b2 = (out2 / "verify_model1.json").read_bytes()
    assert b1 == b2


def test_verify_model1_past_tanh_saturation(tmp_path, capsys):
    # the printed Model-I envelope (1 - t)^s, s < 0, is infinite once tanh w
    # rounds to 1 (w > 18.99); verify reads no grid (the d.* residuals
    # integrate over |w| <= 8), so a config grid past that point changes
    # nothing, and verify refuses a grid flag as a flag it never reads
    out = tmp_path / "out"
    for flag in (["--grid-L", "20"], ["--grid-N", "101"]):
        assert cli.main(["verify", "--config", example_config("model1.json"), *flag, "--out", str(out)]) == 1
        assert flag[0] in capsys.readouterr().err
    assert not out.exists()
    reports = []
    for L in (12.0, 20.0):
        cfg = write_config(tmp_path, model1_doc(grid={"L": L, "N": 4001}))
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / str(L))]) == 0
        reports.append((tmp_path / str(L) / "verify_model1.json").read_bytes())
    assert reports[0] == reports[1]
    claims = json.loads(reports[1])["report"]["claims"]
    assert all(math.isfinite(c["metric"]) for c in claims)
    forced = [c["verdict"] for c in claims if c["claim_id"].startswith("f.")]
    assert forced == ["pass", "pass"]


@pytest.mark.parametrize(
    "args, err",
    [
        # cosh^2 overflows from |w| ~ 355.6
        (["potential", "--which", "Veff2", "--grid-L", "800", "--grid-N", "11"],
         "curve sample is not finite at w = -666.6666666666666"),
        (["wavefunction", "--grid-L", "20", "--grid-N", "41"],
         "curve sample is not finite at w = 19.047619047619044"),
    ],
    ids=["potential", "wavefunction"],
)
def test_sample_not_finite_exits_2_writes_nothing(tmp_path, capsys, args, err):
    # a sample that is not finite is refused, never written as a data row
    # (`nan` is the pole marker), whatever the warnings filter
    out = tmp_path / "out"
    code = cli.main([args[0], "--config", example_config("model1.json"), *args[1:],
                     "--out", str(out)])
    assert code == 2
    assert err in capsys.readouterr().err
    assert not out.exists()


def test_verify_singular_branch_exits_2(tmp_path):
    doc = model2_doc(model2={"C1": 0.5, "alpha": 1.0, "beta": -1 / 3}, grid={"L": 6.0, "N": 801})
    cfg = write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2


# ------------------------------------------------------------ figures


def test_figures_fig1_exactly_four_files(tmp_path):
    assert cli.main(["figures", "fig1", "--out", str(tmp_path)]) == 0
    files = sorted(os.listdir(tmp_path / "fig1"))
    assert files == ["a_u.csv", "spectrum.csv", "veff1.csv", "veff2.csv"]
    # deterministic across reruns
    first = {f: (tmp_path / "fig1" / f).read_bytes() for f in files}
    assert cli.main(["figures", "fig1", "--out", str(tmp_path)]) == 0
    for f in files:
        assert (tmp_path / "fig1" / f).read_bytes() == first[f]


def test_figures_fig1_writes_no_nonfinite_row(tmp_path, capsys):
    # veff2 overflows on this grid: the command exits 2 and leaves no file,
    # neither the curves it wrote before veff2 nor its temporary directory
    assert cli.main(["figures", "fig1", "--grid-L", "800", "--grid-N", "11",
                     "--out", str(tmp_path)]) == 2
    assert "curve sample is not finite at w = " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_figures_refused_run_keeps_an_earlier_set(tmp_path):
    # a refused run neither removes nor half-replaces a complete earlier set,
    # and a later complete run replaces only the files of the set
    assert cli.main(["figures", "fig1", "--out", str(tmp_path)]) == 0
    d = tmp_path / "fig1"
    first = {f: (d / f).read_bytes() for f in os.listdir(d)}
    (d / "notes.txt").write_text("mine\n")
    assert cli.main(["figures", "fig1", "--grid-L", "800", "--grid-N", "11",
                     "--out", str(tmp_path)]) == 2
    assert sorted(os.listdir(tmp_path)) == ["fig1"]
    assert {f: (d / f).read_bytes() for f in first} == first
    assert cli.main(["figures", "fig1", "--grid-L", "5", "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(d)) == sorted([*first, "notes.txt"])
    assert (d / "a_u.csv").read_bytes() != first["a_u.csv"]


def test_figures_fig1_spectrum_at_large_wavenumber(tmp_path):
    assert cli.main(["figures", "fig1", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "fig1" / "spectrum.csv")
    assert len(rows) == 6
    # radicand criterion at k = 200 with C3 = k + 1: all levels non-physical
    assert all(r[4] == "false" for r in rows)


def test_figures_rejects_config_writes_nothing(tmp_path, capsys):
    # the figure documents are fixed; a config would be silently ignored, so
    # figures does not take one
    out = tmp_path / "out"
    cfg = write_config(tmp_path, model1_doc(k=3.0, model1={"C1": 0.1, "branch": "neg-half"}))
    assert cli.main(["figures", "fig1", "--config", cfg, "--out", str(out)]) == 1
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


def test_figures_fig2_files_and_note(tmp_path):
    assert cli.main(["figures", "fig2", "--out", str(tmp_path)]) == 0
    files = sorted(os.listdir(tmp_path / "fig2"))
    assert files == ["a_u.csv", "provenance.txt", "spectrum.csv", "veff1.csv", "veff2.csv"]
    note = (tmp_path / "fig2" / "provenance.txt").read_text()
    assert "no parameter values" in note
    _, rows = read_csv(tmp_path / "fig2" / "spectrum.csv")
    assert float(rows[1][3]) == pytest.approx(2.2, abs=1e-12)
    # the nonsingular default branch: every curve finite, no gap markers
    for f in ("a_u.csv", "veff1.csv", "veff2.csv"):
        _, crows = read_csv(tmp_path / "fig2" / f)
        assert all(v != "nan" for _, v in crows)


@pytest.mark.parametrize(
    "args, out",
    [
        (["verify", "--config", example_config("model1.json")], "taken"),
        (["spectrum", "--config", example_config("model1.json")], os.path.join("taken", "sub")),
        (["figures", "fig1"], "taken"),
        (["figures", "fig2"], "sets"),  # sets/fig2 is the file
    ],
    ids=["verify-out-is-a-file", "spectrum-out-under-a-file", "figures-out-is-a-file", "figures-set-is-a-file"],
)
def test_unwritable_output_path_exits_1_writes_nothing(tmp_path, capsys, args, out):
    # an output directory that is a file, or lies under one, is a config
    # error: one stderr line naming the path and the OS error, and neither a
    # file nor a temporary one is left
    (tmp_path / "taken").write_text("mine\n")
    (tmp_path / "sets").mkdir()
    (tmp_path / "sets" / "fig2").write_text("mine\n")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(args + ["--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"config error: cannot write {tmp_path / out}")
    assert "[Errno " in captured.err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "taken").read_text() == "mine\n"


@pytest.mark.parametrize(
    "args, sidecar",
    [
        (["wavefunction", "--config", example_config("model1.json")], "wavefunction_l0_norm.json"),
        (["potential", "--config", example_config("model2_pole.json"), "--which", "A_u"], "potential_a_u_poles.json"),
    ],
    ids=["wavefunction-norm", "potential-poles"],
)
def test_unwritable_sidecar_writes_no_curve(tmp_path, capsys, args, sidecar):
    # a curve and its sidecar are one set: when the sidecar path cannot be
    # written (here an existing directory), the command exits 1 and leaves
    # neither the curve nor a temporary file
    (tmp_path / sidecar).mkdir()
    assert cli.main(args + ["--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write {tmp_path / sidecar}")
    assert sorted(os.listdir(tmp_path)) == [sidecar]
    assert not os.listdir(tmp_path / sidecar)


def test_env_var_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("DIRAC_SPHERE_OUT", str(tmp_path / "envout"))
    cfg = write_config(tmp_path, model2_doc(grid={"L": 6.0, "N": 401}, levels=2))
    assert cli.main(["spectrum", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "spectrum.csv").exists()


def test_cli_overrides(tmp_path):
    cfg = write_config(tmp_path, model2_doc(grid={"L": 6.0, "N": 401}))
    assert cli.main(["spectrum", "--config", cfg, "--levels", "5", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 5


@pytest.mark.parametrize("command", ["spectrum", "potential", "wavefunction", "verify"])
@pytest.mark.parametrize(
    "flag",
    [("--grid-L", "inf"), ("--grid-L", "-1"), ("--grid-L", "nan"), ("--grid-N", "2"), ("--k", "nan")],
    ids=["L-inf", "L-negative", "L-nan", "N-2", "k-nan"],
)
def test_invalid_override_exits_1_writes_nothing(tmp_path, command, flag):
    # overrides obey the config-file rules: finite numbers, L > 0, N >= 3
    cfg = write_config(tmp_path, model1_doc())
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, *flag, "--out", str(out)]) == 1
    assert not out.exists()


_IGNORED_FLAGS = [
    ("spectrum", ["--grid-L", "6"]),
    ("spectrum", ["--grid-N", "401"]),
    ("verify", ["--grid-L", "6"]),
    ("verify", ["--grid-N", "401"]),
    ("spectrum", ["--strict"]),
    ("potential", ["--levels", "9"]),
    ("potential", ["--strict"]),
    ("wavefunction", ["--levels", "9"]),
    ("wavefunction", ["--strict"]),
    ("figures", ["--strict"]),
]


@pytest.mark.parametrize(
    "command, flag", _IGNORED_FLAGS, ids=[f"{command}{flag[0]}" for command, flag in _IGNORED_FLAGS]
)
def test_flag_the_command_ignores_exits_1_writes_nothing(tmp_path, command, flag, capsys):
    # each command declares only the overrides whose settings it reads; a flag
    # it would ignore is refused, as figures refuses --config
    out = tmp_path / "out"
    args = ["fig1"] if command == "figures" else ["--config", example_config("model1.json")]
    assert cli.main([command, *args, *flag, "--out", str(out)]) == 1
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


def test_flag_prefix_is_not_matched(tmp_path):
    # a flag is never read as a longer one it abbreviates: spectrum has no
    # --level, and it is not its --levels
    out = tmp_path / "out"
    cfg = example_config("model1.json")
    assert cli.main(["spectrum", "--config", cfg, "--level", "2", "--out", str(out)]) == 1
    assert cli.main(["verify", "--config", cfg, "--lev", "2", "--out", str(out)]) == 1
    assert cli.main(["spectrum", "--conf", cfg, "--out", str(out)]) == 1
    assert not out.exists()


def test_csv_line_endings_lf(tmp_path):
    cfg = write_config(tmp_path, model2_doc(grid={"L": 6.0, "N": 401}, levels=2))
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "spectrum.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_usage_error_exits_1(capsys):
    cfg = example_config("model1.json")
    for argv, err in [
        ([], "the following arguments are required: command"),
        (["spectrum", "--bogus-flag"], "the following arguments are required: --config"),
        (["verify", "--config", cfg, "--lev", "2"], "unrecognized arguments: --lev 2"),
    ]:
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"config error: {err}\n", argv
    # a command no parser names is refused with the full listing (whose
    # quoting varies across Python versions)
    assert cli.main(["bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: argument command: invalid choice: 'bogus' (choose from ")
    assert [err.index(name) for name in cli._COMMANDS] == sorted(err.index(name) for name in cli._COMMANDS)


# each command's flags, in declaration order: 28 slots
_COMMAND_FLAGS = {
    "spectrum": ["--config", "--out", "--k", "--levels"],
    "potential": ["--config", "--out", "--k", "--grid-L", "--grid-N", "--which"],
    "wavefunction": ["--config", "--out", "--k", "--grid-L", "--grid-N", "--level", "--polynomial"],
    "verify": ["--config", "--out", "--k", "--levels", "--strict"],
    "figures": ["--out", "--k", "--levels", "--grid-L", "--grid-N", "which"],
}


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_parser_is_built_for_the_named_command_alone(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = _subparsers(cli._parser([]))
    assert list(full) == list(_COMMAND_FLAGS)
    for name, flags in _COMMAND_FLAGS.items():
        built = _subparsers(cli._parser([name, "--out", "x"]))
        assert list(built) == [name]
        alone = built[name]
        assert alone.format_help() == full[name].format_help(), name
        declared = [a.option_strings[0] if a.option_strings else a.dest for a in alone._actions]
        assert declared == ["-h"] + flags, name
    # an argument list that names no command, a top-level flag first, gets every command
    assert list(_subparsers(cli._parser(["--help", "verify"]))) == list(_COMMAND_FLAGS)


_json_leaves = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**63, max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
    | st.text() | st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\n\t\x7f", "é✓😀 "])
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_text_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, allow_nan=True)


def test_json_text_refuses_what_it_does_not_write():
    # json.dumps refuses the first three too, but writes a number key as a string
    for value in (np.int64(1), np.bool_(True), {1, 2}, {1: "a"}, [{"a": {2.5: None}}]):
        with pytest.raises(TypeError):
            cli._json_text(value)


def test_written_json_is_json_dumps_text(tmp_path):
    # every JSON file a command writes reads back to the text json.dumps writes
    for stem in ("model1", "model2", "model2_pole"):
        cfg, out = example_config(f"{stem}.json"), tmp_path / stem
        commands = [["wavefunction", "--level", "1"], ["potential", "--which", "A_u"]]
        if stem != "model2_pole":
            commands.append(["verify"])
        for args in commands:
            assert cli.main([args[0], "--config", cfg, *args[1:], "--out", str(out)]) == 0
    written = sorted(tmp_path.rglob("*.json"))
    names = {p.name for p in written}
    assert {"verify_model1.json", "verify_model2.json", "wavefunction_l1_norm.json",
            "wavefunction_l1_classical_poles.json", "potential_a_u_poles.json"} <= names, names
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, allow_nan=True) + "\n", path


def test_console_entry_point(tmp_path, monkeypatch):

    def entry(*args, out):
        return subprocess.run(
            [sys.executable, "-m", "dirac_sphere.cli", *args, "--out", str(out)],
            capture_output=True, text=True, env=child_env(),
        ).returncode

    assert entry("figures", "fig1", out=tmp_path) == 0
    assert (tmp_path / "fig1" / "spectrum.csv").exists()

    # the process entry writes the report main() writes in-process, byte for byte
    for model in (1, 2):
        cfg = example_config(f"model{model}.json")
        assert entry("verify", "--config", cfg, out=tmp_path / "entry") == 0
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "main")]) == 0
        # main() leaves the collector as it found it; only the entry freezes
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
        name = f"verify_model{model}.json"
        assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()
    assert entry("verify", "--config", example_config("model1.json"), "--levels", "5000",
                 out=tmp_path / "refused") == 1
    assert entry("verify", "--config", example_config("model2_pole.json"), out=tmp_path / "refused") == 2

    # console_main freezes after main() returns and passes its exit code on
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    assert cli.console_main() == 3
    assert calls == ["main", "freeze"]

    # the installed script runs the same entry (a text match: no tomllib on 3.10)
    pyproject = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    with open(pyproject, encoding="utf-8") as fh:
        assert 'dirac-sphere = "dirac_sphere.cli:console_main"' in fh.read().splitlines()


def test_wavefunction_large_norm_is_normalized(tmp_path):
    # k = 20, x1 level 3: norm^2 is about 1.8e6; the CSV must hold the
    # normalized curve, not the raw one
    cfg = write_config(tmp_path, model2_doc(k=20.0))
    code = cli.main(
        ["wavefunction", "--config", cfg, "--level", "3", "--polynomial", "x1", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "wavefunction_l3_x1.csv")
    w = [float(a) for a, _ in rows]
    vals = [float(v) for _, v in rows]
    assert sum(v * v for v in vals) * (w[1] - w[0]) == pytest.approx(1.0, rel=1e-6)


def test_verify_levels_past_galerkin_cap_exits_1_writes_nothing(tmp_path, capsys):
    # 61 levels would need a first Galerkin basis of 2 * 61 + 8 = 130
    # functions, checked against 260, past the cap of 256: refused before any
    # claim is computed, on any grid (5000 levels, more than the grid's 4001
    # rows, get the same refusal: verify reads no grid)
    out = tmp_path / "out"
    for levels in ("61", "5000"):
        code = cli.main(["verify", "--config", example_config("model1.json"), "--levels", levels,
                         "--out", str(out)])
        assert code == 1
        assert "levels must be at most 60" in capsys.readouterr().err
    assert not out.exists()


def test_verify_model2_galerkin_levels_equal_identity_levels(tmp_path):
    # the README's Model-II config: the oracle finds the levels the solvable
    # identity implies, so oracle_minus_matched is oracle error alone
    assert cli.main(["verify", "--config", example_config("model2.json"), "--out", str(tmp_path)]) == 0
    claims = json.loads((tmp_path / "verify_model2.json").read_text())["report"]["claims"]
    spectrum = [c for c in claims if c["claim_id"].startswith("c.")]
    assert len(spectrum) == 4
    for c in spectrum:
        assert abs(c["details"]["oracle_minus_matched"]) <= 1e-9, c["claim_id"]
        assert c["details"]["solver"] == "jacobi-galerkin" and c["grid"] == {"n": 16}


def test_verify_log_case_exits_2_writes_nothing(tmp_path, capsys):
    # Model II (+, +) at k = (sqrt 5 - 1)/2 has nu_1 = 0 at t = +1: the image
    # of D has no unique exponent there, so the report is refused
    out = tmp_path / "out"
    doc = model2_doc(k=(math.sqrt(5.0) - 1.0) / 2.0, model2={"sign_a": "+", "sign_b": "+"})
    assert cli.main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert "the log case nu_1 = 0 is not served" in capsys.readouterr().err
    assert not out.exists()


def test_wavefunction_negative_level_exits_1_writes_nothing(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["wavefunction", "--config", example_config("model2.json"), "--level", "-1",
                     "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_wavefunction_level_past_norm_node_cap_exits_2(tmp_path, capsys):
    # the level-300 X1 norm would need a rule past the 512-node cap
    out = tmp_path / "out"
    code = cli.main(["wavefunction", "--config", example_config("model2.json"), "--level", "300",
                     "--polynomial", "x1", "--out", str(out)])
    assert code == 2
    assert "within 512 nodes" in capsys.readouterr().err
    assert not out.exists()


def test_unresolved_norm_exits_2(tmp_path, capsys):
    # a denominator root just outside [-1, 1]: finite norm that no rule within
    # the node cap resolves -- a construction error, not a divergent norm
    doc = model2_doc(model2={"C1": 0.5, "alpha": 1.0, "beta": 1e-9})
    cfg = write_config(tmp_path, doc)
    code = cli.main(["wavefunction", "--config", cfg, "--polynomial", "x1", "--out", str(tmp_path)])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    # every file goes through a temp file and a rename; the temp file is
    # created like any other, so the umask decides the mode the file keeps
    out = ["--out", str(tmp_path)]
    old = os.umask(umask)
    try:
        assert cli.main(["verify", "--config", example_config("model1.json")] + out) == 0
        pole = example_config("model2_pole.json")
        assert cli.main(["potential", "--config", pole, "--which", "A_u"] + out) == 0
        assert cli.main(["figures", "fig2"] + out) == 0
    finally:
        os.umask(old)
    names = ["verify_model1.json", "potential_a_u.csv", "potential_a_u_poles.json", "fig2/provenance.txt"]
    assert [oct(os.stat(tmp_path / name).st_mode & 0o777) for name in names] == [oct(mode)] * 4


def test_verify_refuses_a_pole_with_one_message_on_every_grid(tmp_path, capsys):
    # alpha * beta < 0: the Model-II pole at w = -6.91 lies inside L = 12 and
    # beyond L = 6 and L = 0.5; verify reads no grid, so every config grid
    # gets the same refusal, and a grid flag is refused as one it never reads
    out = tmp_path / "out"
    errors = []
    for L in (12.0, 6.0, 0.5):
        doc = model2_doc(model2={"C1": 0.5, "alpha": 1.0, "beta": -1e-6}, grid={"L": L, "N": 801})
        assert cli.main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert cli.main(["verify", "--config", write_config(tmp_path, doc), "--grid-L", str(L),
                         "--out", str(out)]) == 1
        assert "--grid-L" in capsys.readouterr().err
    assert errors == [errors[0]] * 3
    assert "potential pole at w = -6.907" in errors[0]
    assert not out.exists()


_MODULE_PROBE = """
import contextlib, io, json, sys
if sys.argv[1:]:
    from dirac_sphere.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
else:
    import dirac_sphere.cli
    code = 0
probe = (
    "scipy", "scipy.linalg.cython_lapack", "scipy.linalg._flapack", "scipy.linalg",
    "numpy.f2py", "numpy.testing", "numpy.polynomial", "sympy",
)
print(json.dumps([code, [m for m in probe if m in sys.modules]]))
"""


@pytest.mark.parametrize(
    "args, solves",
    [
        ([], False),
        (["spectrum", "--config", example_config("model1.json")], False),
        (["potential", "--config", example_config("model2.json"), "--which", "Veff2"], False),
        (["wavefunction", "--config", example_config("model2.json"), "--level", "1"], False),
        (["figures", "fig1"], False),
        (["verify", "--config", example_config("model1.json")], True),
    ],
    ids=["import", "spectrum", "potential", "wavefunction", "figures", "verify"],
)
def test_only_verify_loads_scipy(tmp_path, args, solves):
    # a fresh interpreter per command: only verify solves, so only verify may
    # pay for scipy, and it loads the f2py extension _flapack alone: never
    # scipy's package init, nor the scipy.linalg package, whose init pulls in
    # numpy.f2py, numpy.testing and numpy.polynomial
    res = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *args] + (["--out", str(tmp_path)] if args else []),
        capture_output=True, text=True, env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    code, loaded = json.loads(res.stdout)
    assert code == 0
    assert loaded == (["scipy.linalg._flapack"] if solves else [])


_COEXIST_PROBE = """
import contextlib, io, json, sys
import numpy as np
if sys.argv[1] == "package-first":
    import scipy.linalg
from dirac_sphere import cli, oracle
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--config", sys.argv[2], "--out", sys.argv[3]])
import scipy.linalg
from scipy.linalg import lapack
m = oracle.SLMatrix(diag=np.linspace(1.0, 9.0, 60) ** 2, off=np.full(59, -2.5))
every = scipy.linalg.eigh_tridiagonal(m.diag, m.off, eigvals_only=True)
band = np.random.default_rng(3).standard_normal((40, 40))
ref, _, info = lapack.dsbev(band, compute_v=0, lower=1)
print(json.dumps([
    code,
    oracle._flapack() is lapack._flapack is sys.modules["scipy.linalg._flapack"],
    info == 0 and bool(np.array_equal(oracle._band_eigenvalues(band), ref)),
    bool(np.array_equal(oracle.eig_values(m), every)),
    bool(np.array_equal(oracle.eig_lowest(m, 5), every[:5])),
]))
"""


def test_lapack_extension_and_scipy_linalg_coexist(tmp_path):
    # verify's path-loaded _flapack and scipy.linalg's own import, in either
    # order in one interpreter: one module object, whose dsbev gives the same
    # bits through scipy.linalg's f2py wrapper and through the oracle's
    # binding, equal eigenvalues, equal reports
    reports = []
    for order in ("verify-first", "package-first"):
        out = tmp_path / order
        res = subprocess.run(
            [sys.executable, "-c", _COEXIST_PROBE, order, example_config("model1.json"), str(out)],
            capture_output=True, text=True, env=child_env(),
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == [0, True, True, True, True], order
        reports.append((out / "verify_model1.json").read_bytes())
    assert reports[0] == reports[1]


_RECORDS_PROBE = """
import inspect, json, sys
import numpy
before = set(sys.modules)
import dirac_sphere.cli
added = set(sys.modules) - before
from dirac_sphere import errors, gauge, geometry, oracle, specfun, spectra
import dataclasses
records = [
    f"{mod.__name__}.{name}"
    for mod in (dirac_sphere.cli, errors, gauge, geometry, oracle, specfun, spectra)
    for name, obj in vars(mod).items()
    if inspect.isclass(obj) and obj.__module__ == mod.__name__ and dataclasses.is_dataclass(obj)
]
print(json.dumps(["dataclasses" in added, records]))
"""


def test_package_defines_no_dataclass():
    # a fresh interpreter: the package's records are plain classes, so
    # importing the CLI after numpy loads no dataclasses module and runs no
    # generated code
    res = subprocess.run([sys.executable, "-c", _RECORDS_PROBE], capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [False, []]


def test_verify_lapack_failure_exits_2_writes_nothing(tmp_path, lapack_failure, capsys):
    # a solve LAPACK reports as failed never becomes a number in a report
    cfg = example_config("model1.json")
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "failed (info=1)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
