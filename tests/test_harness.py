import json
import subprocess
import sys

import numpy as np
import pytest

from dyadicpara import (
    AdaptedFamily,
    ContractError,
    Signal,
    coefficients,
    generate_signal,
    normalize,
    rectangle,
)
from dyadicpara.cli import main
from dyadicpara.harness import (
    SUITES,
    ExperimentConfig,
    report_json,
    run_suite,
    run_sweep,
)


def _cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dyadicpara.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


# -- generators --------------------------------------------------------------


def test_generate_constant_and_indicator():
    one = generate_signal("constant", 1, 4, params={"c": 1.0})
    assert np.allclose(one.values, 1.0)
    ind = generate_signal("indicator", 1, 4, params={"rect": [[1, 0]]})
    assert np.array_equal(ind.values, Signal.indicator(rectangle((1, 0)), 4).values)


def test_generate_determinism():
    a = generate_signal("random-haar", 2, 4, seed=7)
    b = generate_signal("random-haar", 2, 4, seed=7)
    assert np.array_equal(a.values, b.values)
    c = generate_signal("random-haar", 2, 4, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_generate_bump_unit_norm():
    f = generate_signal("bump", 1, 6, params={"rect": [[2, 1]]})
    assert np.sum(f.values**2) * f.cell_measure == pytest.approx(1.0, rel=1e-12)


def test_generate_unknown_kind():
    with pytest.raises(ContractError):
        generate_signal("perlin", 1, 4)


def test_normalize():
    f = normalize(Signal.constant(1, 3, 5.0), 2.0)
    assert np.allclose(f.values, 1.0)
    with pytest.raises(ContractError):
        normalize(Signal.zeros(1, 3), 2.0)


# -- configs and reports ------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(suite="domination", d=2, L=4, L_list=(3, 4), seed=9)
    data = cfg.to_json()
    clone = ExperimentConfig.from_json(data)
    assert clone == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert ExperimentConfig.from_file(path) == cfg


def test_report_determinism():
    cfg = ExperimentConfig(suite="norms", d=1, L=5, trials=10, seed=3)
    rep1 = SUITES["norms"](cfg)
    rep2 = SUITES["norms"](cfg)
    body1 = {k: v for k, v in rep1.items() if k != "meta"}
    body2 = {k: v for k, v in rep2.items() if k != "meta"}
    assert report_json({"x": body1}) == report_json({"x": body2})


def test_run_suite_writes_report(tmp_path):
    out = tmp_path / "rep.json"
    cfg = ExperimentConfig(
        suite="norms", d=1, L=5, trials=5, seed=1, out=str(out), format="csv"
    )
    report, code = run_suite(cfg)
    assert code == 0 and report["passed"]
    data = json.loads(out.read_text())
    assert data["suite"] == "norms"
    assert {c["id"] for c in data["checks"]} >= {"holder-pairing", "weak-below-strong"}
    assert out.with_suffix(".csv").exists()


def test_run_suite_unknown():
    with pytest.raises(KeyError):
        run_suite(ExperimentConfig(suite="bogus"))


def test_sweep_rows_and_stability(tmp_path):
    cfg = ExperimentConfig(
        suite="sweep",
        d=2,
        L_list=(3, 4, 5),
        trials=20,
        seed=0,
        p1=4.0,
        p2=4.0,
        r=2.0,
        out=str(tmp_path / "sweep.json"),
        format="csv",
    )
    rep = run_sweep(cfg)
    assert [row["L"] for row in rep["rows"]] == [3, 4, 5]
    assert all(row["max_ratio"] > 0 for row in rep["rows"])
    assert (tmp_path / "sweep.csv").exists()
    with pytest.raises(ContractError):
        run_sweep(ExperimentConfig(suite="sweep", L_list=(4,)))


# -- CLI ----------------------------------------------------------------------


def test_cli_gen_norm_round_trip(tmp_path):
    sig = tmp_path / "f.csv"
    r = _cli("gen", "--kind", "random-haar", "--d", "1", "--L", "5",
             "--seed", "7", "--out", str(sig))
    assert r.returncode == 0
    r2 = _cli("norm", "--in", str(sig), "--d", "1", "--L", "5",
              "--norm", "lp", "--p", "2")
    assert r2.returncode == 0
    payload = json.loads(r2.stdout)
    assert payload["parameters"]["kind"] == "lp"
    assert payload["norm"] > 0


@pytest.mark.parametrize("kind", ["indicator", "bump"])
@pytest.mark.parametrize("d, rect", [(1, "1,1"), (2, "1,0;2,3")])
def test_cli_gen_rect_signal_has_the_requested_d(tmp_path, capsys, kind, d, rect):
    out = tmp_path / "f.json"
    assert main(["gen", "--kind", kind, "--d", str(d), "--L", "3", "--rect", rect,
                 "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == d
    saved = json.loads(out.read_text())
    assert saved["d"] == d and len(saved["values"]) == 8**d


def test_cli_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _cli("gen", "--kind", "random-cells", "--d", "1", "--L", "4", "--seed", "3",
         "--out", str(a))
    _cli("gen", "--kind", "random-cells", "--d", "1", "--L", "4", "--seed", "3",
         "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cli_transform_inverse(tmp_path):
    sig = tmp_path / "f.csv"
    coef = tmp_path / "c.json"
    back = tmp_path / "g.csv"
    _cli("gen", "--kind", "random-haar", "--d", "1", "--L", "4", "--seed", "2",
         "--out", str(sig))
    assert _cli("transform", "--in", str(sig), "--d", "1", "--L", "4",
                "--out", str(coef)).returncode == 0
    assert _cli("transform", "--inverse", "--in", str(coef),
                "--out", str(back)).returncode == 0
    f = np.loadtxt(sig)
    g = np.loadtxt(back)
    assert np.abs(f - g).max() < 1e-12


@pytest.mark.parametrize(
    "entries", [[[[[1, 2]], 1.0]], [[[[4, 0]], 1.0]], [[[[1, 0]], 1.0], [[[1, 0]], 2.0]]]
)
def test_cli_transform_inverse_malformed_keys_exit_2(tmp_path, entries):
    coef = tmp_path / "c.json"
    data = coefficients(Signal.zeros(1, 4), AdaptedFamily.haar(1)).to_json()
    data["entries"] = entries
    coef.write_text(json.dumps(data))
    r = _cli("transform", "--inverse", "--in", str(coef))
    assert r.returncode == 2
    assert "contract error" in r.stderr


def test_cli_transform_inverse_huge_resolution_exit_2(tmp_path, capsys):
    coef = tmp_path / "c.json"
    data = coefficients(Signal.zeros(1, 4), AdaptedFamily.haar(1)).to_json()
    data["L"] = 40
    coef.write_text(json.dumps(data))
    assert main(["transform", "--inverse", "--in", str(coef)]) == 2
    assert "resolution L=40" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, args",
    [
        ("f.json", '{"d": 1, "L": 3, "values": [0.0, 0.', ["norm"]),
        ("c.json", '{"d": 1, "L": 3, "family": {"kind": "ha', ["transform", "--inverse"]),
        ("f.csv", "x\n", ["norm", "--d", "1", "--L", "3"]),
        ("f.csv", None, ["norm", "--d", "1", "--L", "3"]),
    ],
    ids=["norm-truncated-json", "inverse-truncated-json", "csv-not-a-number", "missing"],
)
def test_cli_unreadable_input_exit_2(tmp_path, capsys, name, text, args):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert main([*args, "--in", str(path)]) == 2
    assert f"contract error: cannot read {path}" in capsys.readouterr().err


def test_cli_misshapen_json_signal_exit_2(tmp_path, capsys):
    # 16 values for d=2 L=2, nested as 2 x 8 instead of 4 x 4
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"d": 2, "L": 2, "values": [[0.0] * 8, [1.0] * 8]}))
    assert main(["norm", "--in", str(path)]) == 2
    assert "shape (4, 4)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--kind", "indicator", "--rect", "1"],
        ["gen", "--kind", "indicator", "--rect", "a,b"],
        ["sweep", "--L-list", "5,x"],
    ],
    ids=["rect-one-number", "rect-not-numbers", "L-list-not-numbers"],
)
def test_cli_malformed_argument_exit_64(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 64
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["gen", "--L", "-1"], "resolution L=-1"),
        (["gen", "--kind", "constant", "--L", "99"], "resolution L=99"),
        (["verify", "norms", "--L", "-2", "--trials", "2"], "resolution L=-2"),
        (["sweep", "--L-list", "3,-1", "--trials", "2"], "resolution L=-1"),
        (["verify", "norms", "--config", "/nonexistent.json"], "cannot read /nonexistent.json"),
        (["verify", "identities", "--L", "3", "--trials", "0"], "trials must be >= 1"),
        (["sweep", "--L-list", "3,4", "--trials", "0"], "trials must be >= 1"),
        (["verify", "identities", "--d", "1", "--L", "4", "--trials", "1", "--seed", "-5"],
         "seed must be >= 0"),
        (["gen", "--kind", "random-haar", "--d", "1", "--L", "4", "--seed", "-5"],
         "seed must be >= 0"),
        (["sweep", "--L-list", "3,4", "--trials", "1", "--seed", "-1"], "seed must be >= 0"),
        (["gen", "--kind", "indicator", "--d", "1", "--L", "3", "--rect", "1,0;1,1"],
         "a d=1 signal needs a rect of 1 intervals, got 2"),
        (["gen", "--kind", "bump", "--d", "2", "--L", "3", "--rect", "1,0"],
         "a d=2 signal needs a rect of 2 intervals, got 1"),
    ],
    ids=["gen-negative-L", "gen-L-above-cap", "verify-negative-L", "sweep-negative-L",
         "missing-config", "verify-no-trials", "sweep-no-trials", "verify-negative-seed",
         "gen-negative-seed", "sweep-negative-seed", "gen-indicator-rect-of-other-d",
         "gen-bump-rect-of-other-d"],
)
def test_cli_refused_arguments_exit_2(capsys, args, message):
    assert main(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "args", [["--norm", "lp", "--p", "nan"], ["--norm", "weak", "--r", "nan"]],
    ids=["lp-p-nan", "weak-r-nan"],
)
def test_cli_norm_nan_exponent_exit_2(tmp_path, capsys, args):
    path = tmp_path / "f.csv"
    Signal.constant(1, 3, 1.0).save_csv(path)
    assert main(["norm", "--in", str(path), "--d", "1", "--L", "3", *args]) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ['[1, 2]', '{"trials": "5"}', '{"d": 1.5}', '{"L_list": [3, 4.5]}', '{"seed": false}'],
    ids=["not-an-object", "string-trials", "float-d", "float-level", "bool-seed"],
)
def test_cli_malformed_config_exit_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["verify", "norms", "--L", "3", "--trials", "2", "--config", str(path)]) == 2
    assert f"cannot read {path}" in capsys.readouterr().err


_SIGNAL_JSON = {"d": 1, "L": 3, "values": [0.0] * 8}
_FIELD_JSON = {"d": 1, "L": 3, "family": {"kind": "haar", "zero_pattern": [True]},
               "mean_blocks": [], "entries": []}


@pytest.mark.parametrize(
    "args, data",
    [
        (["norm"], {**_SIGNAL_JSON, "d": 1.9}),
        (["norm"], {**_SIGNAL_JSON, "L": 3.0}),
        (["norm"], {**_SIGNAL_JSON, "d": True}),
        (["transform", "--inverse"], {**_FIELD_JSON, "L": 3.5}),
        (["transform", "--inverse"], {**_FIELD_JSON, "d": True}),
        (["transform", "--inverse"], {**_FIELD_JSON, "entries": [[[[1.9, 0.5]], 1.0]]}),
        (["transform", "--inverse"], {**_FIELD_JSON, "entries": [[[[True, 0]], 1.0]]}),
        (["transform", "--inverse"], {**_FIELD_JSON, "entries": [[[[1, 0]], float("nan")]]}),
        (["transform", "--inverse"], {**_FIELD_JSON, "mean_blocks": [[[None], float("-inf")]]}),
    ],
    ids=["signal-float-d", "signal-float-L", "signal-bool-d", "field-float-L", "field-bool-d",
         "field-float-key", "field-bool-level", "field-nan", "field-minus-inf"],
)
def test_cli_json_fractional_or_non_finite_exit_2(tmp_path, capsys, args, data):
    # an integer field is refused, not truncated, when it holds a fraction
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main([*args, "--in", str(path)]) == 2
    assert "contract error" in capsys.readouterr().err


def test_run_suite_refuses_zero_trials():
    cfg = ExperimentConfig(suite="identities", d=1, L=3, trials=0)
    with pytest.raises(ContractError):
        run_suite(cfg)


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "technical-lemma", "--d", "1", "--L", "4", "--trials", "2"],
         "technical-lemma needs trials >= 3"),
        (["verify", "norms", "--d", "3", "--L", "5", "--trials", "2"],
         "the norms suite runs at d=1 only, got d=3"),
        (["verify", "localization", "--d", "2", "--L", "6"],
         "the localization suite runs at d=1 only, got d=2"),
        (["verify", "technical-lemma", "--d", "1", "--L", "0", "--trials", "3"],
         "technical-lemma needs L >= 2"),
        (["verify", "technical-lemma", "--d", "1", "--L", "1", "--trials", "3"],
         "technical-lemma needs L >= 2"),
        (["verify", "technical-lemma", "--d", "2", "--L", "1", "--trials", "3"],
         "technical-lemma needs L >= 2"),
    ],
    ids=["technical-lemma-two-trials", "norms-d3", "localization-d2",
         "technical-lemma-d1-L0", "technical-lemma-d1-L1", "technical-lemma-d2-L1"],
)
def test_cli_verify_refuses_config_it_cannot_run_exit_2(tmp_path, args, message):
    out = tmp_path / "report.json"
    r = _cli(*args, "--out", str(out))
    assert r.returncode == 2
    assert f"contract error: {message}" in r.stderr
    assert not out.exists()


def test_cli_technical_lemma_three_trials_pass(tmp_path):
    out = tmp_path / "report.json"
    r = _cli("verify", "technical-lemma", "--d", "1", "--L", "4", "--trials", "3",
             "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["passed"]


def test_cli_verify_pass():
    r = _cli("verify", "norms", "--d", "1", "--L", "5", "--trials", "5", "--seed", "1")
    assert r.returncode == 0
    assert "[pass]" in r.stdout


def test_cli_verify_contract_error_exit_2():
    r = _cli("verify", "domination", "--d", "1", "--L", "4", "--trials", "2",
             "--family", "abs-haar")
    assert r.returncode == 2
    assert "contract error" in r.stderr


def test_cli_unknown_suite_exit_64():
    r = _cli("verify", "not-a-suite", "--d", "1", "--L", "4")
    assert r.returncode == 64


def test_cli_usage_error_exit_64():
    r = _cli("norm")  # missing required --in
    assert r.returncode == 64


def test_cli_paraproduct(tmp_path):
    f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    _cli("gen", "--kind", "random-haar", "--d", "1", "--L", "4", "--seed", "1",
         "--out", str(f1))
    _cli("gen", "--kind", "random-haar", "--d", "1", "--L", "4", "--seed", "2",
         "--out", str(f2))
    r = _cli("paraproduct", "--f1", str(f1), "--f2", str(f2), "--d", "1", "--L", "4")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["l1"] > 0 and payload["l2"] > 0


def test_cli_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"suite": "norms", "d": 1, "L": 5, "trials": 4, "seed": 11})
    )
    r = _cli("verify", "norms", "--config", str(cfg_path))
    assert r.returncode == 0
