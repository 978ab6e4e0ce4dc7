import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dyadicpara import (
    AdaptedFamily,
    ContractError,
    RectangleCollection,
    Signal,
    coefficients,
    enumerate_rectangles,
    generate_signal,
    lp_norm,
    normalize,
    rectangle,
    weak_quasinorm,
)
from dyadicpara import harness
from dyadicpara.cli import main
from dyadicpara.decomposition import FRACTION, _hypothesis_threshold
from dyadicpara.harness import (
    SUITE_NAMES,
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


# trial offsets of the suites (harness) and of the acceptance gate
_TRIAL_OFFSETS = (0, 999, 10_000, 20_000, 30_000, 40_000, 50_000) + tuple(
    range(1000, 9000, 1000)
)


@pytest.mark.parametrize("seed", [0, 20240817, 2**128 + 1])
def test_trial_rng_draws_the_default_rng_stream(seed):
    for trial in (t + extra for t in _TRIAL_OFFSETS for extra in (0, 3)):
        got = harness._trial_rng(seed, trial)
        want = np.random.default_rng([seed, trial])
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.standard_normal(7), want.standard_normal(7))
        assert np.array_equal(got.integers(0, 1 << 40, 5), want.integers(0, 1 << 40, 5))
        assert np.array_equal(got.choice(100, 6, replace=False), want.choice(100, 6, replace=False))
        assert got.bit_generator.state == want.bit_generator.state


def test_trial_rngs_of_one_key_are_independent():
    first = harness._trial_rng(5, 10_001)
    second = harness._trial_rng(5, 10_001)
    assert first is not second and first.bit_generator is not second.bit_generator
    start = second.bit_generator.state
    drawn = first.standard_normal(100)
    assert second.bit_generator.state == start
    assert np.array_equal(second.standard_normal(100), drawn)


def test_trial_seed_words_are_read_only_and_the_cache_is_bounded():
    words = harness._trial_seed(3, 20_002).generate_state(4, np.uint64)
    assert words.dtype == np.uint64 and words.shape == (4,)
    assert not words.flags.writeable
    with pytest.raises(ValueError):
        words[0] = 0
    # PCG64 asks for exactly these words; any other request raises
    for n_words, dtype in ((8, np.uint64), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(NotImplementedError):
            harness._trial_seed(3, 20_002).generate_state(n_words, dtype)
    # one acceptance-mix pass seeds 1476 distinct (seed, trial) keys
    assert 1476 <= harness._trial_seed.cache_info().maxsize <= 4096


# -- configs and reports ------------------------------------------------------


def test_config_round_trip():
    cfg = ExperimentConfig(suite="domination", d=2, L=4, L_list=(3, 4), seed=9)
    data = cfg.to_json()
    clone = ExperimentConfig.from_json(data)
    assert clone == cfg
    assert ExperimentConfig.from_json(json.loads(json.dumps(data))) == cfg


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


@pytest.mark.parametrize("pattern", [["no"], [0], [1], [None], ["true"]])
def test_cli_transform_inverse_non_boolean_zero_pattern_exit_2(tmp_path, capsys, pattern):
    # ["no"] reconstructed the field in the orthonormal Haar basis, exit 0
    coef = tmp_path / "c.json"
    data = coefficients(Signal.zeros(1, 4), AdaptedFamily.haar(1)).to_json()
    data["family"]["zero_pattern"] = pattern
    coef.write_text(json.dumps(data))
    assert main(["transform", "--inverse", "--in", str(coef)]) == 2
    assert "zero pattern entries must be bools" in capsys.readouterr().err


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


# the flags a verb's command never read, with a value each
_DROPPED_FLAGS = [
    ("gen", "--format", "json"),
    ("norm", "--seed", "1"),
    ("norm", "--out", "n.json"),
    ("norm", "--format", "csv"),
    ("transform", "--seed", "1"),
    ("transform", "--format", "csv"),
    ("paraproduct", "--seed", "1"),
    ("paraproduct", "--format", "csv"),
    ("sweep", "--L", "4"),
    ("sweep", "--r", "1"),
]
_VERB_ARGS = {
    "gen": [],
    "norm": ["--in", "f.csv"],
    "transform": ["--in", "f.csv"],
    "paraproduct": ["--f1", "f.csv", "--f2", "f.csv"],
    "sweep": ["--L-list", "3,4"],
}


@pytest.mark.parametrize("verb, flag, value", _DROPPED_FLAGS,
                         ids=[f"{verb}{flag}" for verb, flag, _ in _DROPPED_FLAGS])
def test_cli_flag_the_verb_ignores_exit_64(tmp_path, capsys, monkeypatch, verb, flag, value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_trial_rng", _no_trial)
    with pytest.raises(SystemExit) as exc:
        main([verb, *_VERB_ARGS[verb], flag, value])
    assert exc.value.code == 64
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _file_inputs(tmp_path):
    """f.json, f.csv (d=1, L=3) and c.json, the Haar field of f.json."""
    for name in ("f.json", "f.csv"):
        assert main(["gen", "--L", "3", "--out", str(tmp_path / name)]) == 0
    assert main(["transform", "--in", str(tmp_path / "f.json"),
                 "--out", str(tmp_path / "c.json")]) == 0


# runs whose mode leaves one flag unread: a field JSON carries its grid and
# family, a JSON signal its grid, and gen reads --c and --rect for some kinds only
_UNREAD_FLAGS = [
    (["transform", "--inverse", "--in", "c.json", "--d", "1"], "--d", "argument --inverse"),
    (["transform", "--inverse", "--in", "c.json", "--L", "3"], "--L", "argument --inverse"),
    (["transform", "--inverse", "--in", "c.json", "--family", "haar"], "--family",
     "argument --inverse"),
    (["norm", "--in", "f.json", "--d", "1"], "--d", "JSON inputs only"),
    (["norm", "--in", "f.json", "--L", "3"], "--L", "JSON inputs only"),
    (["transform", "--in", "f.json", "--L", "3"], "--L", "JSON inputs only"),
    (["paraproduct", "--f1", "f.json", "--f2", "f.json", "--d", "1"], "--d", "JSON inputs only"),
    (["paraproduct", "--f1", "f.json", "--f2", "f.json", "--f3", "f.json", "--L", "3"], "--L",
     "JSON inputs only"),
    (["gen", "--c", "2"], "--c", "--kind random-haar"),
    (["gen", "--kind", "indicator", "--rect", "1,0", "--c", "2"], "--c", "--kind indicator"),
    (["gen", "--rect", "1,0"], "--rect", "--kind random-haar"),
    (["gen", "--kind", "constant", "--rect", "1,0"], "--rect", "--kind constant"),
    (["gen", "--kind", "constant", "--L", "2", "--seed", "5"], "--seed", "--kind constant"),
    (["gen", "--kind", "bump", "--rect", "1,0", "--seed", "0"], "--seed", "--kind bump"),
    (["norm", "--in", "f.json", "--norm", "h1", "--p", "3"], "--p", "--norm h1"),
    (["norm", "--in", "f.json", "--norm", "h1", "--r", "7"], "--r", "--norm h1"),
    (["norm", "--in", "f.json", "--norm", "weak", "--p", "2"], "--p", "--norm weak"),
    (["norm", "--in", "f.json", "--r", "1"], "--r", "--norm lp"),
]


@pytest.mark.parametrize(
    "args, flag, why", _UNREAD_FLAGS,
    ids=["inverse-d", "inverse-L", "inverse-family", "norm-json-d", "norm-json-L",
         "transform-json-L", "paraproduct-json-d", "form-json-L", "gen-random-c",
         "gen-indicator-c", "gen-random-rect", "gen-constant-rect", "gen-constant-seed",
         "gen-bump-seed", "norm-h1-p", "norm-h1-r", "norm-weak-p", "norm-lp-r"],
)
def test_cli_flag_the_run_does_not_read_exit_64(tmp_path, capsys, monkeypatch, args, flag, why):
    _file_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 64
    assert f"error: argument {flag}: not allowed with {why}" in capsys.readouterr().err


def test_cli_file_flags_read_by_the_run_or_left_at_their_defaults(tmp_path, capsys, monkeypatch):
    _file_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    # one CSV input among JSON ones takes the grid flags
    assert main(["paraproduct", "--f1", "f.json", "--f2", "f.csv", "--d", "1", "--L", "3"]) == 0
    assert main(["norm", "--in", "f.csv", "--L", "3"]) == 0
    capsys.readouterr()
    assert main(["gen"]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "random-haar", "d": 1, "L": 6,
                                                   "out": None}
    assert main(["gen", "--kind", "constant", "--L", "2", "--out", "c2.json"]) == 0
    assert Signal.load_json("c2.json").values.tolist() == [1.0] * 4
    assert main(["gen", "--kind", "constant", "--L", "2", "--c", "3", "--out", "c3.json"]) == 0
    assert Signal.load_json("c3.json").values.tolist() == [3.0] * 4
    capsys.readouterr()
    assert main(["transform", "--in", "f.json"]) == 0
    assert json.loads(capsys.readouterr().out)["family"] == "haar"


def test_cli_seed_p_and_r_are_read_by_the_modes_that_read_them(tmp_path, capsys, monkeypatch):
    _file_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    f = Signal.load_json("f.json")
    for kind in ("random-cells", "random-haar"):
        assert main(["gen", "--kind", kind, "--L", "3", "--out", "s0.json"]) == 0
        assert main(["gen", "--kind", kind, "--L", "3", "--seed", "0", "--out", "t0.json"]) == 0
        assert main(["gen", "--kind", kind, "--L", "3", "--seed", "5", "--out", "t5.json"]) == 0
        assert Path("s0.json").read_bytes() == Path("t0.json").read_bytes()
        assert Path("s0.json").read_bytes() != Path("t5.json").read_bytes()
    capsys.readouterr()
    runs = [
        (["--norm", "lp"], lp_norm(f, 2.0), {"kind": "lp", "p": 2.0}),
        (["--p", "3"], lp_norm(f, 3.0), {"kind": "lp", "p": 3.0}),
        (["--norm", "weak"], weak_quasinorm(f, 1.0), {"kind": "weak", "r": 1.0}),
        (["--norm", "weak", "--r", "2"], weak_quasinorm(f, 2.0), {"kind": "weak", "r": 2.0}),
    ]
    for args, value, parameters in runs:
        assert main(["norm", "--in", "f.json", *args]) == 0
        assert json.loads(capsys.readouterr().out) == {"norm": value, "parameters": parameters}


def test_cli_paraproduct_form_and_out_exit_64(tmp_path, capsys):
    sig = tmp_path / "f.csv"
    assert main(["gen", "--L", "3", "--out", str(sig)]) == 0
    out = tmp_path / "b.csv"
    with pytest.raises(SystemExit) as exc:
        main(["paraproduct", "--L", "3", "--f1", str(sig), "--f2", str(sig), "--f3", str(sig),
              "--out", str(out)])
    assert exc.value.code == 64
    assert "not allowed with argument --f3" in capsys.readouterr().err
    assert not out.exists()


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
    ['[1, 2]', '{"trials": "5"}', '{"d": 1.5}', '{"L_list": [3, 4.5]}', '{"seed": false}',
     '{"p1": "x"}', '{"p1": null}', '{"p1": true}', '{"p2": [2]}', '{"r": "a"}',
     '{"p1": 1' + '0' * 400 + '}', '{"out": 5}', '{"format": "xml"}'],
    ids=["not-an-object", "string-trials", "float-d", "float-level", "bool-seed",
         "string-p1", "null-p1", "bool-p1", "list-p2", "string-r", "huge-p1", "int-out",
         "xml-format"],
)
def test_cli_malformed_config_exit_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["verify", "norms", "--L", "3", "--trials", "2", "--config", str(path)]) == 2
    assert f"cannot read {path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, config",
    [
        (["verify", "domination", "--p1", "nan"], None),
        (["verify", "domination", "--p2", "-2"], None),
        (["verify", "restricted-weak", "--L", "3", "--p1", "0"], None),
        (["verify", "domination"], '{"p1": NaN}'),
        (["verify", "domination"], '{"p2": -Infinity}'),
        (["sweep", "--L-list", "3,4"], '{"r": NaN}'),
        (["sweep", "--L-list", "3,4"], '{"r": 0}'),
    ],
    ids=["cli-nan-p1", "cli-negative-p2", "cli-zero-p1", "config-nan-p1",
         "config-negative-p2", "config-sweep-nan-r", "config-sweep-zero-r"],
)
def test_cli_bad_exponent_exit_2_before_any_trial(tmp_path, capsys, monkeypatch, args, config):
    # a NaN exponent makes every Hoelder link it enters compare false, so a
    # suite would pass with those links skipped
    def no_trial(*_):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_rng", no_trial)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        args = [*args, "--config", str(path)]
    assert main([*args, "--trials", "2"]) == 2
    assert "must be > 0" in capsys.readouterr().err


def _no_trial(*_):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize(
    "p1, p2, r",
    [(2.0, 2.0, 0.3), (2.0, 2.0, 1.5), (4.0, 4.0, 1.0), (2.0, math.inf, 1.0),
     (math.inf, math.inf, 2.0), (2.0, 2.0, 1.0 + 1e-11), (4.0, 4.0, math.inf)],
)
def test_sweep_refuses_r_other_than_hoelder_before_any_trial(monkeypatch, p1, p2, r):
    monkeypatch.setattr(harness, "_trial_rng", _no_trial)
    cfg = ExperimentConfig(suite="sweep", L_list=(3, 4), trials=2, p1=p1, p2=p2, r=r)
    with pytest.raises(ContractError, match=r"r = 1/\(1/p1 \+ 1/p2\)"):
        run_sweep(cfg)


@pytest.mark.parametrize(
    "p1, p2, r",
    [(2.0, 2.0, 1.0 * (1 + 1e-13)), (4.0, 4.0, 2.0), (2.0, math.inf, 2.0),
     (math.inf, math.inf, math.inf), (3.0, 6.0, 2.0 * (1 - 1e-13))],
)
def test_sweep_takes_r_at_hoelder(p1, p2, r):
    cfg = ExperimentConfig(suite="sweep", L_list=(1, 2), trials=1, p1=p1, p2=p2, r=r)
    assert [row["L"] for row in run_sweep(cfg)["rows"]] == [1, 2]


def test_cli_refuses_disagreeing_exponents(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "_trial_rng", _no_trial)
    # r follows from p1 and p2: neither verify nor sweep takes --r
    with pytest.raises(SystemExit) as exc:
        main(["verify", "restricted-weak", "--p1", "2", "--p2", "2", "--r", "0.3"])
    assert exc.value.code == 64
    assert "unrecognized arguments: --r 0.3" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text('{"p1": 2, "p2": 2, "r": 0.3}')
    assert main(["sweep", "--L-list", "3,4", "--config", str(path)]) == 2
    assert "r = 1/(1/p1 + 1/p2) = 1.0, got 0.3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config", ['{"r": 0.3}', '{"p1": 4, "r": 1}', '{"p1": 4, "p2": 4, "r": 1}'],
    ids=["r-alone", "r-of-other-p1", "r-of-default-p"],
)
def test_cli_verify_refuses_disagreeing_r_before_any_trial(tmp_path, capsys, monkeypatch,
                                                           config):
    monkeypatch.setattr(harness, "_trial_rng", _no_trial)
    path = tmp_path / "cfg.json"
    path.write_text(config)
    assert main(["verify", "domination", "--trials", "2", "--config", str(path)]) == 2
    assert "r = 1/(1/p1 + 1/p2)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, config, r",
    [
        (["--p1", "4", "--p2", "4"], None, 2.0),
        ([], '{"p1": 4, "p2": 4}', 2.0),
        (["--p1", "4", "--p2", "4"], '{"p1": 2}', 2.0),
        (["--p1", "2", "--p2", "inf"], None, 2.0),
        ([], None, 1.0),
    ],
    ids=["flags", "config", "flags-over-config", "infinite-p2", "defaults"],
)
def test_cli_sweep_derives_r_from_p1_and_p2(tmp_path, args, config, r):
    out = tmp_path / "sweep.json"
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        args = [*args, "--config", str(tmp_path / "cfg.json")]
    assert main(["sweep", "--L-list", "3,4", *args, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["r"] == r


def test_config_without_r_takes_hoelders_exponent():
    assert ExperimentConfig().r == 1.0
    assert ExperimentConfig(p1=4.0, p2=4.0).r == 2.0
    assert ExperimentConfig.from_json({"p1": 3, "p2": 6}).r == 2.0
    assert ExperimentConfig(p1=math.inf, p2=math.inf).r == math.inf
    # a given r is kept as given and refused, if it disagrees, by the run
    assert ExperimentConfig(p1=4.0, p2=4.0, r=1.0).r == 1.0


def test_suites_refuse_disagreeing_r_before_any_trial(monkeypatch):
    monkeypatch.setattr(harness, "_trial_rng", _no_trial)
    for suite in SUITE_NAMES:
        cfg = ExperimentConfig(suite=suite, L=4, trials=3, p1=4.0, p2=4.0, r=1.0)
        with pytest.raises(ContractError, match=r"r = 1/\(1/p1 \+ 1/p2\) = 2.0, got 1.0"):
            run_suite(cfg)


def test_config_refuses_unknown_keys():
    with pytest.raises(ValueError, match=r"unknown config keys \['trails'\]"):
        ExperimentConfig.from_json({"trails": 2})


def test_cli_unknown_config_key_exit_2_before_any_trial(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "_trial_rng", _no_trial)
    path = tmp_path / "cfg.json"
    path.write_text('{"trails": 2}')
    for args in (["verify", "norms", "--L", "3"], ["sweep", "--L-list", "3,4"]):
        assert main([*args, "--config", str(path)]) == 2
        assert f"cannot read {path}" in capsys.readouterr().err



def test_config_exponents_read_as_floats():
    cfg = ExperimentConfig.from_json({"p1": 3, "p2": 2.5, "r": 1, "out": None, "format": "csv"})
    assert (cfg.p1, cfg.p2, cfg.r) == (3.0, 2.5, 1.0)
    assert all(type(x) is float for x in (cfg.p1, cfg.p2, cfg.r))


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
         "norms runs at d=1 only, got d=3"),
        (["verify", "localization", "--d", "2", "--L", "6"],
         "localization runs at d=1 only, got d=2"),
        (["verify", "technical-lemma", "--d", "1", "--L", "0", "--trials", "3"],
         "technical-lemma at d=1 needs L >= 2, got L=0"),
        (["verify", "technical-lemma", "--d", "1", "--L", "1", "--trials", "3"],
         "technical-lemma at d=1 needs L >= 2, got L=1"),
        (["verify", "technical-lemma", "--d", "2", "--L", "1", "--trials", "3"],
         "technical-lemma at d=2 needs L >= 2, got L=1"),
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


@pytest.mark.parametrize(
    "args",
    [
        ["--L-list", "0,2", "--trials", "4"],
        ["--L-list", "2,0", "--trials", "4"],
        ["--d", "2", "--L-list", "0,1", "--trials", "2"],
        ["--d", "2", "--L-list", "1,0", "--trials", "2"],
    ],
    ids=["d1-L0-first", "d1-L0-last", "d2-L0-first", "d2-L0-last"],
)
def test_cli_sweep_refuses_a_one_cell_grid_exit_2(tmp_path, capsys, args):
    # at L=0 the ratio is 0 by construction: the growth factor read inf
    # (exit 1) with L=0 first and 0 (exit 0) with L=0 last
    out = tmp_path / "sweep.json"
    assert main(["sweep", *args, "--out", str(out)]) == 2
    d = "2" if "--d" in args else "1"
    assert f"contract error: sweep at d={d} needs L >= 1, got L=0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "L_list", ["3,3", "3,9,5", "5,3", "2,4,4"], ids=["repeat", "unsorted", "down", "last-repeat"]
)
def test_cli_sweep_refuses_resolutions_not_strictly_increasing_exit_2(tmp_path, capsys, L_list):
    # a repeat read growth factor 1.0 by construction; 3,9,5 compared L=3 with L=5
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--L-list", L_list, "--trials", "2", "--out", str(out)]) == 2
    want = f"a sweep needs strictly increasing resolutions, got L_list=[{L_list.replace(',', ', ')}]"
    assert f"contract error: {want}" in capsys.readouterr().err
    assert not out.exists()


def _cli_inputs(tmp_path):
    sig = tmp_path / "f.json"
    assert main(["gen", "--L", "3", "--out", str(sig)]) == 0
    return ["--in", str(sig)], ["--f1", str(sig), "--f2", str(sig)]


_OUT_VERBS = {
    "gen": lambda single, pair: ["gen", "--L", "3"],
    "transform": lambda single, pair: ["transform", *single],
    "paraproduct": lambda single, pair: ["paraproduct", *pair],
    "verify": lambda single, pair: ["verify", "norms", "--L", "3", "--trials", "2"],
    "sweep": lambda single, pair: ["sweep", "--L-list", "2,3", "--trials", "2"],
}


@pytest.mark.parametrize("verb", sorted(_OUT_VERBS))
def test_cli_out_makes_its_missing_directories(tmp_path, capsys, verb):
    args = _OUT_VERBS[verb](*_cli_inputs(tmp_path))
    out = tmp_path / "new" / "dir" / "out.json"
    assert main([*args, "--out", str(out)]) == 0
    assert json.loads(out.read_text())


@pytest.mark.parametrize("verb", sorted(_OUT_VERBS))
def test_cli_unwritable_out_exit_2_before_any_trial(tmp_path, capsys, monkeypatch, verb):
    args = _OUT_VERBS[verb](*_cli_inputs(tmp_path))
    capsys.readouterr()
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" / "out.json"

    def no_trial(*_):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_trial_rng", no_trial)
    assert main([*args, "--out", str(out)]) == 2
    assert f"contract error: cannot write {out}: " in capsys.readouterr().err


def test_cli_out_that_is_a_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    assert main(["verify", "norms", "--L", "3", "--trials", "2", "--out", str(out)]) == 2
    assert f"contract error: cannot write {out}: " in capsys.readouterr().err


def test_cli_os_error_inside_a_suite_is_not_a_write_error(tmp_path, monkeypatch):
    # only the report's own write is translated; an OSError from a trial
    # propagates as it is
    def failing_trial(*_):
        raise OSError("not the output")

    monkeypatch.setattr(harness, "_trial_rng", failing_trial)
    out = tmp_path / "r.json"
    with pytest.raises(OSError, match="not the output"):
        main(["verify", "norms", "--L", "3", "--trials", "2", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("suite", ["restricted-weak", "endpoint", "domination"])
@pytest.mark.parametrize("d", [1, 2])
def test_rectangle_suites_keep_running_at_L1(suite, d):
    report, code = run_suite(ExperimentConfig(suite=suite, d=d, L=1, trials=2))
    assert code == 0 and report["passed"] and report["checks"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "identities", "--L", "3", "--trials", "2", "--family", "bogus"],
         "identities does not read family, which must keep its default 'haar', got 'bogus'"),
        (["verify", "norms", "--L", "4", "--trials", "2", "--family", "bogus"],
         "norms does not read family, which must keep its default 'haar', got 'bogus'"),
        (["verify", "localization", "--L", "6", "--family", "smooth"],
         "localization does not read family, which must keep its default 'haar', got 'smooth'"),
        (["verify", "identities", "--L", "3", "--trials", "1", "--p1", "4", "--p2", "4"],
         "identities does not read p1, which must keep its default 2.0, got 4.0"),
        (["verify", "endpoint", "--d", "1", "--L", "2", "--trials", "1", "--p2", "3"],
         "endpoint does not read p2, which must keep its default 2.0, got 3.0"),
    ] + [
        # below L=6 the smooth-tail-decay slope is fitted through two points
        (["verify", "localization", "--L", L], f"localization at d=1 needs L >= 6, got L={L}")
        for L in ("0", "1", "2", "3", "4", "5")
    ] + [
        (["verify", "identities", "--d", "1", "--L", "0", "--trials", "2"],
         "identities at d=1 needs L >= 3, got L=0"),
        (["verify", "identities", "--d", "1", "--L", "2", "--trials", "2"],
         "identities at d=1 needs L >= 3, got L=2"),
        # today's messages come first
        (["verify", "norms", "--d", "2", "--L", "4", "--family", "bogus"],
         "norms runs at d=1 only, got d=2"),
        (["verify", "localization", "--L", "-1", "--family", "bogus"], "resolution L=-1"),
    ] + [
        # with no rectangle, every check passed vacuously with zero class rows
        (["verify", suite, "--d", d, "--L", "0", "--trials", "2"],
         f"{suite} at d={d} needs L >= 1, got L=0")
        for suite in ("restricted-weak", "endpoint", "domination")
        for d in ("1", "2")
    ],
    ids=["identities-family", "norms-family", "localization-family", "identities-p1",
         "endpoint-p2", "localization-L0", "localization-L1", "localization-L2",
         "localization-L3", "localization-L4", "localization-L5", "identities-d1-L0",
         "identities-d1-L2", "norms-d2-before-family", "localization-negative-L-before-minimum",
         "restricted-weak-d1-L0", "restricted-weak-d2-L0", "endpoint-d1-L0", "endpoint-d2-L0",
         "domination-d1-L0", "domination-d2-L0"],
)
def test_cli_verify_refuses_config_that_is_ignored_or_cannot_pass_exit_2(
    tmp_path, capsys, args, message
):
    out = tmp_path / "report.json"
    assert main([*args, "--out", str(out)]) == 2
    assert f"contract error: {message}" in capsys.readouterr().err
    assert not out.exists()


# every run by its row name: the suites and the sweep
_RUNS = {**SUITES, "sweep": run_sweep}
# a value other than the default of each field a row may leave unread
_OTHER_VALUES = {"family": "gaussian", "p1": 4.0, "p2": 4.0}


def _least_config(name, **fields):
    """The smallest configuration that the row of `name` lets run."""
    row = harness._SUITE_ROWS[name]
    least_L = max(row.least_L[0], 1)
    return ExperimentConfig(suite=name, d=row.d or 1, L=least_L, L_list=(least_L, least_L + 1),
                            trials=row.trials, **fields)


class _ReadRecorder:
    """Stands in for an ExperimentConfig and records which of the row
    fields a run reads."""

    def __init__(self, cfg):
        self._cfg = cfg
        self.read = set()

    def __getattr__(self, name):
        if name in harness._ROW_FIELDS:
            self.read.add(name)
        return getattr(self._cfg, name)


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_suite_rows_name_the_fields_each_run_reads(monkeypatch, name):
    # `_report` records the whole config, and `run_sweep` calls
    # `_check_config`, which reads every field: neither is the run reading them
    monkeypatch.setattr(harness, "_report", lambda cfg, checks, extra=None: {"checks": checks})
    monkeypatch.setattr(harness, "_check_config", lambda *_: None)
    cfg = _ReadRecorder(_least_config(name))
    _RUNS[name](cfg)
    assert cfg.read == set(harness._SUITE_ROWS[name].reads)


@pytest.mark.parametrize("field", sorted(_OTHER_VALUES))
@pytest.mark.parametrize("name", sorted(_RUNS))
def test_a_field_other_than_its_default_is_refused_exactly_where_the_row_leaves_it_unread(
    monkeypatch, name, field
):
    cfg = _least_config(name, **{field: _OTHER_VALUES[field]})
    run = run_sweep if name == "sweep" else run_suite
    if field in harness._SUITE_ROWS[name].reads:
        assert run(cfg)
        return
    monkeypatch.setattr(harness, "_trial_rng", _no_trial)
    with pytest.raises(ContractError, match=f"{name} does not read {field}, which must keep"):
        run(cfg)


def test_identities_at_d2_keep_running_below_the_d1_minimum():
    report, code = run_suite(ExperimentConfig(suite="identities", d=2, L=2, trials=2))
    assert code == 0 and report["passed"]


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


def test_cli_paraproduct_reads_d_from_json_signals(tmp_path):
    # JSON signals carry their d: the triple is built at it, not at --d
    f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
    for seed, path in ((1, f1), (2, f2)):
        _cli("gen", "--kind", "random-haar", "--d", "2", "--L", "3", "--seed", str(seed),
             "--out", str(path))
    for form in ([], ["--f3", str(f1)]):
        r = _cli("paraproduct", "--f1", str(f1), "--f2", str(f2), *form)
        assert r.returncode == 0, r.stderr
        flagged = _cli("paraproduct", "--f1", str(f1), "--f2", str(f2), *form, "--d", "2")
        assert flagged.returncode == 64
        assert "argument --d: not allowed with JSON inputs only" in flagged.stderr


def test_cli_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"suite": "norms", "d": 1, "L": 5, "trials": 4, "seed": 11})
    )
    r = _cli("verify", "norms", "--config", str(cfg_path))
    assert r.returncode == 0


def _threshold_loop(t, collection):
    """`_hypothesis_threshold` as a loop over the members, each with its own
    partition: the m-th largest value of T on R, m = floor(FRACTION *
    cells) + 1, which equals ceil(FRACTION * cells) since no cell count
    2^j is a multiple of 100."""
    top = 0.0
    for rect in collection.members:
        block = t.values[rect.cell_slices(t.L)].ravel()
        m = math.floor(block.size * FRACTION) + 1
        top = max(top, float(np.partition(block, block.size - m)[block.size - m]))
    return top


@pytest.mark.parametrize(
    "d, L",
    [(1, 0), (1, 1), (1, 9), (2, 1), (2, 5), (3, 1), (3, 3), (1, 10), (1, 11), (2, 6), (3, 4)],
)
def test_hypothesis_threshold_equals_the_member_loop(d, L):
    rng = np.random.default_rng(10 * d + L)
    # members up to level L, one cell each at the finest
    rects = enumerate_rectangles(d, L)
    ties = np.floor(rng.random(((1 << L),) * d) * 4.0)  # many equal values
    for values in (rng.random(((1 << L),) * d), ties, np.zeros(((1 << L),) * d)):
        t = Signal(d, L, values)
        subsets = [[r for r in rects if rng.random() < p] for p in (0.0, 0.05, 0.3, 1.0)]
        # every member of at least 2^7 cells, where m > 1 (a finest member's
        # single cell would set the threshold to the largest value otherwise)
        subsets.append([r for r in rects if sum(r.levels) <= d * L - 7])
        # and each cell count alone, so that every member sets the threshold
        # somewhere: a wrong m shows at every size where it differs
        subsets += [[r for r in rects if sum(r.levels) == s] for s in range(d * L - 6)]
        for members in subsets:
            collection = RectangleCollection.of(members, L)
            got = _hypothesis_threshold(t, collection)
            assert got.hex() == _threshold_loop(t, collection).hex()
