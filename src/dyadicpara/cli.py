"""Command-line front end.

Verbs: gen, norm, transform, paraproduct, verify <suite>, sweep.
Exit codes: 0 all checks pass, 1 a verification check failed, 2 a contract
was violated (an unreadable input or an unwritable --out among them), 64
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ContractError, DyadicError
from .families import AdaptedFamily
from .harness import (
    ExperimentConfig,
    SUITE_NAMES,
    generate_signal,
    run_suite,
    run_sweep,
)
from .norms import bmo_norm_1param, h1_norm, product_bmo_lower
from .paraproducts import eval_B, eval_Lambda, standard_triple
from .signals import Signal, lp_norm, weak_quasinorm
from .transforms import CoefficientField, coefficients, reconstruct

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no prefix matching: `sweep --L 4` would read as `--L-list 4`
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _parse_rect(text: str):
    try:
        pairs = [part.split(",") for part in text.split(";")]
        return [[int(k), int(j)] for k, j in pairs]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected pairs \"k,j;k,j\", got {text!r}") from None


def _parse_levels(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected levels \"L,L,...\", got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="dyadicpara", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def file_grid(p):
        # the grid gen makes, or that of a CSV input, which stores values only
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--L", type=int, default=6)

    def run_flags(p):
        # None means "not set here": the config file and its defaults fill the rest
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--p1", type=float, default=None)
        p.add_argument("--p2", type=float, default=None)
        p.add_argument("--family", default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--config", type=str, default=None)

    g = sub.add_parser("gen", help="generate a signal")
    g.set_defaults(run=_cmd_gen)
    file_grid(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=str, default=None)
    g.add_argument(
        "--kind",
        choices=("constant", "indicator", "bump", "random-cells", "random-haar"),
        default="random-haar",
    )
    g.add_argument("--c", type=float, default=1.0, help="constant value")
    g.add_argument("--rect", type=_parse_rect, default=None, help='pairs "k,j;k,j"')

    n = sub.add_parser("norm", help="evaluate a norm of a stored signal")
    n.set_defaults(run=_cmd_norm)
    file_grid(n)
    n.add_argument("--in", dest="infile", required=True)
    n.add_argument(
        "--norm",
        choices=("lp", "weak", "h1", "bmo", "product-bmo"),
        default="lp",
    )
    n.add_argument("--p", type=float, default=2.0)
    n.add_argument("--r", type=float, default=1.0)

    t = sub.add_parser("transform", help="coefficient transform of a signal")
    t.set_defaults(run=_cmd_transform)
    file_grid(t)
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--out", type=str, default=None)
    t.add_argument("--family", default="haar")
    t.add_argument("--inverse", action="store_true")

    p = sub.add_parser("paraproduct", help="evaluate the bilinear paraproduct")
    p.set_defaults(run=_cmd_paraproduct)
    file_grid(p)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--family", default="haar")
    # with --f3 the result is the trilinear form, a number: no signal to write
    third = p.add_mutually_exclusive_group()
    third.add_argument("--f3", default=None)
    third.add_argument("--out", type=str, default=None)

    v = sub.add_parser("verify", help="run a verification suite")
    v.set_defaults(run=_cmd_verify)
    v.add_argument("suite", choices=SUITE_NAMES)
    v.add_argument("--L", type=int, default=None)
    run_flags(v)

    s = sub.add_parser("sweep", help="norm-ratio stability across resolutions")
    s.set_defaults(run=_cmd_sweep)
    s.add_argument("--L-list", dest="L_list", type=_parse_levels, default=None)
    run_flags(s)
    return parser


def _read(load, path: str, *args):
    """Run a file loader; an unreadable or malformed file violates the contract."""
    try:
        return load(path, *args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ContractError(f"cannot read {path}: {exc}") from exc


def _make_parent(path):
    """Make the missing parent directories of an --out path (None: none);
    failing to violates the contract, as an unreadable input does."""
    if path:
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ContractError(f"cannot write {path}: {exc}") from exc


def _write(save, obj, path: str):
    """Run a file saver, `save(obj, path)`, after `_make_parent`; an
    unwritable file violates the contract."""
    _make_parent(path)
    try:
        save(obj, path)
    except OSError as exc:
        raise ContractError(f"cannot write {path}: {exc}") from exc


def _load_signal(path: str, d: int, L: int) -> Signal:
    if Path(path).suffix == ".json":
        return _read(Signal.load_json, path)
    return _read(Signal.load_csv, path, d, L)


def _save_signal(f: Signal, path: str):
    p = Path(path)
    if p.suffix == ".json":
        f.save_json(p)
    else:
        f.save_csv(p)


def _cmd_gen(args) -> int:
    params = {}
    if args.kind == "constant":
        params["c"] = args.c
    if args.kind in ("indicator", "bump"):
        if not args.rect:
            raise DyadicError("--rect is required for indicator/bump")
        params["rect"] = args.rect
    f = generate_signal(args.kind, args.d, args.L, seed=args.seed, params=params)
    if args.out:
        _write(_save_signal, f, args.out)
    print(json.dumps({"kind": args.kind, "d": f.d, "L": f.L, "out": args.out}))
    return 0


def _cmd_norm(args) -> int:
    f = _load_signal(args.infile, args.d, args.L)
    if args.norm == "lp":
        value, params = lp_norm(f, args.p), {"p": args.p}
    elif args.norm == "weak":
        value, params = weak_quasinorm(f, args.r), {"r": args.r}
    elif args.norm == "h1":
        value, params = h1_norm(f), {}
    elif args.norm == "bmo":
        value, params = bmo_norm_1param(f), {}
    else:
        value, params = product_bmo_lower(f), {"bound": "lower"}
    print(json.dumps({"norm": value, "parameters": {"kind": args.norm, **params}}))
    return 0


def _cmd_transform(args) -> int:
    if args.inverse:
        field = _read(CoefficientField.load_json, args.infile)
        f = reconstruct(field)
        if args.out:
            _write(_save_signal, f, args.out)
        print(json.dumps({"inverse": True, "d": f.d, "L": f.L, "out": args.out}))
        return 0
    f = _load_signal(args.infile, args.d, args.L)
    fam = AdaptedFamily.make(args.family, f.d)
    field = coefficients(f, fam)
    if args.out:
        _write(CoefficientField.save_json, field, args.out)
    print(
        json.dumps(
            {"family": args.family, "energy": field.energy(), "out": args.out}
        )
    )
    return 0


def _cmd_paraproduct(args) -> int:
    f1 = _load_signal(args.f1, args.d, args.L)
    f2 = _load_signal(args.f2, args.d, args.L)
    spec = standard_triple(f1.d, args.family)
    if args.f3:
        f3 = _load_signal(args.f3, args.d, args.L)
        value = eval_Lambda(spec, (f1, f2, f3))
        print(json.dumps({"form": value}))
        return 0
    b = eval_B(spec, (f1, f2))
    if args.out:
        _write(_save_signal, b, args.out)
    print(
        json.dumps(
            {"l1": lp_norm(b, 1.0), "l2": lp_norm(b, 2.0), "out": args.out}
        )
    )
    return 0


# the ExperimentConfig fields that verify and sweep take as flags
_CONFIG_FLAGS = ("d", "L", "L_list", "trials", "seed", "p1", "p2", "family", "out", "format")


def _make_config(args, suite: str) -> ExperimentConfig:
    """The config file's fields with the flags given over them, in one
    construction, so an `r` the file does not name follows the final p1
    and p2."""
    data = _read(_config_data, args.config) if args.config else {}
    for name in _CONFIG_FLAGS:
        if getattr(args, name, None) is not None:
            data[name] = getattr(args, name)
    return ExperimentConfig.from_json({**data, "suite": suite})


def _config_data(path: str) -> dict:
    """A config file's fields, refused when malformed even where a flag
    overrides them."""
    data = json.loads(Path(path).read_text())
    ExperimentConfig.from_json(data)
    return data


def _cmd_verify(args) -> int:
    cfg = _make_config(args, suite=args.suite)
    _make_parent(cfg.out)  # before the first trial
    report, code = run_suite(cfg)
    for check in report["checks"]:
        status = "pass" if check["ok"] else "FAIL"
        print(f"[{status}] {cfg.suite}/{check['id']}")
    if code != 0:
        print(f"first failing check: {report['first_failure']}", file=sys.stderr)
    return code


def _cmd_sweep(args) -> int:
    cfg = _make_config(args, suite="sweep")
    _make_parent(cfg.out)  # before the first trial
    report = run_sweep(cfg)
    for row in report["rows"]:
        print(
            f"L={row['L']}: max_ratio={row['max_ratio']:.6g} "
            f"max_weak_ratio={row['max_weak_ratio']:.6g}"
        )
    factor = report["checks"][0]["growth_factor"]
    print(f"growth factor: {factor:.6g}")
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except DyadicError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
