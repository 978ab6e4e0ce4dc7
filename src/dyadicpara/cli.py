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

    def common(p):
        # None means "not set here": config files and defaults fill the rest
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--L", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("json", "csv"), default=None)

    g = sub.add_parser("gen", help="generate a signal")
    common(g)
    g.add_argument(
        "--kind",
        choices=("constant", "indicator", "bump", "random-cells", "random-haar"),
        default="random-haar",
    )
    g.add_argument("--c", type=float, default=1.0, help="constant value")
    g.add_argument("--rect", type=_parse_rect, default=None, help='pairs "k,j;k,j"')

    n = sub.add_parser("norm", help="evaluate a norm of a stored signal")
    common(n)
    n.add_argument("--in", dest="infile", required=True)
    n.add_argument(
        "--norm",
        choices=("lp", "weak", "h1", "bmo", "product-bmo"),
        default="lp",
    )
    n.add_argument("--p", type=float, default=2.0)
    n.add_argument("--r", type=float, default=1.0)

    t = sub.add_parser("transform", help="coefficient transform of a signal")
    common(t)
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--family", default="haar")
    t.add_argument("--inverse", action="store_true")

    p = sub.add_parser("paraproduct", help="evaluate the bilinear paraproduct")
    common(p)
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.add_argument("--f3", default=None)
    p.add_argument("--family", default="haar")

    v = sub.add_parser("verify", help="run a verification suite")
    common(v)
    v.add_argument("suite", help="|".join(SUITE_NAMES))
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--p1", type=float, default=None)
    v.add_argument("--p2", type=float, default=None)
    v.add_argument("--family", default=None)
    v.add_argument("--config", type=str, default=None)

    s = sub.add_parser("sweep", help="norm-ratio stability across resolutions")
    common(s)
    s.add_argument("--L-list", dest="L_list", type=_parse_levels, default=None)
    s.add_argument("--trials", type=int, default=None)
    s.add_argument("--p1", type=float, default=None)
    s.add_argument("--p2", type=float, default=None)
    s.add_argument("--r", type=float, default=None)
    s.add_argument("--family", default=None)
    s.add_argument("--config", type=str, default=None)
    return parser


def _grid_args(args):
    d = args.d if args.d is not None else 1
    L = args.L if args.L is not None else 6
    seed = args.seed if args.seed is not None else 0
    return d, L, seed


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
    d, L, seed = _grid_args(args)
    params = {}
    if args.kind == "constant":
        params["c"] = args.c
    if args.kind in ("indicator", "bump"):
        if not args.rect:
            raise DyadicError("--rect is required for indicator/bump")
        params["rect"] = args.rect
    f = generate_signal(args.kind, d, L, seed=seed, params=params)
    if args.out:
        _write(_save_signal, f, args.out)
    print(json.dumps({"kind": args.kind, "d": f.d, "L": f.L, "out": args.out}))
    return 0


def _cmd_norm(args) -> int:
    d, L, _ = _grid_args(args)
    f = _load_signal(args.infile, d, L)
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
    d, L, _ = _grid_args(args)
    f = _load_signal(args.infile, d, L)
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
    d, L, _ = _grid_args(args)
    f1 = _load_signal(args.f1, d, L)
    f2 = _load_signal(args.f2, d, L)
    spec = standard_triple(f1.d, args.family)
    if args.f3:
        f3 = _load_signal(args.f3, d, L)
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


def _make_config(args, suite=None) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = _read(ExperimentConfig.from_file, args.config)
    else:
        cfg = ExperimentConfig()
    cfg.suite = suite or cfg.suite
    for name in ("d", "L", "trials", "seed", "p1", "p2", "r", "family", "out", "format"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "L_list", None):
        cfg.L_list = args.L_list
    return cfg


def _cmd_verify(args, parser) -> int:
    if args.suite not in SUITE_NAMES:
        parser.error(f"unknown suite {args.suite!r}")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "gen":
            return _cmd_gen(args)
        if args.verb == "norm":
            return _cmd_norm(args)
        if args.verb == "transform":
            return _cmd_transform(args)
        if args.verb == "paraproduct":
            return _cmd_paraproduct(args)
        if args.verb == "verify":
            return _cmd_verify(args, parser)
        if args.verb == "sweep":
            return _cmd_sweep(args)
        parser.error(f"unknown verb {args.verb!r}")
    except DyadicError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return 2
    return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
