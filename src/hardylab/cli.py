"""Command line front end for the experiment runners.

Subcommands mirror the runner names; every one accepts the same flag set
and writes a CSV (default) or JSON table to --out, "-" meaning stdout.
Exit code is 0 when all contracts hold, 1 when a contract is violated,
2 when quadrature failed to converge.

A JSON --config file supplies values for anything not given on the
command line; recognized keys are tol, max_nodes, n_set, a_set, seed and
format, plus the keys of ``experiments.RUNNER_OPTIONS``: eps_ladder,
c_set, z_ladder, function, and domain (a mapping with kind, dim, and
radii/radius/powers).  Explicit flags win over the file.  A runner's keys
are accepted by every command and read by the runners that take them,
``all`` included; any other key is rejected.  The subcommands, and the
runners ``all`` runs, are those of ``experiments.RUNNERS``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import (RUNNER_OPTIONS, RUNNERS, RunConfig, run_all,
                          runner_options, write_result)

_COMMANDS = (*RUNNERS, "all")
_RUN_KEYS = ("tol", "max_nodes", "n_set", "a_set", "seed", "format")
_OPTION_KEYS = set().union(*RUNNER_OPTIONS.values())


def _parse_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--tol", type=float, default=None,
                    help="relative tolerance for quadrature and ladders")
    sp.add_argument("--max-nodes", type=int, default=None,
                    help="node budget per circle/torus integral "
                         "(volume rules get a 64x radial allowance)")
    sp.add_argument("--n-set", type=str, default=None,
                    help="comma separated partial-sum orders")
    sp.add_argument("--a-set", type=str, default=None,
                    help="comma separated extremal-family parameters")
    sp.add_argument("--out", type=str, default="-",
                    help="output path, '-' for stdout "
                         "(a directory for 'all')")
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                    default=None, help="table format (default csv)")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for registry coefficients and batteries")
    sp.add_argument("--config", type=str, default=None,
                    help="JSON file with defaults and the domain description")


def _load_file_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise SystemExit(f"config file {path} must hold a JSON object")
    for key in cfg:
        if key not in _RUN_KEYS and key not in _OPTION_KEYS:
            raise SystemExit(f"config file {path}: no runner reads key {key!r}")
    if cfg.get("format", "csv") not in ("csv", "json"):
        raise SystemExit(f"config file {path}: key 'format' must be csv or "
                         f"json, got {cfg['format']!r}")
    return cfg


def _build_config(args, fcfg: dict) -> RunConfig:
    base = RunConfig()
    tol = args.tol if args.tol is not None else fcfg.get("tol", base.tol)
    max_nodes = args.max_nodes if args.max_nodes is not None \
        else fcfg.get("max_nodes", base.max_nodes)
    seed = args.seed if args.seed is not None else fcfg.get("seed", base.seed)
    if args.n_set is not None:
        n_set = _parse_ints(args.n_set)
    else:
        n_set = tuple(fcfg.get("n_set", base.n_set))
    if args.a_set is not None:
        a_set = _parse_floats(args.a_set)
    else:
        a_set = tuple(fcfg.get("a_set", base.a_set))
    n_square = n_set if (args.n_set is not None or "n_set" in fcfg) \
        else base.n_set_square
    return RunConfig(tol=float(tol), max_nodes=int(max_nodes), n_set=n_set,
                     n_set_square=n_square, a_set=a_set, seed=int(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical experiments on Hardy/Bergman norms of "
                    "Taylor partial sums.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        _add_common(sp)
    args = parser.parse_args(argv)
    fcfg = _load_file_config(args.config)
    cfg = _build_config(args, fcfg)
    fmt = args.fmt if args.fmt is not None else fcfg.get("format", "csv")
    options = {k: v for k, v in fcfg.items() if k in _OPTION_KEYS}

    if args.command == "all":
        outdir = args.out if args.out != "-" else "hardylab-out"
        os.makedirs(outdir, exist_ok=True)
        results = run_all(cfg, **options)
        worst = 0
        for name, result in results.items():
            path = os.path.join(outdir, f"{name}.{fmt}")
            write_result(result, path, fmt)
            print(f"{name}: exit {result.exit_code} -> {path}")
            worst = max(worst, result.exit_code)
        return worst

    result = RUNNERS[args.command](
        cfg, **runner_options(args.command, options))
    write_result(result, args.out, fmt)
    if args.out != "-":
        print(f"{result.name}: exit {result.exit_code} -> {args.out}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
