"""Command line front end for the experiment runners.

Subcommands mirror the runner names; every one accepts the same flag set
and writes a CSV (default) or JSON table to --out, "-" meaning stdout.
Exit code is 0 when all contracts hold, 1 when a contract is violated
or the command line or config file is rejected (with a message naming the
flag or the key), 2 when quadrature failed to converge.

A JSON --config file supplies values for anything not given on the
command line; recognized keys are tol, max_nodes, n_set, a_set, seed and
format, plus the keys of ``experiments.RUNNER_OPTIONS``: eps_ladder,
c_set, z_ladder, function, and domain (a mapping with kind, dim, and
radii/radius/powers).  List values are JSON arrays.  Explicit flags win
over the file.  A runner's keys are accepted by every command and read by
the runners that take them, ``all`` included.  Every key is parsed before
any runner starts; a key no runner reads, a value its parser refuses, or
a ``function`` whose dimension is not the ``domain``'s (either one taken
from ``run_reinhardt`` if left out) ends the command with a message naming
the key, and so does a value from a flag or the file that ``RunConfig``
refuses or, for ``blowup`` and ``all``, an ``n_set`` that ``blowup_orders``
refuses.  The subcommands and the runners of ``all`` are ``RUNNERS``'s.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import (RUNNER_OPTIONS, RUNNERS, RunConfig, array_of,
                          blowup_orders, reinhardt_case, run_all,
                          runner_options, write_result)
from .registry import default_registry

_COMMANDS = (*RUNNERS, "all")


def _format(value) -> str:
    if value not in ("csv", "json"):
        raise ValueError(f"must be csv or json, got {value!r}")
    return value


# Every key a config file may hold, with the parser of its JSON value:
# the RunConfig fields, the table format, and the runners' own keys.
_RUN_KEYS = {"tol": float, "max_nodes": int, "seed": int,
             "n_set": array_of(int), "a_set": array_of(float)}
_OPTION_KEYS = {key: parse for opts in RUNNER_OPTIONS.values()
                for key, parse in opts.items()}
_PARSERS = {**_RUN_KEYS, "format": _format, **_OPTION_KEYS}


def _parse_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip())


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # exit 1 with the message, as for a bad config; 2 is non-convergence
        raise SystemExit(f"{self.prog}: {message}")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--tol", type=float, default=None,
                    help="relative tolerance for quadrature and ladders")
    sp.add_argument("--max-nodes", type=int, default=None,
                    help="node budget per circle/torus integral "
                         "(volume rules get a 64x radial allowance)")
    sp.add_argument("--n-set", type=_parse_ints, default=None,
                    help="comma separated partial-sum orders")
    sp.add_argument("--a-set", type=_parse_floats, default=None,
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
    """The config file's keys, each parsed by its ``_PARSERS`` entry."""
    if not path:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise SystemExit(f"config file {path} must hold a JSON object")
    parsed = {}
    for key, value in doc.items():
        if key not in _PARSERS:
            raise SystemExit(f"config file {path}: no runner reads key {key!r}")
        try:
            parsed[key] = _PARSERS[key](value)
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"config file {path}: key {key!r}: {exc}") \
                from None
    try:
        reinhardt_case(default_registry(),
                       **runner_options("reinhardt", parsed))
    except ValueError as exc:
        raise SystemExit(f"config file {path}: key 'function': {exc}") \
            from None
    return parsed


def _build_config(args, fcfg: dict) -> RunConfig:
    flags = {"tol": args.tol, "max_nodes": args.max_nodes, "seed": args.seed,
             "n_set": args.n_set, "a_set": args.a_set}
    given = {key: fcfg[key] for key in _RUN_KEYS if key in fcfg}
    given.update((key, v) for key, v in flags.items() if v is not None)
    if "n_set" in given:
        given["n_set_square"] = given["n_set"]
    try:
        cfg = RunConfig(**given)
        if args.command in ("blowup", "all"):
            blowup_orders(cfg)
    except ValueError as exc:
        raise SystemExit(f"hardylab: {exc}") from None
    return cfg


def main(argv=None) -> int:
    parser = _Parser(
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
