"""Command-line entry points for the contagion toolkit.

Four subcommands: ``generate`` writes a network edge list, ``fit``
estimates a discrete power-law tail from a degree file, ``shock`` clears a
single-bank default on a stored network, and ``sweep`` runs an experiment
(or size/capital sweeps) from a JSON spec file. Progress goes to stderr
through the ``contagion`` logger; results go to files or to stdout as
single JSON records, so output can be piped. Bad input (an unreadable or
malformed file, a bank id out of range) exits with status 1 and a
one-line message on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from . import balance, clearing, harness, netgen, powerlaw

__all__ = ["main", "build_parser"]

# The package logger, named rather than ``__name__`` so that progress still
# reaches the handler ``main`` attaches when this module runs as __main__.
logger = logging.getLogger("contagion")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contagion",
        description="Interbank-network contagion simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a directed scale-free network")
    gen.add_argument("--alpha", type=float, required=True)
    gen.add_argument("--beta", type=float, required=True)
    gen.add_argument("--gamma", type=float, required=True)
    gen.add_argument("--delta-in", type=float, required=True, dest="delta_in")
    gen.add_argument("--delta-out", type=float, required=True, dest="delta_out")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", type=Path, required=True, help="edge-list path")

    fit = sub.add_parser("fit", help="fit a discrete power-law tail")
    fit.add_argument(
        "--input", type=Path, required=True, help="file with one integer per line"
    )

    shock = sub.add_parser("shock", help="clear a single-bank default")
    shock.add_argument("--edges", type=Path, required=True, help="edge-list path")
    shock.add_argument("--bank", type=int, required=True, help="bank to shock")
    shock.add_argument("--lambda-min", type=float, default=0.05, dest="lambda_min")
    shock.add_argument("--sigma", type=float, default=0.01)
    shock.add_argument("--xi", type=float, default=2.0)
    shock.add_argument("--seed", type=int, default=0, help="balance-sheet seed")
    shock.add_argument(
        "--recovery", type=float, default=0.0,
        help="surviving fraction of the shocked bank's nonbank assets",
    )
    shock.add_argument(
        "--defaulted-recovery", type=float, default=1.0, dest="defaulted_recovery",
        help="fraction of other defaulted banks' nonbank assets available "
        "to their creditors",
    )
    shock.add_argument(
        "--trace", type=Path, default=None,
        help="write per-round JSON lines of the cascade to this path",
    )

    sweep = sub.add_parser("sweep", help="run an experiment from a JSON spec")
    sweep.add_argument(
        "--spec", type=Path, required=True,
        help="JSON file with ExperimentSpec fields",
    )
    sweep.add_argument("--out", type=Path, required=True, help="run directory")
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="also run a size sweep over these node counts",
    )
    sweep.add_argument(
        "--lambdas", type=float, nargs="+", default=None,
        help="also run a capital sweep over these floors",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    params = netgen.GenParams(
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        delta_in=args.delta_in,
        delta_out=args.delta_out,
        n_target=args.nodes,
        seed=args.seed,
    )
    graph = netgen.generate(params)
    netgen.write_edge_list(graph, args.out, args.seed)
    logger.info(
        "[contagion] wrote %d links over %d nodes to %s",
        graph.link_count, graph.n, args.out,
    )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    samples = []
    for line_no, line in netgen._text_lines(args.input):
        if line.startswith("#"):
            continue
        try:
            samples.append(int(line))
        except ValueError:
            raise ValueError(
                f"{args.input}:{line_no}: malformed sample line {line!r}"
            ) from None
    try:
        fit = powerlaw.fit_discrete(samples)
    except ValueError as exc:  # too few, all equal, or not positive
        raise ValueError(f"{args.input}: {exc}") from None
    print(
        json.dumps(
            {
                "exponent": fit.exponent,
                "x_min": fit.x_min,
                "ks": fit.ks_distance,
                "n_tail": fit.n_tail,
            }
        )
    )
    return 0


def _cmd_shock(args: argparse.Namespace) -> int:
    graph = netgen.read_edge_list(args.edges)
    try:
        exposures = balance.build_exposures(graph)
    except ValueError as exc:  # a linkless file
        raise ValueError(f"{args.edges}: {exc}") from None
    sheets = balance.build_balance_sheets(
        exposures,
        balance.BalanceConfig(
            lambda_min=args.lambda_min, sigma=args.sigma, xi=args.xi, seed=args.seed
        ),
    )
    if not 0 <= args.bank < graph.n:
        raise ValueError(f"--bank {args.bank} outside [0, {graph.n})")
    scenario = clearing.ShockScenario(
        args.bank,
        recovery_on_nonbank=args.recovery,
        defaulted_nonbank_recovery=args.defaulted_recovery,
    )
    trace = nullcontext() if args.trace is None else open(args.trace, "w", encoding="ascii")
    with trace as sink:
        solution = clearing.clear(exposures, sheets, scenario, trace=sink)
    a0 = clearing.total_initial_assets(sheets)
    result = clearing.cascade_metrics(solution, sheets, args.bank, a0)
    print(
        json.dumps(
            {
                "bank": result.shocked_bank,
                "di": result.di,
                "ti": result.ti,
                "dc": result.dc,
                "defaulted": sorted(solution.defaulted),
                "iterations": solution.iterations,
            }
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = harness.ExperimentSpec.from_json(args.spec)
    sweeps = (("size", "n_nodes", args.sizes), ("capital", "lambda_min", args.lambdas))
    # One run for all points: a repeated spec runs once, and the capital
    # points share each replication's network with the base spec.
    points = [replace(spec, **{p: v}) for _, p, values in sweeps for v in values or ()]
    reports = iter(harness._run_specs([spec, *points], args.workers))
    harness.write_run_directory(next(reports), args.out)
    logger.info("[contagion] run directory: %s", args.out)
    for name, parameter, values in sweeps:
        if values:
            path = Path(args.out) / f"{name}_sweep.csv"
            harness.write_sweep_csv([next(reports) for _ in values], parameter, path)
            logger.info("[contagion] %s sweep done", name)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "shock": _cmd_shock,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The library logs progress at INFO without a handler of its own.
    handler = logging.StreamHandler(sys.stderr)
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, MemoryError) as exc:
        # Bad input (unreadable or malformed files, ids out of range, node
        # counts too large to allocate): one line on stderr, no traceback.
        message = str(exc) or type(exc).__name__  # a bare MemoryError has no text
        print(f"contagion {args.command}: error: {message}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)


if __name__ == "__main__":
    raise SystemExit(main())
