"""Command-line entry point: batch analyses over edge-list files with stable
JSON reports.

Exit codes: 0 success; 1 input or numerical error; 2 the computation succeeded
but a verified inequality (or clique/identity verification) failed. The latter
distinguishes counterexample hunts from crashes.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache, partial
from importlib import import_module
from types import ModuleType
from typing import Callable, NamedTuple

from . import __version__
from .errors import ToolkitError
from .graphs import Graph, read_edge_list
from .serialize import dumps

# Only the chowla command runs chowla, but it is loaded with the CLI:
# bench/tracing.py looks up every module it wraps in sys.modules, and the
# planted_union workload runs no chowla job.
import_module(f"{__package__}.chowla")


def _parse_params(command: str, raw: str | None) -> dict:
    if not raw:
        return {}
    allowed = _COMMANDS[command].params
    out = {}
    for item in raw.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ToolkitError(f"malformed --params entry {item!r}, expected k=v")
        k, v = item.split("=", 1)
        if k not in allowed:
            raise ToolkitError(f"unknown parameter {k!r} for command {command!r}")
        out[k] = v
    return out


def _number(key: str, value: str, kind: type):
    """Convert one --params value with int or float; a bad or non-finite value is a ToolkitError."""
    try:
        out = kind(value)
    except ValueError:
        raise ToolkitError(f"parameter {key}={value!r} is not a valid {kind.__name__}") from None
    if not math.isfinite(out):
        raise ToolkitError(f"parameter {key}={value!r} is not a finite {kind.__name__}")
    return out


# --params converters: (key, raw value) -> typed value, or a ToolkitError naming both
_int, _float = partial(_number, kind=int), partial(_number, kind=float)


def _str(key: str, value: str) -> str:
    return value


def _sizes(key: str, value: str) -> list[int]:
    return [_int(key, x) for x in value.split(":")]


def _strict(key: str, value: str) -> bool:
    if value.lower() not in ("1", "0", "true", "false", "yes", "no"):
        raise ToolkitError(f"parameter {key}={value!r} is not one of 1/0/true/false/yes/no")
    return value.lower() in ("1", "true", "yes")


def _check_tol(tol: float | None) -> None:
    if tol is None:
        return
    from .spectral import _MAX_TOL

    # written so that NaN fails the comparison too
    if not 0.0 <= tol <= _MAX_TOL:
        raise ToolkitError(f"--tol must be a finite number in [0, {_MAX_TOL:g}], got {tol!r}")


def _emit(report: dict, args: argparse.Namespace) -> None:
    config = {"command": args.command, "input": args.input, "output": args.output, "seed": args.seed,
              "tol": args.tol, "params": dict(sorted(args.params.items())), "format": args.format}
    doc = {"version": __version__, "config": config}
    doc.update(report)
    if args.format == "json":
        text = dumps(doc, indent=2) + "\n"
    else:
        lines = []

        def flat(prefix: str, obj) -> None:
            if isinstance(obj, dict):
                for k, v in obj.items():
                    flat(f"{prefix}{k}.", v)
            elif isinstance(obj, (list, tuple)):
                lines.append(f"{prefix[:-1]} = {dumps(list(obj))}")
            else:
                lines.append(f"{prefix[:-1]} = {dumps(obj)}")

        flat("", doc)
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each handler turns the input graph (None for chowla and gen) into a report
# and an exit code. Its first argument is the module that does the work: main
# imports it, then reads the input and emits the report.
def _cmd_spectrum(spectral: ModuleType, g: Graph, args: argparse.Namespace, params: dict) -> tuple[dict, int]:
    s = spectral.spectrum(g, args.tol)
    bounds = spectral.eigen_bound_report(g, s)
    main = spectral.verify_main_inequality(g, s)
    report = {
        "n": g.n,
        "m": g.m,
        "lambda_min": s.lambda_min,
        "lambda_max": s.lambda_max,
        "eigenvalues": s.eigenvalues.tolist(),
        "bounds": bounds.to_json_dict(),
        "main_inequality": main.to_json_dict(),
    }
    return report, 0 if bounds.holds() and main.holds() else 2


def _cmd_maxcut(cuts: ModuleType, g: Graph, args: argparse.Namespace, params: dict) -> tuple[dict, int]:
    if g.n <= cuts.EXHAUSTIVE_CUT_LIMIT:
        rep = cuts.maxcut_exact(g)
    else:
        rep = cuts.maxcut_local_search(g, args.seed)
    doc = rep.to_json_dict()
    doc["certificates"]["surplus_cap"] = cuts.spectral_surplus_caps(g, args.tol)
    return doc, 0


def _cmd_clique(densify: ModuleType, g: Graph, args: argparse.Namespace, params: dict) -> tuple[dict, int]:
    cert = densify.clique_pipeline(g, tol=args.tol, **params)
    return cert.to_json_dict(), 0 if cert.verified else 2


def _cmd_chowla(chowla: ModuleType, g: None, args: argparse.Namespace, params: dict) -> tuple[dict, int]:
    try:
        a = [int(x) for x in args.a_list.split(",") if x]
    except ValueError:
        raise ToolkitError(f"could not parse A from {args.a_list!r}") from None
    report = chowla.chowla_certificate(a)
    tol = args.tol if args.tol is not None else 1e-8
    return report.to_json_dict(), 0 if report.holds(tol) else 2


def _cmd_decompose(structure: ModuleType, g: Graph, args: argparse.Namespace, params: dict) -> tuple[dict, int]:
    decomp = structure.clique_union_decompose(g, **params)
    doc = decomp.to_json_dict()
    doc["clique_union_like"] = decomp.clique_union_like
    doc["cherries"] = structure.cherry_count(g)
    return doc, 0


def _cmd_bisect(cuts: ModuleType, g: Graph, args: argparse.Namespace, params: dict) -> tuple[dict, int]:
    rep = cuts.bisection_exact(g)
    disc = cuts.discrepancy(g)
    doc = rep.to_json_dict()
    doc.update({"disc_plus": float(disc.disc_plus), "disc_minus": float(disc.disc_minus)})
    return doc, 0


def _cmd_gen(graphs: ModuleType, g: None, args: argparse.Namespace, params: dict) -> tuple[None, int]:
    family = params.pop("family", None)
    if family is None:
        raise ToolkitError("gen requires --params family=...")
    if not args.output:
        raise ToolkitError("gen requires --output")
    if family == "Gnp":
        params["seed"] = args.seed
    graphs.write_edge_list(graphs.generate(family, **params), args.output)
    return None, 0


class _Command(NamedTuple):
    help: str
    module: str  # the eigencliques module passed to run, imported when the command runs
    run: Callable[[ModuleType, Graph | None, argparse.Namespace, dict], tuple[dict | None, int]]
    reads_input: bool
    params: dict  # --params key -> converter(key, raw value)


_COMMANDS = {
    "spectrum": _Command("eigenvalues, eigenvector bounds, and the recursive spectral inequality", "spectral",
                         _cmd_spectrum, True, {}),
    "maxcut": _Command("exact or local-search MaxCut with spectral caps", "cuts", _cmd_maxcut, True, {}),
    "clique": _Command("four-phase clique extraction with a verified certificate", "densify", _cmd_clique, True,
                       {"mode": _str}),
    "chowla": _Command("Cayley/cosine certificate for an inline set A", "chowla", _cmd_chowla, False, {}),
    "decompose": _Command("clique-union decomposition with exact edit distance", "structure", _cmd_decompose, True,
                          {"extractor": _str}),
    "bisect": _Command("exact bisection width, deficit, and discrepancy", "cuts", _cmd_bisect, True, {}),
    "gen": _Command("write a generated family to an edge-list file", "graphs", _cmd_gen, False,
                    {"family": _str, "sizes": _sizes, "n": _int, "p": _float, "r": _int, "k": _int, "strict": _strict}),
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: main may run many times in one."""
    parser = argparse.ArgumentParser(prog="eigencliques", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name == "chowla":
            p.add_argument("a_list", help="comma-separated positive integers, e.g. 1,2,5")
        p.add_argument("--input", default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--params", default=None, help="comma-separated k=v overrides")
        p.add_argument("--format", choices=["json", "text"], default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        _check_tol(args.tol)
        args.params = _parse_params(args.command, args.params)  # raw strings, echoed in the report
        if command.reads_input and not args.input:
            raise ToolkitError(f"{args.command} requires --input")
        params = {k: command.params[k](k, v) for k, v in args.params.items()}
        # imported before the read: compiling a module between the read and the
        # first eigh was seen to raise the peak RSS
        module = import_module(f"{__package__}.{command.module}")
        g = read_edge_list(args.input) if command.reads_input else None
        report, code = command.run(module, g, args, params)
        if report is not None:
            _emit(report, args)
        return code
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
