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
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from . import __version__, chowla, cuts, densify, spectral, structure
from .errors import ToolkitError
from .graphs import generate, read_edge_list, write_edge_list
from .serialize import dumps

# Loosest accepted --tol: the default is 1e-9 (1e-7 above n = 500), and a
# larger tolerance would pass eigensolver output that is plainly wrong.
_MAX_TOL = 1e-3


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    output: str | None = None
    seed: int = 0
    tol: float | None = None
    params: dict = field(default_factory=dict)
    format: str = "json"
    a_list: str | None = None  # chowla's inline set A; not echoed in the report

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "input": self.input,
            "output": self.output,
            "seed": self.seed,
            "tol": self.tol,
            "params": dict(sorted(self.params.items())),
            "format": self.format,
        }


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


def _check_tol(tol: float | None) -> float | None:
    # written so that NaN fails the comparison too
    if tol is not None and not 0.0 <= tol <= _MAX_TOL:
        raise ToolkitError(f"--tol must be a finite number in [0, {_MAX_TOL:g}], got {tol!r}")
    return tol


def _emit(report: dict, config: RunConfig) -> None:
    doc = {"version": __version__, "config": config.to_json_dict()}
    doc.update(report)
    if config.format == "json":
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
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(config: RunConfig, params: dict) -> int:
    g = read_edge_list(config.input)
    s = spectral.spectrum(g, config.tol)
    bounds = spectral.eigen_bound_report(g, config.tol)
    main = spectral.verify_main_inequality(g, tol=config.tol)
    report = {
        "n": g.n,
        "m": g.m,
        "lambda_min": s.lambda_min,
        "lambda_max": s.lambda_max,
        "eigenvalues": s.eigenvalues.tolist(),
        "bounds": bounds.to_json_dict(),
        "main_inequality": main.to_json_dict(),
    }
    _emit(report, config)
    return 0 if bounds.holds() and main.holds() else 2


def _cmd_maxcut(config: RunConfig, params: dict) -> int:
    g = read_edge_list(config.input)
    cutoff = params.get("cutoff", cuts.EXHAUSTIVE_CUT_LIMIT)
    if g.n <= cutoff:
        rep = cuts.maxcut_exact(g, cutoff)
    else:
        rep = cuts.maxcut_local_search(g, config.seed)
    caps = cuts.spectral_surplus_caps(g, config.tol)
    doc = rep.to_json_dict()
    doc["certificates"]["surplus_cap"] = caps.ub_surp_quarter
    _emit(doc, config)
    return 0


def _cmd_clique(config: RunConfig, params: dict) -> int:
    g = read_edge_list(config.input)
    cert = densify.clique_pipeline(g, tol=config.tol, **params)
    _emit(cert.to_json_dict(), config)
    return 0 if cert.verified else 2


def _cmd_chowla(config: RunConfig, params: dict) -> int:
    try:
        a = [int(x) for x in config.a_list.split(",") if x]
    except ValueError:
        raise ToolkitError(f"could not parse A from {config.a_list!r}") from None
    report = chowla.chowla_certificate(a)
    _emit(report.to_json_dict(), config)
    tol = config.tol if config.tol is not None else 1e-8
    return 0 if report.holds(tol) else 2


def _cmd_decompose(config: RunConfig, params: dict) -> int:
    g = read_edge_list(config.input)
    kwargs = {"merge_threshold" if k == "threshold" else k: v for k, v in params.items()}
    decomp = structure.clique_union_decompose(g, **kwargs)
    doc = decomp.to_json_dict()
    doc["clique_union_like"] = decomp.clique_union_like
    doc["cherries"] = structure.cherry_count(g)
    _emit(doc, config)
    return 0


def _cmd_bisect(config: RunConfig, params: dict) -> int:
    g = read_edge_list(config.input)
    rep = cuts.bisection_exact(g, params.get("cutoff", cuts.EXHAUSTIVE_CUT_LIMIT))
    disc = cuts.discrepancy(g)
    doc = rep.to_json_dict()
    doc.update({"disc_plus": float(disc.disc_plus), "disc_minus": float(disc.disc_minus)})
    _emit(doc, config)
    return 0


def _cmd_gen(config: RunConfig, params: dict) -> int:
    family = params.pop("family", None)
    if family is None:
        raise ToolkitError("gen requires --params family=...")
    if not config.output:
        raise ToolkitError("gen requires --output")
    if family == "Gnp":
        params["seed"] = config.seed
    write_edge_list(generate(family, **params), config.output)
    return 0


class _Command(NamedTuple):
    help: str
    run: Callable[[RunConfig, dict], int]
    reads_input: bool
    params: dict  # --params key -> converter(key, raw value)


_COMMANDS = {
    "spectrum": _Command("eigenvalues, eigenvector bounds, and the recursive spectral inequality", _cmd_spectrum, True,
                         {}),
    "maxcut": _Command("exact or local-search MaxCut with spectral caps", _cmd_maxcut, True, {"cutoff": _int}),
    "clique": _Command("four-phase clique extraction with a verified certificate", _cmd_clique, True,
                       {"mode": _str, "gamma": _float, "eps": _float, "rho": _float, "delta": _float}),
    "chowla": _Command("Cayley/cosine certificate for an inline set A", _cmd_chowla, False, {}),
    "decompose": _Command("clique-union decomposition with exact edit distance", _cmd_decompose, True,
                          {"floor": _float, "threshold": _float, "extractor": _str}),
    "bisect": _Command("exact bisection width, deficit, and discrepancy", _cmd_bisect, True, {"cutoff": _int}),
    "gen": _Command("write a generated family to an edge-list file", _cmd_gen, False,
                    {"family": _str, "sizes": _sizes, "n": _int, "p": _float, "r": _int, "k": _int, "strict": _strict}),
}


def main(argv: list[str] | None = None) -> int:
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
    args = parser.parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        config = RunConfig(
            command=args.command,
            input=args.input,
            output=args.output,
            seed=args.seed,
            tol=_check_tol(args.tol),
            params=_parse_params(args.command, args.params),
            format=args.format,
            a_list=getattr(args, "a_list", None),
        )
        if command.reads_input and not config.input:
            raise ToolkitError(f"{args.command} requires --input")
        params = {k: command.params[k](k, v) for k, v in config.params.items()}
        return command.run(config, params)
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
