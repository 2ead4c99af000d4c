"""Command-line entry point: instance generation, algorithm runs, and
verification campaigns.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 instance
does not meet the algorithm's preconditions.
"""
from __future__ import annotations

import inspect
import json
import sys
from typing import NoReturn

import click
from click.core import ParameterSource

from . import __version__, adversaries, campaigns, generators, serial, svg
from .engine import ALGORITHMS, simulate
from .errors import DuplicateX, InvalidInstance, NcmatchError, NotConvex
from .geometry import BNM, MNM

EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3


def _fail(code: int, message: str) -> NoReturn:
    click.echo(json.dumps({"error": message}), err=True)
    sys.exit(code)


def _options_for(registry: dict, name: str, options: dict) -> dict:
    """The options that ``registry[name]``'s signature names, by keyword; one
    given on the command line that it does not take raises InvalidInstance."""
    ctx = click.get_current_context()
    takes = inspect.signature(registry[name]).parameters
    for param in ctx.command.params:
        given = ctx.get_parameter_source(param.name) == ParameterSource.COMMANDLINE
        if given and param.name in options and param.name not in takes:
            raise InvalidInstance(f"{name} does not take {param.opts[0]}")
    return {p: options[p] for p in takes if p in options}


@click.group()
@click.version_option(__version__, prog_name="ncmatch")
def main() -> None:
    """Online non-crossing matching: algorithms, adversaries, verification."""


FAMILIES = {
    "bnm-perm": adversaries.bnm_red_instance,
    "mnm-family": adversaries.mnm_family_instance,
    "markov": adversaries.markov_instance,
    "random-convex": generators.random_convex_instance,
    "random-general": generators.random_general_instance,
}


@main.command()
@click.argument("family", type=click.Choice(list(FAMILIES)))
@click.option("--n", type=int, default=None, help="Half the point count.")
@click.option("--k", type=int, default=None, help="Scale of the interval family (n = 3k).")
@click.option("--j", type=int, default=None, help="Interval count for mnm-family.")
@click.option("--intervals", type=str, default="", help="Comma-separated interval ids.")
@click.option("--sigma", type=str, default=None, help="Comma-separated permutation values.")
@click.option("--kind", type=click.Choice([MNM, BNM]), default=MNM, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def generate(family, out, **options) -> None:
    """Write an instance file; the family's builder gets the options its
    signature names, comma-separated lists as lists of ints.  An option
    given on the command line that the builder does not take is an error."""
    meta = {"family": family, "seed": options["seed"], "generator": f"ncmatch-{__version__}"}
    try:
        kwargs = _options_for(FAMILIES, family, options)
        missing = [f"--{p}" for p, v in kwargs.items() if v is None]
        if missing:
            raise InvalidInstance(f"{family} needs {' and '.join(missing)}")
        for p in {"sigma", "intervals"} & kwargs.keys():
            kwargs[p] = [int(v) for v in kwargs[p].split(",") if v]
        serial.dump_instance(out, FAMILIES[family](**kwargs), meta=meta)
    except (NcmatchError, ValueError, OSError) as exc:
        _fail(EXIT_BAD_INPUT, f"{type(exc).__name__}: {exc}")
    click.echo(json.dumps({"written": out, "meta": meta}))


@main.command()
@click.argument("algorithm", type=click.Choice(list(ALGORITHMS)))
@click.argument("instance_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--svg", "svg_out", type=click.Path(dir_okay=False), default=None)
@click.option(
    "--unknown-n", "known_n", flag_value=False, default=True, help="asap only: ship n on the tape."
)
@click.option("--tie-break", type=click.Choice(["min", "max"]), default="min")
def run(algorithm, instance_path, svg_out, **options) -> None:
    """Run one algorithm over an instance file and print a JSON report; the
    algorithm takes the options its signature names, and no others."""
    try:
        alg = ALGORITHMS[algorithm](**_options_for(ALGORITHMS, algorithm, options))
        ai = serial.load_instance(instance_path)
    except (NcmatchError, OSError) as exc:
        _fail(EXIT_BAD_INPUT, f"{type(exc).__name__}: {exc}")
    instance = ai.instance
    try:
        result = simulate(alg, instance)
    except (NotConvex, DuplicateX, InvalidInstance) as exc:
        _fail(EXIT_PRECONDITION, f"{type(exc).__name__}: {exc}")
    except NcmatchError as exc:
        _fail(EXIT_BAD_INPUT, f"{type(exc).__name__}: {exc}")
    report = {
        "algorithm": algorithm,
        "kind": instance.kind,
        "geometry": instance.geometry,
        "n": instance.n,
        "matched": result.violations.matched_count,
        "unmatched": instance.size - result.violations.matched_count,
        "perfect": result.violations.perfect,
        "bits_written": result.bits_written,
        "bits_read": result.bits_read,
        "violations": {
            "crossings": len(result.violations.crossings),
            "color": len(result.violations.color_violations),
            "duplicate_endpoints": len(result.violations.duplicate_endpoints),
        },
        "work": result.work,
        "meta": ai.meta,
    }
    if svg_out:
        try:
            svg.write_svg(svg_out, instance, result.matching)
        except OSError as exc:
            _fail(EXIT_BAD_INPUT, f"{type(exc).__name__}: {exc}")
        report["svg"] = svg_out
    click.echo(json.dumps(report))


@main.command()
@click.argument("check", type=click.Choice(sorted(campaigns.CHECKS)))
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=int, default=None)
def verify(check, **options) -> None:
    """Run a verification campaign; exit 1 if any sub-check fails.

    The campaign takes the options its signature names, and no others; an
    option left out takes the campaign's own default."""
    try:
        kwargs = _options_for(campaigns.CHECKS, check, options)
        summary = campaigns.CHECKS[check](**{k: v for k, v in kwargs.items() if v is not None})
    except (NcmatchError, ValueError) as exc:
        _fail(EXIT_BAD_INPUT, f"{type(exc).__name__}: {exc}")
    click.echo(json.dumps(summary))
    if not summary["ok"]:
        sys.exit(EXIT_VERIFY_FAILED)
