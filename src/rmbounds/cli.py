"""Command-line front end.

Subcommands: bound, table, profile, forbidden, genus2, sharpness, verify.
Every command states its result once, as a json object, a csv table and
plain lines, and _emit prints the one --format names; results go to stdout,
logs to stderr.  The json schemas round-trip into the domain types via the
parse_* helpers below.

RMBOUNDS_BASE_URL and RMBOUNDS_CACHE override the --base-url and --cache
flags when set; all mathematical parameters are flags only.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import logging
import os
import sys

from . import bounds, lmfdb, verify
from .arith import is_prime, primes_up_to
from .bounds import BoundTable, BoundTriple, TableCell, render_table
from .cyclo import (
    ExponentProfile,
    Genus2Report,
    ProfileParseError,
    RmConstraintReport,
    analyze_profile,
    enumerate_forbidden,
    genus2_rm_analysis,
)
from .lmfdb import OrbitDimCache, OrbitDimClient, SharpnessWitness

FORMATS = ("plain", "csv", "json")

ENV_BASE_URL = "RMBOUNDS_BASE_URL"
ENV_CACHE = "RMBOUNDS_CACHE"


PMAX_LIMIT = 10**7  # --pmax bounds a sieve of pmax + 1 bytes


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc


def _prime_arg(text: str) -> int:
    value = _int_arg(text)
    try:
        prime = is_prime(value)
    except ValueError as exc:  # value is past the deterministic primality limit
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not prime:
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _positive_arg(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _pmax_arg(text: str) -> int:
    value = _positive_arg(text)
    if value > PMAX_LIMIT:
        raise argparse.ArgumentTypeError(f"expected a prime bound <= {PMAX_LIMIT}, got {value}")
    return value


def _prime_bound_arg(text: str) -> int:
    value = _pmax_arg(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"expected a prime bound >= 2, got {value}")
    return value


def _emit(args, obj: dict, header: list[str], rows: list[list], plain: list[str]) -> None:
    """Print a command's result in the chosen format: its json object, csv table or plain lines.

    csv writes None as an empty field.
    """
    match args.format:
        case "json":
            print(json.dumps({"command": args.command, **obj}, indent=2))
        case "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        case _:
            print("\n".join(plain))


def _client_from_args(args) -> OrbitDimClient:
    base_url = os.environ.get(ENV_BASE_URL) or args.base_url or lmfdb.BASE_URL
    cache_path = os.environ.get(ENV_CACHE) or args.cache
    cache = OrbitDimCache(cache_path) if cache_path else None
    return OrbitDimClient(base_url=base_url, cache=cache, offline=args.offline)


@contextlib.contextmanager
def _command_client(args):
    """The command's client; its cache, if any, is closed when the command ends."""
    client = _client_from_args(args)
    try:
        yield client
    finally:
        if client.cache is not None:
            client.cache.close()


# -- bound -----------------------------------------------------------------


def cmd_bound(args) -> int:
    triple = BoundTriple.compute(args.p, args.d)
    p, d = triple.p, triple.d
    header = ["p", "d", "bk", "bk_prime", "b0"]
    row = [p, d, triple.bk, triple.bk_prime, triple.b0]
    plain = [
        f"p = {p}, d = {d}",
        f"B({p},{d})  = {triple.bk}    conductor-exponent bound for v_p(N^d), any abelian variety",
        f"B'({p},{d}) = {triple.bk_prime}    the same bound per dimension: floor(B/d)",
        f"B0({p},{d}) = {triple.b0}    bound on v_p(N) under maximal real multiplication",
    ]
    gl2 = None
    if args.gl2:
        cap = bounds.b0_gl2_bound(p, d)
        gl2 = {"exponent_cap": cap, "conductor_cap": d * cap}
        header += ["gl2_exponent_cap", "gl2_conductor_cap"]
        row += [cap, d * cap]
        plain.append(
            f"GL(2)-type: v_{p}(N) <= {cap} per dimension, "
            f"v_{p}(conductor) <= {d * cap} in dimension {d}"
        )
    _emit(args, {**triple.to_json_dict(), "gl2": gl2}, header, [row], plain)
    return 0


def parse_bound_json(text: str) -> tuple[BoundTriple, dict | None]:
    obj = json.loads(text)
    return BoundTriple.from_json_dict(obj), obj.get("gl2")


# -- table -----------------------------------------------------------------


def _annotations(args) -> dict[tuple[int, int], str] | None:
    if not args.annotate:
        return None
    with _command_client(args) as client:
        witnesses = client.annotate_table(args.dmax, args.budget, strict=args.strict, p_max=args.pmax)
    return {key: witness.status for key, witness in witnesses.items()}


def cmd_table(args) -> int:
    sharpness = _annotations(args)
    table = render_table(args.dmax, args.pmax, sharpness=sharpness, include_trivial=args.full)
    dims = range(1, table.d_max + 1)
    header = ["d"]
    for p in table.primes:
        header += [f"p{p}", f"p{p}_status"] if args.annotate else [f"p{p}"]
    rows = []
    for d in dims:
        row: list[str] = [str(d)]
        for p in table.primes:
            cell = table.cells.get((d, p))
            row.append(cell.display if cell else "")
            if args.annotate:
                row.append(cell.sharpness if cell else "")
        rows.append(row)
    rendered = {key: cell.render() for key, cell in table.cells.items()}
    widths = {}
    for p in table.primes:
        column = [rendered[(d, p)] for d in dims if (d, p) in rendered]
        widths[p] = max([len(f"p={p}")] + [len(text) for text in column])
    plain = [("d\\p  " + "  ".join(f"p={p}".ljust(widths[p]) for p in table.primes)).rstrip()]
    for d in dims:
        texts = [rendered.get((d, p), "").ljust(widths[p]) for p in table.primes]
        plain.append((f"{d:<3}  " + "  ".join(texts)).rstrip())
    obj = {
        "d_max": table.d_max,
        "p_max": table.p_max,
        "annotated": args.annotate,
        "cells": [table.cells[key].to_json_dict() for key in sorted(table.cells)],
    }
    _emit(args, obj, header, rows, plain)
    return 0


def parse_table_json(text: str) -> BoundTable:
    obj = json.loads(text)
    cells = {}
    for item in obj["cells"]:
        cell = TableCell.from_json_dict(item)
        cells[(cell.triple.d, cell.triple.p)] = cell
    return BoundTable(
        d_max=obj["d_max"],
        p_max=obj["p_max"],
        primes=tuple(primes_up_to(obj["p_max"])),
        cells=cells,
    )


# -- profile ---------------------------------------------------------------


def cmd_profile(args) -> int:
    report = analyze_profile(ExponentProfile.parse(args.profile), args.d)
    refined = sorted(report.refined_bounds.items())
    header = ["d", "profile", "admissible", "determination", "forced", "forced_degree", "residual_degree", "refined_bounds"]
    row = [
        report.dimension,
        str(report.profile),
        report.admissible,
        report.determination.value,
        report.forced.name,
        report.forced.degree,
        report.residual_degree,
        ";".join(f"{p}:{cap}" for p, cap in refined),
    ]
    plain = [
        f"d = {report.dimension}, profile {report.profile or '(empty)'}",
        f"admissible: {'yes' if report.admissible else 'no'}",
        f"forced subfield: {report.forced.name} (degree {report.forced.degree})",
        f"determination: {report.determination.value}",
    ]
    if report.residual_degree is not None:
        plain.append(f"residual degree: {report.residual_degree}")
    for p, cap in refined:
        rest = report.profile.without(p)
        given = f" given {rest}" if len(rest) else ""
        plain.append(f"refined bound: v_{p}(N) <= {cap}{given}")
    _emit(args, report.to_json_dict(), header, [row], plain)
    return 0


def parse_profile_json(text: str) -> RmConstraintReport:
    return RmConstraintReport.from_json_dict(json.loads(text))


# -- forbidden ---------------------------------------------------------------


def cmd_forbidden(args) -> int:
    profiles = enumerate_forbidden(
        args.d, args.pmax, args.max_entries, include_singletons=args.include_singletons
    )
    obj = {
        "d": args.d,
        "prime_bound": args.pmax,
        "max_entries": args.max_entries,
        "include_singletons": args.include_singletons,
        "profiles": [profile.to_json_list() for profile in profiles],
    }
    if profiles:
        plain = [f"minimal forbidden exponent combinations for d = {args.d}:"]
        plain += [f"  {' * '.join(f'{p}^{e}' for p, e in profile)}" for profile in profiles]
    else:
        plain = [f"no forbidden combinations for d = {args.d} (primes <= {args.pmax}, <= {args.max_entries} primes)"]
    _emit(args, obj, ["profile"], [[str(profile)] for profile in profiles], plain)
    return 0


def parse_forbidden_json(text: str) -> list[ExponentProfile]:
    obj = json.loads(text)
    return [ExponentProfile.from_json_list(items) for items in obj["profiles"]]


# -- genus2 ------------------------------------------------------------------


def cmd_genus2(args) -> int:
    report = genus2_rm_analysis(ExponentProfile.parse(args.profile))
    row = [
        str(report.profile),
        "unknown" if report.simple is None else report.simple,
        report.field.name if report.field else "",
    ]
    plain = [f"conductor profile {report.profile}"]
    if report.simple is None:
        plain.append("simple: unknown (exponents stay within the two-elliptic-curve range)")
    else:
        plain.append("simple: yes (exponent exceeds the product-of-elliptic-curves cap)")
        if report.analysis is not None and not report.analysis.admissible:
            plain.append("warning: halved profile is inadmissible in dimension 2; no such surface exists")
        if report.field is not None:
            plain.append(f"endomorphism algebra: {report.field.name}")
        elif report.analysis is not None and report.analysis.admissible:
            plain.append("endomorphism algebra: not determined by exponent data")
    _emit(args, report.to_json_dict(), ["profile", "simple", "field"], [row], plain)
    return 0


def parse_genus2_json(text: str) -> Genus2Report:
    return Genus2Report.from_json_dict(json.loads(text))


# -- sharpness ---------------------------------------------------------------


def cmd_sharpness(args) -> int:
    with _command_client(args) as client:
        witness = client.sharpness_scan(args.p, args.d, args.budget, strict=args.strict)
    p, d = witness.p, witness.d
    if witness.status == lmfdb.NONE_FOUND:
        line = f"p = {p}, d = {d}: no witness found up to level {args.budget} (existence is not ruled out)"
    else:
        line = f"p = {p}, d = {d}: {witness.status} at level {witness.level} (v_{p} = {witness.exponent_attained})"
    header = ["p", "d", "status", "exponent_attained", "level"]
    row = [p, d, witness.status, witness.exponent_attained, witness.level]
    _emit(args, witness.to_json_dict(), header, [row], [line])
    return 0


def parse_sharpness_json(text: str) -> SharpnessWitness:
    return SharpnessWitness.from_json_dict(json.loads(text))


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = verify.run_all(p_max=args.pmax, d_max=args.dmax)
    ok = all(result.ok for result in results)
    obj = {"p_max": args.pmax, "d_max": args.dmax, "ok": ok, "results": [r.to_json_dict() for r in results]}
    rows = [[r.name, r.ok, r.cases, r.counterexample] for r in results]
    _emit(args, obj, ["name", "ok", "cases", "counterexample"], rows, [verify.format_report(results)])
    return 0 if ok else 1


def parse_verify_json(text: str) -> list[verify.PropertyResult]:
    return [verify.PropertyResult(**item) for item in json.loads(text)["results"]]


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; each parse_args call returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="rmbounds",
        description="Local conductor exponent bounds for modular abelian varieties with maximal real multiplication.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="plain")

    def add_network(p):
        p.add_argument("--cache", default=None, help="path to the JSON-lines cache file")
        p.add_argument("--base-url", default=None, help="database API base URL")
        p.add_argument("--offline", action="store_true", help="never touch the network")
        p.add_argument("--strict", action="store_true", help="fail instead of skipping unavailable levels")

    p_bound = sub.add_parser("bound", help="the three bounds for one (p, d)")
    p_bound.add_argument("--p", type=_prime_arg, required=True)
    p_bound.add_argument("--d", type=_positive_arg, required=True)
    p_bound.add_argument("--gl2", action="store_true", help="also print the GL(2)-type exponent cap")
    add_format(p_bound)

    p_table = sub.add_parser("table", help="bound grid over d = 1..dmax, primes <= pmax")
    p_table.add_argument("--dmax", type=_positive_arg, required=True)
    p_table.add_argument("--pmax", type=_prime_bound_arg, default=19)
    p_table.add_argument("--full", action="store_true", help="include the trivial cells with p > 2d + 1")
    p_table.add_argument("--annotate", action="store_true", help="merge sharpness flags from orbit data")
    p_table.add_argument("--budget", type=_positive_arg, default=10000, help="largest level scanned")
    add_network(p_table)
    add_format(p_table)

    p_profile = sub.add_parser("profile", help="admissibility analysis of a factored level")
    p_profile.add_argument("--d", type=_positive_arg, required=True)
    p_profile.add_argument("profile", help='prime-power profile, e.g. "2^9,5^3"')
    add_format(p_profile)

    p_forbidden = sub.add_parser("forbidden", help="minimal inadmissible exponent combinations")
    p_forbidden.add_argument("--d", type=_positive_arg, required=True)
    p_forbidden.add_argument("--pmax", type=_pmax_arg, default=19)
    p_forbidden.add_argument("--max-entries", type=_positive_arg, default=2)
    p_forbidden.add_argument("--include-singletons", action="store_true")
    add_format(p_forbidden)

    p_genus2 = sub.add_parser("genus2", help="simplicity and endomorphism field of a genus-2 RM Jacobian")
    p_genus2.add_argument("profile", help='conductor valuations, e.g. "5^6"')
    add_format(p_genus2)

    p_sharp = sub.add_parser("sharpness", help="search orbit data for a bound-attaining newform")
    p_sharp.add_argument("--p", type=_prime_arg, required=True)
    p_sharp.add_argument("--d", type=_positive_arg, required=True)
    p_sharp.add_argument("--budget", type=_positive_arg, required=True)
    add_network(p_sharp)
    add_format(p_sharp)

    p_verify = sub.add_parser("verify", help="exhaustively check the bound inequalities")
    p_verify.add_argument("--pmax", type=_pmax_arg, default=1000)
    p_verify.add_argument("--dmax", type=_positive_arg, default=100)
    add_format(p_verify)

    return parser


@contextlib.contextmanager
def _stderr_logging(verbose: bool):
    """Log to this call's sys.stderr, at INFO with --verbose and WARNING without, for this call only.

    Handlers others put on the root logger stay, and the root level is only
    ever lowered, then restored, so their records are never dropped.
    """
    level = logging.INFO if verbose else logging.WARNING
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    handler.setLevel(level)
    root = logging.getLogger()
    saved = root.level
    root.addHandler(handler)
    root.setLevel(min(saved, level))
    try:
        yield
    finally:
        root.removeHandler(handler)
        root.setLevel(saved)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # looked up per call, so a rebound cmd_* takes effect
    with _stderr_logging(args.verbose):
        try:
            return command(args)
        except (lmfdb.LmfdbError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, ProfileParseError) else 1  # a malformed profile is a usage error


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
