"""Command-line front end.

Subcommands: bound, table, profile, forbidden, genus2, sharpness, verify.
Every command renders to plain text (default), csv, or json; results go to
stdout, logs to stderr.  The json schemas round-trip into the domain types
via the parse_* helpers below.

RMBOUNDS_BASE_URL and RMBOUNDS_CACHE override the --base-url and --cache
flags when set; all mathematical parameters are flags only.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys

from . import bounds, cyclo, lmfdb, verify
from .arith import is_prime
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
from .lmfdb import LmfdbConfig, OrbitDimCache, OrbitDimClient, SharpnessWitness

FORMATS = ("plain", "csv", "json")

ENV_BASE_URL = "RMBOUNDS_BASE_URL"
ENV_CACHE = "RMBOUNDS_CACHE"


def _prime_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _positive_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _prime_bound_arg(text: str) -> int:
    value = _positive_arg(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"expected a prime bound >= 2, got {value}")
    return value


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _client_from_args(args) -> OrbitDimClient:
    config = LmfdbConfig()
    base_url = os.environ.get(ENV_BASE_URL) or args.base_url
    if base_url:
        config.base_url = base_url
    cache_path = os.environ.get(ENV_CACHE) or args.cache
    cache = OrbitDimCache(cache_path) if cache_path else None
    return OrbitDimClient(config=config, cache=cache, offline=args.offline)


# -- bound -----------------------------------------------------------------


def cmd_bound(args) -> int:
    triple = BoundTriple.compute(args.p, args.d)
    gl2 = None
    if args.gl2:
        cap = bounds.b0_gl2_bound(args.p, args.d)
        gl2 = {"exponent_cap": cap, "conductor_cap": args.d * cap}
    if args.format == "json":
        obj = {"command": "bound", **triple.to_json_dict(), "gl2": gl2}
        _emit_json(obj)
    elif args.format == "csv":
        header = ["p", "d", "bk", "bk_prime", "b0"]
        row = [triple.p, triple.d, triple.bk, triple.bk_prime, triple.b0]
        if gl2:
            header += ["gl2_exponent_cap", "gl2_conductor_cap"]
            row += [gl2["exponent_cap"], gl2["conductor_cap"]]
        print(_csv_text(header, [row]))
    else:
        p, d = triple.p, triple.d
        print(f"p = {p}, d = {d}")
        print(f"B({p},{d})  = {triple.bk}    conductor-exponent bound for v_p(N^d), any abelian variety")
        print(f"B'({p},{d}) = {triple.bk_prime}    the same bound per dimension: floor(B/d)")
        print(f"B0({p},{d}) = {triple.b0}    bound on v_p(N) under maximal real multiplication")
        if gl2:
            print(
                f"GL(2)-type: v_{p}(N) <= {gl2['exponent_cap']} per dimension, "
                f"v_{p}(conductor) <= {gl2['conductor_cap']} in dimension {d}"
            )
    return 0


def parse_bound_json(text: str) -> tuple[BoundTriple, dict | None]:
    obj = json.loads(text)
    return BoundTriple.from_json_dict(obj), obj.get("gl2")


# -- table -----------------------------------------------------------------


def _annotations(args) -> dict[tuple[int, int], str] | None:
    if not args.annotate:
        return None
    client = _client_from_args(args)
    witnesses = client.annotate_table(args.dmax, args.budget, strict=args.strict)
    return {key: witness.status for key, witness in witnesses.items()}


def cmd_table(args) -> int:
    sharpness = _annotations(args)
    table = render_table(args.dmax, args.pmax, sharpness=sharpness, include_trivial=args.full)
    if args.format == "json":
        cells = [table.cells[key].to_json_dict() for key in sorted(table.cells)]
        _emit_json(
            {
                "command": "table",
                "d_max": table.d_max,
                "p_max": table.p_max,
                "annotated": args.annotate,
                "cells": cells,
            }
        )
    elif args.format == "csv":
        header = ["d"]
        for p in table.primes:
            header.append(f"p{p}")
            if args.annotate:
                header.append(f"p{p}_status")
        rows = []
        for d in range(1, table.d_max + 1):
            row: list[str] = [str(d)]
            for p in table.primes:
                cell = table.cells.get((d, p))
                row.append(cell.display if cell else "")
                if args.annotate:
                    row.append(cell.sharpness if cell else "")
            rows.append(row)
        print(_csv_text(header, rows))
    else:
        widths = {}
        for p in table.primes:
            column = [table.cells[(d, p)].render() for d in range(1, table.d_max + 1) if (d, p) in table.cells]
            widths[p] = max([len(f"p={p}")] + [len(text) for text in column])
        header = "d\\p  " + "  ".join(f"p={p}".ljust(widths[p]) for p in table.primes)
        print(header.rstrip())
        for d in range(1, table.d_max + 1):
            parts = [f"{d:<3}  "]
            for p in table.primes:
                cell = table.cells.get((d, p))
                parts.append((cell.render() if cell else "").ljust(widths[p]) + "  ")
            print("".join(parts).rstrip())
    return 0


def parse_table_json(text: str) -> BoundTable:
    obj = json.loads(text)
    cells = {}
    for item in obj["cells"]:
        cell = TableCell.from_json_dict(item)
        cells[(cell.triple.d, cell.triple.p)] = cell
    from .arith import primes_up_to

    return BoundTable(
        d_max=obj["d_max"],
        p_max=obj["p_max"],
        primes=tuple(primes_up_to(obj["p_max"])),
        cells=cells,
    )


# -- profile ---------------------------------------------------------------


def _render_report_plain(report: RmConstraintReport) -> list[str]:
    lines = [
        f"d = {report.dimension}, profile {report.profile or '(empty)'}",
        f"admissible: {'yes' if report.admissible else 'no'}",
        f"forced subfield: {report.forced.name} (degree {report.forced.degree})",
        f"determination: {report.determination.value}",
    ]
    if report.residual_degree is not None:
        lines.append(f"residual degree: {report.residual_degree}")
    for p, cap in sorted(report.refined_bounds.items()):
        rest = report.profile.without(p)
        given = f" given {rest}" if len(rest) else ""
        lines.append(f"refined bound: v_{p}(N) <= {cap}{given}")
    return lines


def cmd_profile(args) -> int:
    profile = ExponentProfile.parse(args.profile)
    try:
        report = analyze_profile(profile, args.d)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        _emit_json({"command": "profile", **report.to_json_dict()})
    elif args.format == "csv":
        header = ["d", "profile", "admissible", "determination", "forced", "forced_degree", "residual_degree", "refined_bounds"]
        refined = ";".join(f"{p}:{cap}" for p, cap in sorted(report.refined_bounds.items()))
        print(
            _csv_text(
                header,
                [[
                    report.dimension,
                    str(report.profile),
                    report.admissible,
                    report.determination.value,
                    report.forced.name,
                    report.forced.degree,
                    "" if report.residual_degree is None else report.residual_degree,
                    refined,
                ]],
            )
        )
    else:
        print("\n".join(_render_report_plain(report)))
    return 0


def parse_profile_json(text: str) -> RmConstraintReport:
    return RmConstraintReport.from_json_dict(json.loads(text))


# -- forbidden ---------------------------------------------------------------


def cmd_forbidden(args) -> int:
    profiles = enumerate_forbidden(
        args.d, args.pmax, args.max_entries, include_singletons=args.include_singletons
    )
    if args.format == "json":
        _emit_json(
            {
                "command": "forbidden",
                "d": args.d,
                "prime_bound": args.pmax,
                "max_entries": args.max_entries,
                "include_singletons": args.include_singletons,
                "profiles": [profile.to_json_list() for profile in profiles],
            }
        )
    elif args.format == "csv":
        print(_csv_text(["profile"], [[str(profile)] for profile in profiles]))
    else:
        if not profiles:
            print(f"no forbidden combinations for d = {args.d} (primes <= {args.pmax}, <= {args.max_entries} primes)")
        else:
            print(f"minimal forbidden exponent combinations for d = {args.d}:")
            for profile in profiles:
                print(f"  {' * '.join(f'{p}^{e}' for p, e in profile)}")
    return 0


def parse_forbidden_json(text: str) -> list[ExponentProfile]:
    obj = json.loads(text)
    return [ExponentProfile.from_json_list(items) for items in obj["profiles"]]


# -- genus2 ------------------------------------------------------------------


def cmd_genus2(args) -> int:
    profile = ExponentProfile.parse(args.profile)
    try:
        report = genus2_rm_analysis(profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        _emit_json({"command": "genus2", **report.to_json_dict()})
    elif args.format == "csv":
        print(
            _csv_text(
                ["profile", "simple", "field"],
                [[
                    str(report.profile),
                    "unknown" if report.simple is None else report.simple,
                    report.field.name if report.field else "",
                ]],
            )
        )
    else:
        print(f"conductor profile {report.profile}")
        if report.simple is None:
            print("simple: unknown (exponents stay within the two-elliptic-curve range)")
        else:
            print("simple: yes (exponent exceeds the product-of-elliptic-curves cap)")
            if report.analysis is not None and not report.analysis.admissible:
                print("warning: halved profile is inadmissible in dimension 2; no such surface exists")
            if report.field is not None:
                print(f"endomorphism algebra: {report.field.name}")
            elif report.analysis is not None and report.analysis.admissible:
                print("endomorphism algebra: not determined by exponent data")
    return 0


def parse_genus2_json(text: str) -> Genus2Report:
    return Genus2Report.from_json_dict(json.loads(text))


# -- sharpness ---------------------------------------------------------------


def cmd_sharpness(args) -> int:
    client = _client_from_args(args)
    witness = client.sharpness_scan(args.p, args.d, args.budget, strict=args.strict)
    if args.format == "json":
        _emit_json({"command": "sharpness", **witness.to_json_dict()})
    elif args.format == "csv":
        print(
            _csv_text(
                ["p", "d", "status", "exponent_attained", "level"],
                [[witness.p, witness.d, witness.status,
                  "" if witness.exponent_attained is None else witness.exponent_attained,
                  "" if witness.level is None else witness.level]],
            )
        )
    else:
        if witness.status == lmfdb.NONE_FOUND:
            print(
                f"p = {witness.p}, d = {witness.d}: no witness found up to level {args.budget} "
                "(existence is not ruled out)"
            )
        else:
            print(
                f"p = {witness.p}, d = {witness.d}: {witness.status} at level {witness.level} "
                f"(v_{witness.p} = {witness.exponent_attained})"
            )
    return 0


def parse_sharpness_json(text: str) -> SharpnessWitness:
    return SharpnessWitness.from_json_dict(json.loads(text))


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = verify.run_all(p_max=args.pmax, d_max=args.dmax)
    ok = all(result.ok for result in results)
    if args.format == "json":
        _emit_json(
            {
                "command": "verify",
                "p_max": args.pmax,
                "d_max": args.dmax,
                "ok": ok,
                "results": [result.to_json_dict() for result in results],
            }
        )
    elif args.format == "csv":
        rows = [[r.name, r.ok, r.cases, r.counterexample or ""] for r in results]
        print(_csv_text(["name", "ok", "cases", "counterexample"], rows))
    else:
        print(verify.format_report(results))
    return 0 if ok else 1


def parse_verify_json(text: str) -> list[verify.PropertyResult]:
    obj = json.loads(text)
    return [
        verify.PropertyResult(
            name=item["name"], ok=item["ok"], cases=item["cases"], counterexample=item["counterexample"]
        )
        for item in obj["results"]
    ]


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p_bound.set_defaults(func=cmd_bound)

    p_table = sub.add_parser("table", help="bound grid over d = 1..dmax, primes <= pmax")
    p_table.add_argument("--dmax", type=_positive_arg, required=True)
    p_table.add_argument("--pmax", type=_prime_bound_arg, default=19)
    p_table.add_argument("--full", action="store_true", help="include the trivial cells with p > 2d + 1")
    p_table.add_argument("--annotate", action="store_true", help="merge sharpness flags from orbit data")
    p_table.add_argument("--budget", type=_positive_arg, default=10000, help="largest level scanned")
    add_network(p_table)
    add_format(p_table)
    p_table.set_defaults(func=cmd_table)

    p_profile = sub.add_parser("profile", help="admissibility analysis of a factored level")
    p_profile.add_argument("--d", type=_positive_arg, required=True)
    p_profile.add_argument("profile", help='prime-power profile, e.g. "2^9,5^3"')
    add_format(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_forbidden = sub.add_parser("forbidden", help="minimal inadmissible exponent combinations")
    p_forbidden.add_argument("--d", type=_positive_arg, required=True)
    p_forbidden.add_argument("--pmax", type=_positive_arg, default=19)
    p_forbidden.add_argument("--max-entries", type=_positive_arg, default=2)
    p_forbidden.add_argument("--include-singletons", action="store_true")
    add_format(p_forbidden)
    p_forbidden.set_defaults(func=cmd_forbidden)

    p_genus2 = sub.add_parser("genus2", help="simplicity and endomorphism field of a genus-2 RM Jacobian")
    p_genus2.add_argument("profile", help='conductor valuations, e.g. "5^6"')
    add_format(p_genus2)
    p_genus2.set_defaults(func=cmd_genus2)

    p_sharp = sub.add_parser("sharpness", help="search orbit data for a bound-attaining newform")
    p_sharp.add_argument("--p", type=_prime_arg, required=True)
    p_sharp.add_argument("--d", type=_positive_arg, required=True)
    p_sharp.add_argument("--budget", type=_positive_arg, required=True)
    add_network(p_sharp)
    add_format(p_sharp)
    p_sharp.set_defaults(func=cmd_sharpness)

    p_verify = sub.add_parser("verify", help="exhaustively check the bound inequalities")
    p_verify.add_argument("--pmax", type=_positive_arg, default=1000)
    p_verify.add_argument("--dmax", type=_positive_arg, default=100)
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ProfileParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except lmfdb.LmfdbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
