"""Command-line front end: one COMMANDS row per subcommand (bound, table, profile, forbidden, genus2, sharpness, verify).

main prints a row's result in the one format --format names, calling only that format's renderer;
results go to stdout, logs to stderr.
parse_json reads json output back: each document is rebuilt from its inputs and compared field by field.
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
from itertools import groupby, islice
from typing import Callable, NamedTuple

from . import lmfdb, verify
from .arith import PMAX_LIMIT, require_int, require_prime
from .bounds import BoundTable, BoundTriple, _cell_text, _trivial, render_table
from .cyclo import (
    _DIGIT_LIMIT,
    _MAX_DIGITS,
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


def _int_arg(check=None):
    """An argparse type: a positive integer that check, the library's check for the flag, accepts.

    A ValueError from check becomes argparse's usage error (exit 2) with
    check's own message.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
        try:
            if value < 1:
                raise ValueError(f"expected a positive integer, got {value}")
            return check(value) if check else value
        except ValueError as exc:  # a prime past the deterministic primality limit lands here too
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


@contextlib.contextmanager
def _command_client(args):
    """The client --base-url, --cache and --offline describe; its cache, if any, is closed when the command ends."""
    cache = OrbitDimCache(args.cache) if args.cache else None
    try:
        yield OrbitDimClient(base_url=args.base_url, cache=cache, offline=args.offline)
    finally:
        if cache is not None:
            cache.close()


def _bound(p: int, d: int) -> BoundTriple:
    """BoundTriple.compute, refused when B(p, d), its largest number, has more than 4,300 digits to print."""
    triple = BoundTriple.compute(p, d)
    if triple.bk >= _DIGIT_LIMIT:
        raise ValueError(f"d is too large: B({p},d) has more than {_MAX_DIGITS} digits")
    return triple


def _bound_lines(triple: BoundTriple, args):
    p, d = triple.p, triple.d
    return [
        f"p = {p}, d = {d}",
        f"B({p},{d})  = {triple.bk}    conductor-exponent bound for v_p(N^d), any abelian variety",
        f"B'({p},{d}) = {triple.bk_prime}    the same bound per dimension: floor(B/d)",
        f"B0({p},{d}) = {triple.b0}    bound on v_p(N) under maximal real multiplication",
    ]


def _run_table(args) -> BoundTable:
    table = render_table(args.dmax, args.pmax, include_trivial=args.full)  # the grid is checked before any scan
    if not args.annotate:
        return table
    p_max = min(args.pmax, 2 * args.dmax + 1)  # no prime above 2 d_max + 1 is scanned, so none is sieved
    with _command_client(args) as client:
        witnesses = client.annotate_table(args.dmax, args.budget, strict=args.strict, p_max=p_max)
    return table.annotate({key: witness.status for key, witness in witnesses.items()})


def _rebuild_table(doc) -> BoundTable:  # a trivial cell means the table was rendered with --full
    sharpness = {(cell["p"], cell["d"]): cell["sharpness"] for cell in doc["cells"]}
    full = any(_trivial(p, d) for p, d in sharpness)
    return render_table(doc["d_max"], doc["p_max"], sharpness if doc["annotated"] is True else None, full)


def _table_rows(table: BoundTable):
    header = ["d"]
    for p in table.primes:
        header += [f"p{p}", f"p{p}_status"] if table.annotated else [f"p{p}"]
    yield header
    for d, cells in groupby(table.cells, lambda cell: cell[0].d):  # a row's cells are a prefix of the primes
        row = [d]
        for triple, flag in cells:
            row += (_cell_text(triple), flag) if table.annotated else (_cell_text(triple),)
        yield row + [""] * (len(header) - len(row))


def _table_lines(table: BoundTable, args):
    """The plain table in two passes over its cells: one for the column widths, one to print the rows."""
    widths = {p: len(f"p={p}") for p in table.primes}
    for triple, flag in table.cells:
        widths[triple.p] = max(widths[triple.p], len(_cell_text(triple, flag)))
    yield ("d\\p  " + "  ".join(f"p={p}".ljust(width) for p, width in widths.items())).rstrip()
    for d, cells in groupby(table.cells, lambda cell: cell[0].d):  # a row is padded only up to its last cell
        texts = [_cell_text(triple, flag).ljust(width) for (triple, flag), width in zip(cells, widths.values())]
        yield (f"{d:<3}  " + "  ".join(texts)).rstrip()


# A table cell as json.dumps(..., indent=2) prints it inside the document's "cells" list.  No value needs
# escaping: the numbers are ints, display holds digits, spaces and parentheses, and sharpness is a constant.
_JSON_CELL = """\
    {
      "p": %d,
      "d": %d,
      "bk": %d,
      "bk_prime": %d,
      "b0": %d,
      "display": "%s",
      "sharpness": "%s"
    }"""


def _table_json(table: BoundTable, args):
    """json.dumps({"command": "table", **table.to_json_dict()}, indent=2) and a newline, byte for byte: the
    head, then one cell template per cell, then the tail."""
    yield (
        f'{{\n  "command": "table",\n  "d_max": {table.d_max},\n  "p_max": {table.p_max},\n'
        f'  "annotated": {"true" if table.annotated else "false"},\n  "cells": [\n'
    )
    separator = ""  # every table has a cell: p = 2 <= 2d + 1 is never trivial
    for triple, flag in table.cells:
        yield separator + _JSON_CELL % (*triple, _cell_text(triple), flag)
        separator = ",\n"
    yield "\n  ]\n}\n"


def _profile_rows(report: RmConstraintReport):
    refined = ";".join(f"{p}:{cap}" for p, cap in sorted(report.refined_bounds.items()))
    return [
        ["d", "profile", "admissible", "determination", "forced", "forced_degree", "residual_degree", "refined_bounds"],
        [
            report.dimension, str(report.profile), report.admissible, report.determination.value,
            report.forced.name, report.forced.degree, report.residual_degree, refined,
        ],
    ]


def _profile_lines(report: RmConstraintReport, args):
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


class _ForbiddenProfiles(NamedTuple):
    """enumerate_forbidden's inputs and its profiles: the forbidden command's result."""

    d: int
    prime_bound: int
    max_entries: int
    include_singletons: bool
    profiles: list[ExponentProfile]

    @classmethod
    def compute(cls, d: int, prime_bound: int, max_entries: int, include_singletons: bool) -> "_ForbiddenProfiles":
        profiles = enumerate_forbidden(d, prime_bound, max_entries, include_singletons=include_singletons)
        return cls(d, prime_bound, max_entries, include_singletons, profiles)

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "profiles": [profile.to_json_list() for profile in self.profiles]}


def _forbidden_lines(result: _ForbiddenProfiles, args):
    d, prime_bound, max_entries, _, profiles = result
    if not profiles:
        return [f"no forbidden combinations for d = {d} (primes <= {prime_bound}, <= {max_entries} primes)"]
    lines = [f"minimal forbidden exponent combinations for d = {d}:"]
    return lines + [f"  {' * '.join(f'{p}^{e}' for p, e in profile)}" for profile in profiles]


def _genus2_rows(report: Genus2Report):
    simple = "unknown" if report.simple is None else report.simple
    return [["profile", "simple", "field"], [str(report.profile), simple, report.field.name if report.field else ""]]


def _genus2_lines(report: Genus2Report, args):
    lines = [f"conductor profile {report.profile or '(empty)'}"]
    if report.simple is None:
        lines.append("simple: unknown (exponents stay within the two-elliptic-curve range)")
    else:
        lines.append("simple: yes (exponent exceeds the product-of-elliptic-curves cap)")
        if report.analysis is not None and not report.analysis.admissible:
            lines.append("warning: halved profile is inadmissible in dimension 2; no such surface exists")
        if report.field is not None:
            lines.append(f"endomorphism algebra: {report.field.name}")
    return lines


def _run_sharpness(args) -> SharpnessWitness:
    with _command_client(args) as client:
        return client.sharpness_scan(args.p, args.d, args.budget, strict=args.strict)


def _sharpness_lines(witness: SharpnessWitness, args):
    p, d = witness.p, witness.d
    if witness.status == lmfdb.NONE_FOUND:
        return [f"p = {p}, d = {d}: no witness found up to level {args.budget} (existence is not ruled out)"]
    return [f"p = {p}, d = {d}: {witness.status} at level {witness.level} (v_{p} = {witness.exponent_attained})"]


class _VerifyRun(NamedTuple):
    """run_all's box and its results: the verify command's result."""

    p_max: int
    d_max: int
    results: list[verify.PropertyResult]

    @classmethod
    def compute(cls, p_max: int, d_max: int) -> "_VerifyRun":
        return cls(p_max, d_max, verify.run_all(p_max=p_max, d_max=d_max))

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def to_json_dict(self) -> dict:
        results = [result.to_json_dict() for result in self.results]
        return {"p_max": self.p_max, "d_max": self.d_max, "ok": self.ok, "results": results}


def _json_text(result, args) -> list[str]:
    return [json.dumps({"command": args.command, **result.to_json_dict()}, indent=2) + "\n"]


class _Command(NamedTuple):
    run: Callable  # args -> the command's result, computed from the flags
    rebuild: Callable  # a json document -> the same result, computed from the document's inputs
    rows: Callable  # result -> its csv rows, header first
    lines: Callable  # (result, args) -> its plain lines, each without its newline
    json: Callable = _json_text  # (result, args) -> its json document and a newline, as chunks to write


# Every subcommand, as one row; main looks the row up on each call.
COMMANDS: dict[str, _Command] = {
    "bound": _Command(
        lambda args: _bound(args.p, args.d), lambda doc: _bound(doc["p"], doc["d"]),
        lambda triple: [triple._fields, triple], _bound_lines,
    ),
    "table": _Command(_run_table, _rebuild_table, _table_rows, _table_lines, _table_json),
    "profile": _Command(
        lambda args: analyze_profile(ExponentProfile.parse(args.profile), args.d),
        lambda doc: analyze_profile(ExponentProfile.from_json_list(doc["profile"]), doc["d"]), _profile_rows, _profile_lines
    ),
    "forbidden": _Command(
        lambda args: _ForbiddenProfiles.compute(args.d, args.pmax, args.max_entries, args.include_singletons),
        lambda doc: _ForbiddenProfiles.compute(doc["d"], doc["prime_bound"], doc["max_entries"], doc["include_singletons"]),
        lambda result: [["profile"], *([str(profile)] for profile in result.profiles)], _forbidden_lines,
    ),
    "genus2": _Command(
        lambda args: genus2_rm_analysis(ExponentProfile.parse(args.profile)),
        lambda doc: genus2_rm_analysis(ExponentProfile.from_json_list(doc["profile"])), _genus2_rows, _genus2_lines
    ),
    "sharpness": _Command(
        _run_sharpness, lambda doc: SharpnessWitness.at_level(doc["p"], doc["d"], doc["level"]),
        lambda w: [["p", "d", "status", "exponent_attained", "level"], [w.p, w.d, w.status, w.exponent_attained, w.level]],
        _sharpness_lines,
    ),
    "verify": _Command(
        lambda args: _VerifyRun.compute(args.pmax, args.dmax), lambda doc: _VerifyRun.compute(doc["p_max"], doc["d_max"]),
        lambda run: [
            ["name", "ok", "cases", "counterexample"], *([r.name, r.ok, r.cases, r.counterexample] for r in run.results)
        ],
        lambda run, args: [verify.format_report(run.results)],
    ),
}


def parse_json(text: str, command: str | None = None):
    """The result a command's json output doc was printed from, rebuilt by its COMMANDS row from doc's inputs.

    The row is doc's "command", or command if given.  Every field, command included,
    is then compared as json text, so a document of another command, a changed derived
    field, or 14.0 or true for 14 or 1, raises ValueError.
    """
    doc = json.loads(text)
    name = command or (doc.get("command") if isinstance(doc, dict) else None)
    if not isinstance(name, str) or name not in COMMANDS:
        raise ValueError(f"unknown command {name!r}: expected one of {', '.join(COMMANDS)}")
    try:
        result = COMMANDS[name].rebuild(doc)
    except (AttributeError, KeyError, TypeError) as exc:  # not an object, a field missing, a value of another type
        raise ValueError(f"not a command's json output: {exc!r}") from exc
    obj = {"command": name, **result.to_json_dict()}
    for key in sorted(doc.keys() | obj.keys()):
        given, recomputed = (json.dumps(o[key], sort_keys=True) if key in o else None for o in (doc, obj))
        if given != recomputed:
            raise ValueError(f"field {key!r} does not match the result recomputed from the document's inputs")
    return result


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

    positive = _int_arg()
    prime = _int_arg(require_prime)
    prime_bound = _int_arg(functools.partial(require_int, "a prime bound", maximum=PMAX_LIMIT))
    table_prime_bound = _int_arg(functools.partial(require_int, "a prime bound", minimum=2, maximum=PMAX_LIMIT))

    p_bound = sub.add_parser("bound", help="the three bounds for one (p, d)")
    p_bound.add_argument("--p", type=prime, required=True)
    p_bound.add_argument("--d", type=positive, required=True)

    p_table = sub.add_parser("table", help="bound grid over d = 1..dmax, primes <= pmax")
    p_table.add_argument("--dmax", type=positive, required=True)
    p_table.add_argument("--pmax", type=table_prime_bound, default=19)
    p_table.add_argument("--full", action="store_true", help="include the trivial cells with p > 2d + 1")
    p_table.add_argument("--annotate", action="store_true", help="merge sharpness flags from orbit data")
    p_table.add_argument("--budget", type=positive, default=10000, help="largest level scanned")

    p_profile = sub.add_parser("profile", help="admissibility analysis of a factored level")
    p_profile.add_argument("--d", type=positive, required=True)
    p_profile.add_argument("profile", help='prime-power profile, e.g. "2^9,5^3"')

    p_forbidden = sub.add_parser("forbidden", help="minimal inadmissible exponent combinations")
    p_forbidden.add_argument("--d", type=positive, required=True)
    p_forbidden.add_argument("--pmax", type=prime_bound, default=19)
    p_forbidden.add_argument("--max-entries", type=positive, default=2)
    p_forbidden.add_argument("--include-singletons", action="store_true")

    p_genus2 = sub.add_parser("genus2", help="simplicity and endomorphism field of a genus-2 RM Jacobian")
    p_genus2.add_argument("profile", help='conductor valuations, e.g. "5^6"')

    p_sharp = sub.add_parser("sharpness", help="search orbit data for a bound-attaining newform")
    p_sharp.add_argument("--p", type=prime, required=True)
    p_sharp.add_argument("--d", type=positive, required=True)
    p_sharp.add_argument("--budget", type=positive, required=True)

    p_verify = sub.add_parser("verify", help="exhaustively check the bound inequalities")
    p_verify.add_argument("--pmax", type=prime_bound, default=1000)
    p_verify.add_argument("--dmax", type=positive, default=100)

    # The shared flags follow each command's own, so --help lists them last: the orbit-data flags, then --format.
    for p in (p_table, p_sharp):
        p.add_argument("--cache", default=None, help="path to the JSON-lines cache file")
        p.add_argument("--base-url", default=lmfdb.BASE_URL, help="database API base URL")
        p.add_argument("--offline", action="store_true", help="never touch the network")
        p.add_argument("--strict", action="store_true", help="fail instead of skipping unavailable levels")
    for p in sub.choices.values():
        p.add_argument("--format", choices=FORMATS, default="plain")

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


def _write(chunks) -> None:
    """Write chunks to stdout, joined 512 at a time: a pipe then takes a few large writes, not one per 8 KiB."""
    chunks = iter(chunks)
    for batch in iter(lambda: list(islice(chunks, 512)), []):
        sys.stdout.write("".join(batch))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]  # looked up per call, so a swapped row takes effect
    with _stderr_logging(args.verbose):
        try:
            result = command.run(args)
            # Each renderer's output is written as it is made; every check ran in command.run.
            if args.format == "json":
                _write(command.json(result, args))
            elif args.format == "csv":
                csv.writer(sys.stdout, lineterminator="\n").writerows(command.rows(result))  # None becomes an empty field
            else:
                _write(f"{line}\n" for line in command.lines(result, args))
            sys.stdout.flush()  # a reader that closed the pipe is found here, not at interpreter exit
            return 1 if isinstance(result, _VerifyRun) and not result.ok else 0
        except BrokenPipeError:
            # The interpreter flushes stdout again at exit; pointed at devnull, that flush cannot fail.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except (lmfdb.LmfdbError, OSError, ValueError) as exc:  # OSError: a --cache path that cannot be opened
            print(f"error: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, ProfileParseError) else 1  # a malformed profile is a usage error


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
