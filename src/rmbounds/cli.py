"""Command-line front end: one COMMANDS row per subcommand (bound, table, profile, forbidden, genus2, sharpness, verify).

main prints a row's result in the one format --format names; results go to stdout, logs to stderr.
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
from typing import Callable, NamedTuple

from . import lmfdb, verify
from .arith import PMAX_LIMIT, require_int, require_prime
from .bounds import BoundTable, BoundTriple, render_table
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


def _bound_lines(triple: BoundTriple, args):
    p, d = triple.p, triple.d
    header = ["p", "d", "bk", "bk_prime", "b0"]
    row = [p, d, triple.bk, triple.bk_prime, triple.b0]
    plain = [
        f"p = {p}, d = {d}",
        f"B({p},{d})  = {triple.bk}    conductor-exponent bound for v_p(N^d), any abelian variety",
        f"B'({p},{d}) = {triple.bk_prime}    the same bound per dimension: floor(B/d)",
        f"B0({p},{d}) = {triple.b0}    bound on v_p(N) under maximal real multiplication",
    ]
    return header, [row], plain


def _run_table(args) -> BoundTable:
    sharpness = None
    if args.annotate:
        with _command_client(args) as client:
            witnesses = client.annotate_table(args.dmax, args.budget, strict=args.strict, p_max=args.pmax)
        sharpness = {key: witness.status for key, witness in witnesses.items()}
    return render_table(args.dmax, args.pmax, sharpness=sharpness, include_trivial=args.full)


def _rebuild_table(doc) -> BoundTable:  # a trivial cell (p > 2d + 1) means the table was rendered with --full
    sharpness = {(cell["p"], cell["d"]): cell["sharpness"] for cell in doc["cells"]}
    full = any(p > 2 * d + 1 for p, d in sharpness)
    return render_table(doc["d_max"], doc["p_max"], sharpness if doc["annotated"] is True else None, full)


def _table_lines(table: BoundTable, args):
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
    return header, rows, plain


def _profile_lines(report: RmConstraintReport, args):
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
    return header, [row], plain


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
    profiles = result.profiles
    if profiles:
        plain = [f"minimal forbidden exponent combinations for d = {args.d}:"]
        plain += [f"  {' * '.join(f'{p}^{e}' for p, e in profile)}" for profile in profiles]
    else:
        plain = [f"no forbidden combinations for d = {args.d} (primes <= {args.pmax}, <= {args.max_entries} primes)"]
    return ["profile"], [[str(profile)] for profile in profiles], plain


def _genus2_lines(report: Genus2Report, args):
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
    return ["profile", "simple", "field"], [row], plain


def _run_sharpness(args) -> SharpnessWitness:
    with _command_client(args) as client:
        return client.sharpness_scan(args.p, args.d, args.budget, strict=args.strict)


def _sharpness_lines(witness: SharpnessWitness, args):
    p, d = witness.p, witness.d
    if witness.status == lmfdb.NONE_FOUND:
        line = f"p = {p}, d = {d}: no witness found up to level {args.budget} (existence is not ruled out)"
    else:
        line = f"p = {p}, d = {d}: {witness.status} at level {witness.level} (v_{p} = {witness.exponent_attained})"
    header = ["p", "d", "status", "exponent_attained", "level"]
    row = [p, d, witness.status, witness.exponent_attained, witness.level]
    return header, [row], [line]


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


def _verify_lines(run: _VerifyRun, args):
    rows = [[r.name, r.ok, r.cases, r.counterexample] for r in run.results]
    return ["name", "ok", "cases", "counterexample"], rows, [verify.format_report(run.results)]


class _Command(NamedTuple):
    run: Callable  # args -> the command's result, computed from the flags
    rebuild: Callable  # a json document -> the same result, computed from the document's inputs
    lines: Callable  # (result, args) -> (csv header, csv rows, plain lines)


# Every subcommand, as one row; main looks the row up on each call.
COMMANDS: dict[str, _Command] = {
    "bound": _Command(
        lambda args: BoundTriple.compute(args.p, args.d), lambda doc: BoundTriple.compute(doc["p"], doc["d"]), _bound_lines
    ),
    "table": _Command(_run_table, _rebuild_table, _table_lines),
    "profile": _Command(
        lambda args: analyze_profile(ExponentProfile.parse(args.profile), args.d),
        lambda doc: analyze_profile(ExponentProfile.from_json_list(doc["profile"]), doc["d"]), _profile_lines
    ),
    "forbidden": _Command(
        lambda args: _ForbiddenProfiles.compute(args.d, args.pmax, args.max_entries, args.include_singletons),
        lambda doc: _ForbiddenProfiles.compute(doc["d"], doc["prime_bound"], doc["max_entries"], doc["include_singletons"]),
        _forbidden_lines,
    ),
    "genus2": _Command(
        lambda args: genus2_rm_analysis(ExponentProfile.parse(args.profile)),
        lambda doc: genus2_rm_analysis(ExponentProfile.from_json_list(doc["profile"])), _genus2_lines
    ),
    "sharpness": _Command(
        _run_sharpness, lambda doc: SharpnessWitness.at_level(doc["p"], doc["d"], doc["level"]), _sharpness_lines
    ),
    "verify": _Command(
        lambda args: _VerifyRun.compute(args.pmax, args.dmax), lambda doc: _VerifyRun.compute(doc["p_max"], doc["d_max"]),
        _verify_lines,
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

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="plain")

    def add_network(p):
        p.add_argument("--cache", default=None, help="path to the JSON-lines cache file")
        p.add_argument("--base-url", default=lmfdb.BASE_URL, help="database API base URL")
        p.add_argument("--offline", action="store_true", help="never touch the network")
        p.add_argument("--strict", action="store_true", help="fail instead of skipping unavailable levels")

    p_bound = sub.add_parser("bound", help="the three bounds for one (p, d)")
    p_bound.add_argument("--p", type=prime, required=True)
    p_bound.add_argument("--d", type=positive, required=True)
    add_format(p_bound)

    p_table = sub.add_parser("table", help="bound grid over d = 1..dmax, primes <= pmax")
    p_table.add_argument("--dmax", type=positive, required=True)
    p_table.add_argument("--pmax", type=table_prime_bound, default=19)
    p_table.add_argument("--full", action="store_true", help="include the trivial cells with p > 2d + 1")
    p_table.add_argument("--annotate", action="store_true", help="merge sharpness flags from orbit data")
    p_table.add_argument("--budget", type=positive, default=10000, help="largest level scanned")
    add_network(p_table)
    add_format(p_table)

    p_profile = sub.add_parser("profile", help="admissibility analysis of a factored level")
    p_profile.add_argument("--d", type=positive, required=True)
    p_profile.add_argument("profile", help='prime-power profile, e.g. "2^9,5^3"')
    add_format(p_profile)

    p_forbidden = sub.add_parser("forbidden", help="minimal inadmissible exponent combinations")
    p_forbidden.add_argument("--d", type=positive, required=True)
    p_forbidden.add_argument("--pmax", type=prime_bound, default=19)
    p_forbidden.add_argument("--max-entries", type=positive, default=2)
    p_forbidden.add_argument("--include-singletons", action="store_true")
    add_format(p_forbidden)

    p_genus2 = sub.add_parser("genus2", help="simplicity and endomorphism field of a genus-2 RM Jacobian")
    p_genus2.add_argument("profile", help='conductor valuations, e.g. "5^6"')
    add_format(p_genus2)

    p_sharp = sub.add_parser("sharpness", help="search orbit data for a bound-attaining newform")
    p_sharp.add_argument("--p", type=prime, required=True)
    p_sharp.add_argument("--d", type=positive, required=True)
    p_sharp.add_argument("--budget", type=positive, required=True)
    add_network(p_sharp)
    add_format(p_sharp)

    p_verify = sub.add_parser("verify", help="exhaustively check the bound inequalities")
    p_verify.add_argument("--pmax", type=prime_bound, default=1000)
    p_verify.add_argument("--dmax", type=positive, default=100)
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
    command = COMMANDS[args.command]  # looked up per call, so a swapped row takes effect
    with _stderr_logging(args.verbose):
        try:
            result = command.run(args)
            if args.format == "json":  # the one format that needs no lines
                print(json.dumps({"command": args.command, **result.to_json_dict()}, indent=2))
            elif args.format == "csv":
                header, rows, _ = command.lines(result, args)
                csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])  # None becomes an empty field
            else:
                print("\n".join(command.lines(result, args)[2]))
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
