"""Constraint engine for forced real cyclotomic subfields.

A prime-power conductor exponent e = v_p(N) forces the real cyclotomic
field Q(zeta_{p^r})^+ (r = forced_subfield_exponent(p, e)) into the
rationality / endomorphism field K.  Fields forced at distinct primes are
linearly disjoint, so their compositum degree is the product of the
component degrees and must divide d = [K : Q].  This module decides joint
admissibility, computes refined per-prime exponent caps, enumerates
minimal forbidden exponent combinations, and runs the genus-2 Jacobian
analysis.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

from .arith import PMAX_LIMIT, _real_cyclotomic_degree, is_prime, primes_up_to, require_dimension, require_int, require_prime
from .bounds import _b0, _forced_exponent, _primes_b0_above_2


class ProfileParseError(ValueError):
    """Raised on malformed profile syntax; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ENTRY_RE = re.compile(r"\s*(\d+)\s*(?:\^\s*(\d+)\s*)?")
_PRIME, _EXPONENT = 1, 2  # the parts of a "p^e" entry, as _ENTRY_RE numbers its groups

# CPython's default limit on int <-> str conversion.  Field names and json
# print p^r in decimal, so a forced field with p^r at or above 10**4300 is
# rejected, and so are a compositum degree of that size, a profile number
# written with more digits, and the CLI's bounds B(p, d) past it.
_MAX_DIGITS = 4300
_DIGIT_LIMIT = 10**_MAX_DIGITS


def _entry_fault(p: int, e: int, seen) -> tuple[str, int] | None:
    """The message and the part at fault (_PRIME or _EXPONENT) if (p, e) breaks a profile rule, else None.

    The rules: p and e are ints (not bools), p is prime and below the primality
    test's limit, e >= 1, and p is not among the primes in seen.  No message is
    built for an entry that passes.
    """
    if type(p) is not int:
        return f"prime {p!r} is not an integer", _PRIME
    if type(e) is not int:
        return f"exponent {e!r} at prime {p} is not an integer", _EXPONENT
    try:
        if not is_prime(p):
            return f"{p} is not prime", _PRIME
    except ValueError as exc:  # p is past the deterministic primality limit
        return str(exc), _PRIME
    if e < 1:
        return f"exponent at prime {p} must be >= 1, got {e}", _EXPONENT
    if p in seen:
        return f"prime {p} occurs twice", _PRIME
    return None


class ExponentProfile(tuple):
    """A finite set of (prime, exponent >= 1) pairs at pairwise distinct primes: the tuple of its pairs, ascending."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, int], ...]):
        entries = tuple(entries)  # once, so the checks and the sort see the same pairs, even from a generator
        seen = set()
        for p, e in entries:
            fault = _entry_fault(p, e, seen)
            if fault:
                raise ValueError(fault[0])
            seen.add(p)
        return tuple.__new__(cls, sorted(entries))

    # A profile of entries already known to pass the rules, at ascending distinct primes; nothing is checked.
    _unchecked = classmethod(tuple.__new__)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(self)

    def __repr__(self):
        return f"ExponentProfile(entries={tuple(self)!r})"

    @classmethod
    def of(cls, mapping) -> "ExponentProfile":
        """Coerce a {prime: exponent} mapping (or an ExponentProfile) to a profile; anything else is a ValueError."""
        if isinstance(mapping, ExponentProfile):
            return mapping
        try:
            items = mapping.items()
        except AttributeError:
            raise ValueError(f"expected a {{prime: exponent}} mapping, got {type(mapping).__name__}") from None
        return cls(entries=tuple(items))

    @classmethod
    def parse(cls, text: str) -> "ExponentProfile":
        """Parse comma-separated "p^e" entries, exponent defaulting to 1.

        Example: "2^9,5^3".  Raises ProfileParseError with the offending
        character position on malformed input.
        """
        if text.strip() == "":
            return cls._unchecked(())
        entries: dict[int, int] = {}
        pos = 0
        for token in text.split(","):
            m = _ENTRY_RE.fullmatch(token)
            if not m or not token.strip():
                offset = pos + (len(token) - len(token.lstrip()))
                raise ProfileParseError(f"expected 'p' or 'p^e', got {token.strip()!r}", offset)
            for group in (_PRIME, _EXPONENT):
                if m.group(group) and len(m.group(group)) > _MAX_DIGITS:
                    raise ProfileParseError(f"number has more than {_MAX_DIGITS} digits", pos + m.start(group))
            p, e = int(m.group(_PRIME)), int(m.group(_EXPONENT) or 1)
            fault = _entry_fault(p, e, entries)
            if fault:
                message, part = fault
                raise ProfileParseError(message, pos + m.start(part))
            entries[p] = e
            pos += len(token) + 1  # past this token and the comma
        return cls._unchecked(sorted(entries.items()))

    def without(self, p: int) -> "ExponentProfile":
        return ExponentProfile._unchecked((q, e) for q, e in self if q != p)

    def __str__(self):
        return ",".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self)

    def to_json_list(self) -> list[dict]:
        return [{"p": p, "e": e} for p, e in self]

    @classmethod
    def from_json_list(cls, items: list[dict]) -> "ExponentProfile":
        return cls(entries=tuple((item["p"], item["e"]) for item in items))


@dataclass(frozen=True, order=True)
class RealCyclotomicField:
    """Q(zeta_{p^r})^+ with p prime and r >= 1; only nontrivial fields (degree > 1) are stored.

    Construction raises ValueError when p^r has more than 4,300 digits.
    """

    p: int
    r: int

    def __post_init__(self):
        p, r = require_prime(self.p), require_int("r", self.r, 1)
        if _forced(p, r)[1] is None:
            raise ValueError(f"Q(zeta_{p}^{r})^+ is trivial; trivial fields are not stored")

    @classmethod
    def _unchecked(cls, p: int, r: int) -> "RealCyclotomicField":
        """The field of a p and r already known to pass the checks; nothing is checked."""
        built = object.__new__(cls)
        object.__setattr__(built, "p", p)
        object.__setattr__(built, "r", r)
        return built

    @property
    def degree(self) -> int:
        return _real_cyclotomic_degree(self.p, self.r)

    @property
    def name(self) -> str:
        """Readable field name, using the quadratic-surd form where standard."""
        if (self.p, self.r) == (2, 3):
            return "Q(sqrt(2))"
        if (self.p, self.r) == (5, 1):
            return "Q(sqrt(5))"
        return f"Q(zeta_{self.p ** self.r})^+"

    def to_json_dict(self) -> dict:
        return {"p": self.p, "r": self.r, "degree": self.degree, "name": self.name}


@dataclass(frozen=True)
class Compositum:
    """Compositum of real cyclotomic fields at pairwise distinct primes.

    Distinct-prime cyclotomic fields are linearly disjoint, so the degree
    is exactly the product of the component degrees.
    """

    components: tuple[RealCyclotomicField, ...]

    def __post_init__(self):
        if type(self.components) is not tuple or not all(isinstance(f, RealCyclotomicField) for f in self.components):
            raise ValueError(f"compositum components must be a tuple of RealCyclotomicField, got {self.components!r}")
        ps = [f.p for f in self.components]
        if len(set(ps)) != len(ps):
            raise ValueError("compositum components must live at distinct primes")
        object.__setattr__(self, "components", tuple(sorted(self.components)))

    @classmethod
    def _unchecked(cls, components: tuple[RealCyclotomicField, ...]) -> "Compositum":
        """A compositum of fields already known to lie at ascending distinct primes; nothing is checked."""
        compositum = object.__new__(cls)
        object.__setattr__(compositum, "components", components)
        return compositum

    @property
    def degree(self) -> int:
        return math.prod(f.degree for f in self.components)

    @property
    def name(self) -> str:
        if not self.components:
            return "Q"
        ordered = sorted(self.components, key=lambda f: (f.degree, f.p))
        return " * ".join(f.name for f in ordered)

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "components": [f.to_json_dict() for f in self.components]}


class Determination(str, Enum):
    """How completely the forced compositum pins down the endomorphism field."""

    EXACT_FIELD = "exact_field"
    CONTAINS_SUBFIELD = "contains_subfield"
    NO_CONSTRAINT = "no_constraint"
    INADMISSIBLE = "inadmissible"  # the forced compositum cannot lie in a degree-d field


def _forced(p: int, r: int) -> tuple[int, RealCyclotomicField | None]:
    """The degree of Q(zeta_{p^r})^+ and the field itself, or (1, None) when it is Q.

    p prime and r >= 0 are the caller's to ensure.  Raises ValueError when a
    nontrivial field's p^r has more than 4,300 digits.
    """
    # Every p^r with r >= 3 is at least 8, so its field is nontrivial; the
    # degree is computed only for small r, never before the size check.
    if r < 3 and _real_cyclotomic_degree(p, r) == 1:
        return 1, None
    # The bit-length test comes first, so a huge r is rejected without building p**r.
    if r * (p.bit_length() - 1) >= _DIGIT_LIMIT.bit_length() or p**r >= _DIGIT_LIMIT:
        raise ValueError(
            f"exponent at prime {p} is too large: p^r of the forced field "
            f"Q(zeta_{{p^r}})^+ has more than {_MAX_DIGITS} digits"
        )
    return _real_cyclotomic_degree(p, r), RealCyclotomicField._unchecked(p, r)


def _entry_degree(p: int, e: int) -> int:
    """Degree of the field forced by v_p(N) = e, 1 when none is, without the checks.

    p prime, e >= 0 and a forced p^r of at most 4,300 digits (_forced
    rejects larger ones) are the caller's to ensure.  A profile is admissible
    in dimension d exactly when the product of its entries' degrees divides d.
    """
    return _real_cyclotomic_degree(p, _forced_exponent(p, e))


@dataclass(frozen=True)
class RmConstraintReport:
    """Verdict of the constraint engine for one profile and dimension."""

    dimension: int
    profile: ExponentProfile
    admissible: bool
    forced: Compositum
    determination: Determination
    residual_degree: int | None
    refined_bounds: dict[int, int] = field(default_factory=dict, hash=False)

    def to_json_dict(self) -> dict:
        return {
            "d": self.dimension,
            "profile": self.profile.to_json_list(),
            "admissible": self.admissible,
            "forced": self.forced.to_json_dict(),
            "determination": self.determination.value,
            "residual_degree": self.residual_degree,
            "refined_bounds": {str(p): cap for p, cap in sorted(self.refined_bounds.items())},
        }


def analyze_profile(profile, d: int) -> RmConstraintReport:
    """Decide whether a factored-level profile is admissible in dimension d.

    Assembles the compositum of the forced real cyclotomic subfields, tests
    whether its degree divides d, reports how completely the endomorphism
    field is determined, and computes for each profile prime the refined
    exponent cap implied by the remaining primes' forced degrees.  One pass
    over the entries gives each entry's forced degree and field, from one
    forced exponent; every verdict comes from those integer degrees.
    Raises ValueError when a forced field's p^r, or the compositum's
    degree, has more than 4,300 digits.
    """
    require_dimension(d)
    profile = ExponentProfile.of(profile)
    own = []  # (p, the degree forced at p) per entry
    fields = []
    degree = 1
    for p, e in profile:
        g, f = _forced(p, _forced_exponent(p, e))
        own.append((p, g))
        degree *= g
        if f is not None:
            fields.append(f)
    # A profile's entries lie at ascending distinct primes, so its fields are in order.
    forced = Compositum._unchecked(tuple(fields))
    if degree >= _DIGIT_LIMIT:
        raise ValueError(f"profile is too large: its forced compositum's degree has more than {_MAX_DIGITS} digits")
    admissible = d % degree == 0
    if not admissible:
        determination = Determination.INADMISSIBLE
    elif degree == 1:
        determination = Determination.NO_CONSTRAINT
    elif degree == d:
        determination = Determination.EXACT_FIELD
    else:
        determination = Determination.CONTAINS_SUBFIELD
    refined: dict[int, int] = {}
    for p, g in own:
        rest = degree // g
        if d % rest == 0:
            refined[p] = _b0(p, d // rest)
    return RmConstraintReport(
        dimension=d,
        profile=profile,
        admissible=admissible,
        forced=forced,
        determination=determination,
        residual_degree=d // degree if admissible else None,
        refined_bounds=refined,
    )


def enumerate_forbidden(
    d: int,
    prime_bound: int,
    max_entries: int,
    include_singletons: bool = False,
) -> list[ExponentProfile]:
    """All minimal inadmissible profiles over primes <= prime_bound.

    Each entry sits at the smallest exponent forcing its degree, profiles
    are inadmissible, and every immediate predecessor (one prime lowered a
    step or dropped) is admissible; admissibility is downward closed, so all
    proper sub-profiles are admissible too.  Singleton profiles, p^(B0(p, d) + 1)
    for each prime, are omitted unless include_singletons is set.  Output is
    sorted by size, then entries, in the order the walk produces: nothing sorts
    it afterwards.  prime_bound must be an int in 1..PMAX_LIMIT, max_entries an
    int >= 1 and include_singletons a bool.

    A prime is usable when some exponent up to B0(p, d) forces a field, so
    only where B0(p, d) > 2: at 2, 3 and the primes p with (p - 1) | 2d, all
    at most 2d + 1.  The set-up finds them as the primes q + 1 <= prime_bound
    for the divisors q of 2d, factoring 2d by trial division over one sieve
    of min(prime_bound - 1, isqrt(2d)) bytes (bounds._primes_b0_above_2).
    Only the singletons list every prime up to prime_bound.

    Larger profiles come from one depth-first walk over the admissible
    prefixes, primes ascending.  A profile's last entry is the first step at
    its prime that the prefix makes inadmissible.  A prefix of degree D
    carries r = d // D and G, the gcd over its entries j of r * g_j // lower_j
    (0 for no entry), where lowering entry j turns the degree g_j into
    lower_j.  A step of degree g is admissible iff g divides r.  Lowering
    entry j of the inadmissible profile leaves an admissible one iff
    D // g_j * lower_j * g divides d, that is iff g divides r * g_j // lower_j:
    so the profile is minimal iff g divides G.

    Each r * g_j // lower_j is a multiple of r, so r divides G.  A prime whose
    first step's degree does not divide G therefore can neither extend the
    prefix nor end a minimal profile, and the walk visits only the primes
    whose first step divides G, from one ascending list per G (every G but
    the root's 0 divides d, so the lists are few).  The cost grows with the
    admissible prefixes times the primes whose first step divides each
    prefix's G.  Each prefix's children are pushed in reverse, so prefixes
    are popped in ascending order and the profiles of each size are found
    sorted: the output is the singletons, then those lists by size.  The
    pending prefixes are the unvisited children of the prefixes on the path
    to the last one popped; one prefix's children end in distinct usable
    steps, so the walk holds fewer than max_entries times that many, each
    of fewer than max_entries entries.
    """
    require_dimension(d)
    require_int("prime_bound", prime_bound, 1, PMAX_LIMIT)
    require_int("max_entries", max_entries, 1)
    if type(include_singletons) is not bool:
        raise ValueError(f"include_singletons must be True or False, got {include_singletons!r}")
    results: list[ExponentProfile] = []
    if include_singletons:
        results = [ExponentProfile._unchecked(((p, _b0(p, d) + 1),)) for p in primes_up_to(prime_bound)]
    # Up to B0(p, d), Q(zeta_{p^r})^+ is first forced at e = 2r + 1 + 2 v_p(2) + v_p(3)
    # and each such step's degree divides d.  Each is usable with the degree one
    # step lower (1 for the first step): lowering that entry turns a profile's
    # degree D into D // g * lower.  A step's entry (p, e) is built once, and every
    # prefix and profile holding it shares it.
    usable: list[list[tuple[tuple[int, int], int, int]]] = []  # the ((p, e), g, lower) steps per usable prime
    for p in _primes_b0_above_2(d, prime_bound):
        steps, lower = [], 1
        for e in range({2: 9, 3: 6}.get(p, 3), _b0(p, d) + 1, 2):
            g = _entry_degree(p, e)
            steps.append(((p, e), g, lower))
            lower = g
        if steps:
            usable.append(steps)
    # A child by a step (g, lower) divides r and every r * g_j // lower_j by g, and adds r // lower.
    # candidates maps each G met to the indices, ascending, of the primes whose first step's degree divides it.
    candidates: dict[int, list[int]] = {}
    found: list[list[ExponentProfile]] = [[] for _ in range(min(max_entries, len(usable) + 1))]  # by prefix size
    stack = [((), d, 0, 0)]  # (entries, r, G, the index of the first prime to extend by) per pending prefix
    while stack:
        entries, r, G, first = stack.pop()
        at = candidates.get(G)
        if at is None:
            at = candidates[G] = [i for i, steps in enumerate(usable) if G % steps[0][1] == 0]
        out, deeper, children = found[len(entries)], len(entries) + 1 < max_entries, []
        for i in at[bisect_left(at, first):]:
            for entry, g, lower in usable[i]:
                if r % g:
                    if G % g == 0:
                        out.append(ExponentProfile._unchecked(entries + (entry,)))
                    break  # every higher step at this prime lowers to this inadmissible profile
                if deeper:
                    children.append((entries + (entry,), r // g, math.gcd(G // g, r // lower), i + 1))
        stack.extend(reversed(children))  # so the least child is popped first
    return results + [profile for size in found for profile in size]


@dataclass(frozen=True)
class Genus2Report:
    """Outcome of the genus-2 Jacobian analysis.

    ``simple`` is True when the product-of-elliptic-curves exclusion fires,
    None when the exponent data cannot decide.  ``analysis`` carries the
    dimension-2 constraint report for the halved profile when simplicity
    is forced (its admissible flag exposes inconsistent inputs).
    """

    profile: ExponentProfile
    simple: bool | None
    field: RealCyclotomicField | None
    analysis: RmConstraintReport | None

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile.to_json_list(),
            "simple": self.simple,
            "field": self.field.to_json_dict() if self.field else None,
            "analysis": self.analysis.to_json_dict() if self.analysis else None,
        }


def genus2_rm_analysis(conductor_valuations) -> Genus2Report:
    """Analyze a genus-2 curve with real multiplication from its conductor profile.

    The profile gives v_p of the conductor of the Jacobian surface.  If it
    were a product of two elliptic curves, each exponent would be at most
    twice the dimension-1 cap; an exponent beyond that forces the Jacobian
    simple, hence maximal RM with square conductor N^2.  The exponents are
    then halved and fed to the dimension-2 engine, which may pin down the
    endomorphism field exactly.
    """
    profile = ExponentProfile.of(conductor_valuations)
    deciding = [p for p, e in profile if e > 2 * _b0(p, 1)]
    if not deciding:
        return Genus2Report(profile=profile, simple=None, field=None, analysis=None)
    odd = [p for p, e in profile if e % 2 == 1]
    if odd:
        raise ValueError(
            f"profile forces a simple Jacobian (prime {deciding[0]}) but has odd exponent "
            f"at {odd[0]}; the conductor of a simple surface with maximal RM is a square"
        )
    # Every exponent is even, so each half is at least 1, at the profile's checked primes.
    halved = ExponentProfile._unchecked(tuple((p, e // 2) for p, e in profile))
    report = analyze_profile(halved, d=2)
    # A deciding prime's halved exponent exceeds b0_bound(p, 1), so it forces degree >= 2: an admissible
    # halved profile forces exactly one field, of degree 2.
    field_out = report.forced.components[0] if report.admissible else None
    return Genus2Report(profile=profile, simple=True, field=field_out, analysis=report)
