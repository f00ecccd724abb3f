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

import itertools
import math
import re
from dataclasses import dataclass, field
from enum import Enum

from .arith import PMAX_LIMIT, _real_cyclotomic_degree, is_prime, primes_up_to, require_dimension, require_int, require_prime
from .bounds import _b0, _forced_exponent, b0_bound, forced_subfield_exponent


class ProfileParseError(ValueError):
    """Raised on malformed profile syntax; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ENTRY_RE = re.compile(r"\s*(\d+)\s*(?:\^\s*(\d+)\s*)?")
_PRIME, _EXPONENT = 1, 2  # the parts of a "p^e" entry, as _ENTRY_RE numbers its groups

# CPython's default limit on int <-> str conversion.  Field names and json
# print p^r in decimal, so a forced field with p^r at or above 10**4300 is
# rejected, and so is a profile number written with more digits.
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


@dataclass(frozen=True, order=True)
class ExponentProfile:
    """A finite set of (prime, exponent >= 1) pairs at pairwise distinct primes."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for p, e in self.entries:
            fault = _entry_fault(p, e, seen)
            if fault:
                raise ValueError(fault[0])
            seen.add(p)
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def _unchecked(cls, entries: tuple[tuple[int, int], ...]) -> "ExponentProfile":
        """A profile of entries already known to pass the rules, at ascending distinct primes; nothing is checked."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "entries", entries)
        return profile

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
        return cls._unchecked(tuple(sorted(entries.items())))

    def without(self, p: int) -> "ExponentProfile":
        return ExponentProfile._unchecked(tuple((q, e) for q, e in self.entries if q != p))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __str__(self):
        return ",".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.entries)

    def to_json_list(self) -> list[dict]:
        return [{"p": p, "e": e} for p, e in self.entries]

    @classmethod
    def from_json_list(cls, items: list[dict]) -> "ExponentProfile":
        return cls(entries=tuple((item["p"], item["e"]) for item in items))


@dataclass(frozen=True, order=True)
class RealCyclotomicField:
    """Q(zeta_{p^r})^+ with p prime and r >= 1; only nontrivial fields (degree > 1) are stored.

    Construction raises ValueError when p^r has more than 4,300 digits.  The
    bit-length test comes first, so a huge r is rejected without building p**r.
    """

    p: int
    r: int

    def __post_init__(self):
        p, r = require_prime(self.p), require_int("r", self.r, 1)
        if r * (p.bit_length() - 1) >= _DIGIT_LIMIT.bit_length() or p**r >= _DIGIT_LIMIT:
            raise ValueError(
                f"exponent at prime {p} is too large: p^r of the forced field "
                f"Q(zeta_{{p^r}})^+ has more than {_MAX_DIGITS} digits"
            )
        if self.degree == 1:
            raise ValueError(f"Q(zeta_{p}^{r})^+ is trivial; trivial fields are not stored")

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

    def __str__(self):
        return self.name

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

    @property
    def degree(self) -> int:
        return math.prod(f.degree for f in self.components)

    @property
    def is_trivial(self) -> bool:
        return not self.components

    @property
    def name(self) -> str:
        if self.is_trivial:
            return "Q"
        ordered = sorted(self.components, key=lambda f: (f.degree, f.p))
        return " * ".join(f.name for f in ordered)

    def __str__(self):
        return self.name

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "components": [f.to_json_dict() for f in self.components]}


class Determination(str, Enum):
    """How completely the forced compositum pins down the endomorphism field."""

    EXACT_FIELD = "exact_field"
    CONTAINS_SUBFIELD = "contains_subfield"
    NO_CONSTRAINT = "no_constraint"
    INADMISSIBLE = "inadmissible"  # the forced compositum cannot lie in a degree-d field


def forced_field(p: int, e: int) -> RealCyclotomicField | None:
    """The nontrivial real cyclotomic field forced by v_p(N) = e, or None.

    Raises ValueError, from the field's construction, when p^r has more than
    4,300 digits.
    """
    r = forced_subfield_exponent(p, e)
    # Every p^r with r >= 3 is at least 8, so its field is nontrivial; the
    # degree is computed only for small r, never before the size check.
    if r >= 3 or (r >= 1 and _real_cyclotomic_degree(p, r) > 1):
        return RealCyclotomicField(p=p, r=r)
    return None


def _entry_degree(p: int, e: int) -> int:
    """Degree of the field forced by v_p(N) = e, 1 when none is, without the checks.

    p prime, e >= 0 and a forced p^r of at most 4,300 digits (forced_field
    rejects larger ones) are the caller's to ensure.  A profile is admissible
    in dimension d exactly when the product of its entries' degrees divides d.
    """
    return _real_cyclotomic_degree(p, _forced_exponent(p, e))


def forced_compositum(profile: ExponentProfile) -> Compositum:
    """Compositum of all nontrivial fields forced by a profile's entries."""
    fields = [forced_field(p, e) for p, e in profile]
    return Compositum(components=tuple(f for f in fields if f is not None))


@dataclass(frozen=True)
class RmConstraintReport:
    """Verdict of the constraint engine for one profile and dimension."""

    dimension: int
    profile: ExponentProfile
    admissible: bool
    forced: Compositum
    determination: Determination
    residual_degree: int | None
    refined_bounds: dict[int, int] = field(default_factory=dict)

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
    exponent cap implied by the remaining primes' forced degrees.  The
    compositum is built first, for the report and its size check; every
    verdict then comes from the integer degrees of _entry_degree.
    """
    require_dimension(d)
    profile = ExponentProfile.of(profile)
    forced = forced_compositum(profile)
    own = [(p, _entry_degree(p, e)) for p, e in profile]
    degree = math.prod(g for _, g in own)
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
    deterministically sorted by size, then entries.  prime_bound must be an
    int in 1..PMAX_LIMIT, max_entries an int >= 1 and include_singletons a bool.
    """
    require_dimension(d)
    require_int("prime_bound", prime_bound, 1, PMAX_LIMIT)
    require_int("max_entries", max_entries, 1)
    if type(include_singletons) is not bool:
        raise ValueError(f"include_singletons must be True or False, got {include_singletons!r}")
    results: list[ExponentProfile] = []
    # Up to B0(p, d), Q(zeta_{p^r})^+ is first forced at e = 2r + 1 + 2 v_p(2) + v_p(3)
    # and each such step's degree divides d.  Each is usable with the degree one
    # step lower (1 for the first step): lowering that entry turns a profile's
    # degree D into D // g * lower.
    usable: dict[int, list[tuple[int, int, int]]] = {}
    for p in primes_up_to(prime_bound):
        cap = _b0(p, d)
        if include_singletons:
            results.append(ExponentProfile._unchecked(((p, cap + 1),)))
        lower = 1
        for e in range({2: 9, 3: 6}.get(p, 3), cap + 1, 2):
            g = _entry_degree(p, e)
            usable.setdefault(p, []).append((e, g, lower))
            lower = g
    for k in range(2, min(max_entries, len(usable)) + 1):  # no combination holds more primes than are usable
        for combo in itertools.combinations(usable, k):
            for choice in itertools.product(*(usable[p] for p in combo)):
                degree = math.prod(g for _, g, _ in choice)
                if d % degree != 0 and all(d % (degree // g * lower) == 0 for _, g, lower in choice):
                    results.append(ExponentProfile._unchecked(tuple(zip(combo, (e for e, _, _ in choice)))))
    return sorted(results, key=lambda pr: (len(pr), pr.entries))


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
    deciding = [p for p, e in profile if e > 2 * b0_bound(p, 1)]
    if not deciding:
        return Genus2Report(profile=profile, simple=None, field=None, analysis=None)
    odd = [p for p, e in profile if e % 2 == 1]
    if odd:
        raise ValueError(
            f"profile forces a simple Jacobian (prime {deciding[0]}) but has odd exponent "
            f"at {odd[0]}; the conductor of a simple surface with maximal RM is a square"
        )
    halved = ExponentProfile.of({p: e // 2 for p, e in profile})
    report = analyze_profile(halved, d=2)
    # A deciding prime's halved exponent exceeds b0_bound(p, 1), so it forces degree >= 2: an admissible
    # halved profile forces exactly one field, of degree 2.
    field_out = report.forced.components[0] if report.admissible else None
    return Genus2Report(profile=profile, simple=True, field=field_out, analysis=report)
