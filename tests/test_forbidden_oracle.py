"""Brute-force oracle for minimal forbidden exponent profiles.

The oracle shares no code with ``rmbounds.cyclo``.  It computes each forced
degree from its definition and walks every profile of at most four primes
p <= 19 over an exponent box, keeping the inadmissible profiles whose every
one-step-lowered neighbour is admissible.  It is the independent evidence
behind the reference lists of acceptance criterion 5b (see the decisions
ledger in CHANGES.md).  Its forced fields, admissibility test and per-prime
caps also check ``analyze_profile`` on random profiles, at dimensions up to
720 and above 2^30.
"""
from __future__ import annotations

import hashlib
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmbounds.arith import PMAX_LIMIT
from rmbounds.cyclo import analyze_profile, enumerate_forbidden
from test_acceptance import REFERENCE_FORBIDDEN_PAIRS

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# Exponents 1..EXPONENT_BOX at every prime; test_exponent_box_is_large_enough
# shows that every minimal profile for the dimensions below lies inside.
# The singleton 2^19 is the first profile at 2 that is forbidden for d = 96.
EXPONENT_BOX = 19
DIMENSIONS = range(1, 13)
# Dimensions with a minimal profile of three primes <= 19.
THREE_PRIME_DIMENSIONS = (12, 24, 60)
# The least dimension with a minimal profile of four primes.
FOUR_PRIME_DIMENSION = 96


def forced_exponent(p: int, e: int) -> int:
    """The r of the field Q(zeta_{p^r})^+ forced by v_p(N) = e, or 0 when nothing is forced.

    r = ceil(e/2 - v_p(3)/2) - 1 - v_p(2), applicable for e >= 3 at odd p
    and e >= 9 at p = 2.
    """
    if e < (9 if p == 2 else 3):
        return 0
    v3 = 1 if p == 3 else 0
    v2 = 1 if p == 2 else 0
    return max(0, -((v3 - e) // 2) - 1 - v2)


def forced_degree(p: int, e: int) -> int:
    """Degree of Q(zeta_{p^r})^+ forced by v_p(N) = e, or 1 when nothing is forced: phi(p^r)/2, and at least 1."""
    r = forced_exponent(p, e)
    if r < 1:
        return 1
    phi = p**r - p ** (r - 1)
    return max(1, phi // 2)


def admissible(profile: dict[int, int], d: int) -> bool:
    """Forced fields at distinct primes are linearly disjoint: degrees multiply and must divide d."""
    return d % math.prod(forced_degree(p, e) for p, e in profile.items()) == 0


def minimal_forbidden(d: int, max_primes: int = 2) -> list[str]:
    """Minimal inadmissible profiles of at most max_primes primes, sorted and written like the library.

    The walk carries each profile's product of forced degrees and, for each
    entry, the product with that entry's exponent lowered by one; lowering
    an exponent to 0 drops its prime.

    In a profile of two or more primes, the walk stops a prime's exponent
    loop once that entry's lone degree no longer divides d.  Such an entry
    is an inadmissible sub-profile on its own, and lowering any other entry
    keeps it; a product with a factor that does not divide d does not divide
    d either, so that lowered neighbour is inadmissible and the profile is
    not minimal.  Degrees at one prime form a divisibility chain, so every
    higher exponent fails the same way.
    """
    degrees = {p: [forced_degree(p, e) for e in range(EXPONENT_BOX + 1)] for p in PRIMES}
    found = []

    def walk(primes, exponents, total, lowered):
        if len(exponents) == len(primes):
            if d % total != 0 and all(d % g == 0 for g in lowered):
                found.append(tuple(zip(primes, exponents)))
            return
        table = degrees[primes[len(exponents)]]
        for e in range(1, EXPONENT_BOX + 1):
            if len(primes) > 1 and d % table[e] != 0:
                break
            walk(primes, exponents + (e,), total * table[e], [g * table[e] for g in lowered] + [total * table[e - 1]])

    for k in range(1, max_primes + 1):
        for primes in itertools.combinations(PRIMES, k):
            walk(primes, (), 1, [])
    found.sort(key=lambda entries: (len(entries), entries))
    return [",".join(f"{p}^{e}" if e > 1 else str(p) for p, e in entries) for entries in found]


def minimal_forbidden_pairs(d: int) -> list[str]:
    return [text for text in minimal_forbidden(d) if "," in text]


def test_forced_degree_examples():
    # the forced fields of the dimension 2..6 case analysis
    assert forced_degree(2, 8) == 1
    assert forced_degree(2, 9) == 2  # Q(sqrt(2))
    assert forced_degree(2, 11) == 4  # Q(zeta_16)^+
    assert forced_degree(3, 5) == 1
    assert forced_degree(3, 6) == 3  # Q(zeta_9)^+
    assert forced_degree(5, 2) == 1
    assert forced_degree(5, 3) == 2  # Q(sqrt(5))
    assert forced_degree(7, 3) == 3  # Q(zeta_7)^+
    assert forced_degree(11, 3) == 5  # Q(zeta_11)^+
    assert forced_degree(13, 3) == 6  # Q(zeta_13)^+
    assert forced_degree(5, 5) == 10  # Q(zeta_25)^+


@pytest.mark.parametrize("d", sorted({*DIMENSIONS, *THREE_PRIME_DIMENSIONS}))
def test_exponent_box_is_large_enough(d):
    # Degrees at one prime form a divisibility chain, so once the degree stops
    # dividing d it never divides d again.  If it has stopped by the top of the
    # box, an exponent above the box makes its own singleton inadmissible, so
    # no minimal profile has one.
    for p in PRIMES:
        degrees = [forced_degree(p, e) for e in range(EXPONENT_BOX + 1)]
        assert all(b % a == 0 for a, b in zip(degrees, degrees[1:])), p
        assert d % degrees[-1] != 0, (d, p)


@pytest.mark.parametrize("d", DIMENSIONS)
def test_oracle_matches_enumerate_forbidden(d):
    pairs = [str(profile) for profile in enumerate_forbidden(d, 19, 2)]
    singles = [str(profile) for profile in enumerate_forbidden(d, 19, 1, include_singletons=True)]
    assert minimal_forbidden_pairs(d) == pairs
    assert minimal_forbidden(d) == singles + pairs


@pytest.mark.parametrize("d", THREE_PRIME_DIMENSIONS)
def test_oracle_matches_enumerate_forbidden_three_primes(d):
    found = minimal_forbidden(d, max_primes=3)
    singles = [str(profile) for profile in enumerate_forbidden(d, 19, 1, include_singletons=True)]
    assert found == singles + [str(profile) for profile in enumerate_forbidden(d, 19, 3)]
    assert any(text.count(",") == 2 for text in found)


def test_oracle_matches_enumerate_forbidden_four_primes():
    d = FOUR_PRIME_DIMENSION
    for p in PRIMES:  # the box reaches past every prime's last degree dividing d
        assert d % forced_degree(p, EXPONENT_BOX) != 0, p
    assert d % forced_degree(2, EXPONENT_BOX - 1) == 0  # ...and at 2 it must reach 19
    found = minimal_forbidden(d, max_primes=4)
    singles = [str(profile) for profile in enumerate_forbidden(d, 19, 1, include_singletons=True)]
    assert found == singles + [str(profile) for profile in enumerate_forbidden(d, 19, 4)]
    assert "2^19" in singles
    assert "2^9,5^3,13^3,17^3" in found


@pytest.mark.parametrize("d", sorted(REFERENCE_FORBIDDEN_PAIRS))
def test_oracle_reproduces_reference_lists(d):
    assert minimal_forbidden_pairs(d) == REFERENCE_FORBIDDEN_PAIRS[d]


# A sweep past the oracle's reach: every d below 200 and five highly composite
# ones, over three (prime bound, max entries) boxes, with and without singletons.
SWEEP_DIMENSIONS = (*range(1, 200), 360, 720, 840, 1260, 5040)
SWEEP_BOXES = ((100, 2), (500, 3), (1000, 4))
# sha256 of the sweep's text, as the earlier combinations-times-product
# enumeration wrote it.
SWEEP_SHA256 = "a70c2cfd840bef5217fec096f8de8cfd0e867982268a8044d4de97f0763f9ab3"


def test_enumerate_forbidden_sweep_is_pinned():
    lines = []
    for d in SWEEP_DIMENSIONS:
        for prime_bound, max_entries in SWEEP_BOXES:
            for singletons in (False, True):
                found = enumerate_forbidden(d, prime_bound, max_entries, include_singletons=singletons)
                lines.append(f"{d} {prime_bound} {max_entries} {int(singletons)}: " + " ".join(map(str, found)))
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256


# The uncapped atlas: every d up to 1000, at primes up to 1000, with more
# entries allowed than any minimal profile there has.  sha256 of its text, as
# the walk that tested minimality entry by entry wrote it.
ATLAS_SHA256 = "3c2618782c709ea98343403a4d82d24de102054f3e2be637a8cb533011f4c6b5"


def test_uncapped_atlas_is_pinned():
    atlas = {d: enumerate_forbidden(d, 1000, 64) for d in range(1, 1001)}
    text = "".join(f"{d}: " + " ".join(map(str, profiles)) + "\n" for d, profiles in atlas.items())
    assert sum(map(len, atlas.values())) == 8898
    assert max(map(len, atlas.values())) == 147
    assert hashlib.sha256(text.encode()).hexdigest() == ATLAS_SHA256


# Two deep walks at composite d, past the sweep's four entries, pinned the same way.
DEEP_CALLS = {(720720, 2000, 5): 1936, (2**20 * 3**6, 1000, 10): 1692}
DEEP_SHA256 = "09f08c77074536955afa1fb4d4441ad8320d67c47bb1eb82970220da8d346011"


def test_deep_composite_calls_are_pinned():
    found = {call: enumerate_forbidden(*call) for call in DEEP_CALLS}
    text = "".join(f"{d} {prime_bound} {max_entries}: " + " ".join(map(str, profiles)) + "\n"
                   for (d, prime_bound, max_entries), profiles in found.items())
    assert {call: len(profiles) for call, profiles in found.items()} == DEEP_CALLS
    assert hashlib.sha256(text.encode()).hexdigest() == DEEP_SHA256


# Two calls at large d and primes up to 10**7, where most usable primes cannot
# extend a given prefix: each pinned by its count and the sha256 of its text,
# as the walk that tried every usable prime at each prefix wrote it.
LARGE_CALLS = {
    (720720, 10**7, 4): (5397, "4fb86da6d3bbfc34e961a61d6ca21039d6d91183ef8e9b4a3d666a25932b3515"),
    (6983776800, 10**7, 3): (290612, "e2037ee6da270d60fe50fef703e98da1bff2097a66e31f105bb385e2d5ba951b"),
}


@pytest.mark.parametrize("call", LARGE_CALLS)
def test_large_d_calls_are_pinned(call):
    d, prime_bound, max_entries = call
    found = enumerate_forbidden(*call)
    text = f"{d} {prime_bound} {max_entries}: " + " ".join(map(str, found)) + "\n"
    assert (len(found), hashlib.sha256(text.encode()).hexdigest()) == LARGE_CALLS[call]


# Prime bounds at the edges of each dimension's usable primes: the smallest
# bounds, each prime p with (p - 1) | 2d on both sides, and the top of that
# range at 2d + 1.  1009 is a prime whose 2d has no divisor q past 2 with q + 1
# prime; 2^40 has only the Fermat primes, and bounds past PMAX_LIMIT are skipped.
EDGE_DIMENSIONS = (*range(1, 65), 360, 720, 5040, 1009, 2**40)
# sha256 of the edge sweep's text, as the enumeration that listed every prime up to the bound wrote it.
EDGE_SHA256 = "734cca0ddd9acaf5d19cd24ab92f1ad2d0105c0ea7f3d1a48d2825e81367749a"


def edge_bounds(d: int) -> list[int]:
    """1..5, p - 1, p and p + 1 at each prime p <= PMAX_LIMIT with (p - 1) | 2d, and 2d..2d + 2, up to PMAX_LIMIT."""
    divisors = {k for q in range(1, math.isqrt(2 * d) + 1) if 2 * d % q == 0 for k in (q, 2 * d // q)}
    usable = [q + 1 for q in divisors
              if q < PMAX_LIMIT and all((q + 1) % k for k in range(2, math.isqrt(q + 1) + 1))]
    bounds = {1, 2, 3, 4, 5, 2 * d, 2 * d + 1, 2 * d + 2, *(p + step for p in usable for step in (-1, 0, 1))}
    return sorted(b for b in bounds if b <= PMAX_LIMIT)


def test_enumerate_forbidden_edge_sweep_is_pinned():
    lines = []
    for d in EDGE_DIMENSIONS:
        for prime_bound in edge_bounds(d):
            for max_entries in (1, 2, 3):
                for singletons in (False, True):
                    found = enumerate_forbidden(d, prime_bound, max_entries, include_singletons=singletons)
                    lines.append(f"{d} {prime_bound} {max_entries} {int(singletons)}: " + " ".join(map(str, found)))
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == EDGE_SHA256


# Dimensions above 2^30: powers of 2 and 3, and products with a few other primes.
large_dimensions = st.one_of(
    st.integers(31, 64).map(lambda k: 2**k),
    st.integers(19, 40).map(lambda k: 3**k),
    st.builds(
        lambda a, b, rest: 2**a * 3**b * rest,
        st.integers(0, 64), st.integers(0, 40), st.sampled_from((1, 5, 7, 25, 11 * 13, 5**4 * 31)),
    ).filter(lambda d: d > 2**30),
)


def oracle_cap(p: int, d: int) -> int:
    """Largest exponent whose forced degree at p divides d (degrees at one prime form a divisibility chain)."""
    e = 1
    while d % forced_degree(p, e + 1) == 0:
        e += 1
    return e


def oracle_refined_bounds(profile: dict[int, int], d: int) -> dict[int, int]:
    """Per prime whose rest of the profile is admissible: the largest exponent its forced degree allows beside the rest."""
    caps = {}
    for p in profile:
        rest = math.prod(forced_degree(q, e) for q, e in profile.items() if q != p)
        if d % rest == 0:
            caps[p] = oracle_cap(p, d // rest)
    return caps


def oracle_report(profile: dict[int, int], d: int) -> dict:
    """What analyze_profile should report: forced (p, r) pairs by prime, their degree, residual and determination."""
    degree = math.prod(forced_degree(p, e) for p, e in profile.items())
    if not admissible(profile, d):
        determination = "inadmissible"
    elif degree == 1:
        determination = "no_constraint"
    else:
        determination = "exact_field" if degree == d else "contains_subfield"
    return {
        "admissible": admissible(profile, d),
        "forced": [(p, forced_exponent(p, e)) for p, e in sorted(profile.items()) if forced_degree(p, e) > 1],
        "degree": degree,
        "residual_degree": d // degree if admissible(profile, d) else None,
        "determination": determination,
        "refined_bounds": oracle_refined_bounds(profile, d),
    }


def engine_report(profile: dict[int, int], d: int) -> dict:
    report = analyze_profile(profile, d)
    return {
        "admissible": report.admissible,
        "forced": [(f.p, f.r) for f in report.forced.components],
        "degree": report.forced.degree,
        "residual_degree": report.residual_degree,
        "determination": report.determination.value,
        "refined_bounds": report.refined_bounds,
    }


def cases(dimensions):
    """A dimension and up to four primes p <= 47, each at most two past its own cap."""
    @st.composite
    def draw_case(draw):
        d = draw(dimensions)
        primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
                               min_size=1, max_size=4, unique=True))
        return {p: draw(st.integers(1, oracle_cap(p, d) + 2)) for p in primes}, d
    return draw_case()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=cases(large_dimensions))
def test_analyze_profile_matches_oracle_at_large_d(case):
    profile, d = case
    assert engine_report(profile, d) == oracle_report(profile, d)


# Dimensions up to 720, weighted towards highly composite ones, where more profiles are admissible.
small_dimensions = st.one_of(st.integers(1, 720), st.sampled_from((12, 24, 60, 120, 240, 360, 720)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=cases(small_dimensions))
@example(case=({2: 9, 13: 3}, 12))  # an exact field, which random draws seldom reach
@example(case=({2: 13, 3: 8, 5: 5, 7: 5, 13: 3}, 720))
def test_analyze_profile_matches_oracle_at_small_d(case):
    profile, d = case
    assert engine_report(profile, d) == oracle_report(profile, d)
