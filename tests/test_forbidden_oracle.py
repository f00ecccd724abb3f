"""Brute-force oracle for minimal forbidden exponent profiles.

The oracle shares no code with ``rmbounds.cyclo``.  It computes each forced
degree from its definition and walks every profile of at most four primes
p <= 19 over an exponent box, keeping the inadmissible profiles whose every
one-step-lowered neighbour is admissible.  It is the independent evidence
behind the reference lists of acceptance criterion 5b (see the decisions
ledger in CHANGES.md).  Its admissibility test and per-prime caps also
check ``analyze_profile`` on random profiles at dimensions above 2^30.
"""
from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def forced_degree(p: int, e: int) -> int:
    """Degree of Q(zeta_{p^r})^+ forced by v_p(N) = e, or 1 when nothing is forced.

    r = ceil(e/2 - v_p(3)/2) - 1 - v_p(2), applicable for e >= 3 at odd p
    and e >= 9 at p = 2; the degree is phi(p^r)/2, and at least 1.
    """
    if e < (9 if p == 2 else 3):
        return 1
    v3 = 1 if p == 3 else 0
    v2 = 1 if p == 2 else 0
    r = -((v3 - e) // 2) - 1 - v2
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


@st.composite
def large_cases(draw):
    """A dimension above 2^30 and up to four primes p <= 47, each at most two past its own cap."""
    d = draw(large_dimensions)
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
                           min_size=1, max_size=4, unique=True))
    return {p: draw(st.integers(1, oracle_cap(p, d) + 2)) for p in primes}, d


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=large_cases())
def test_analyze_profile_matches_oracle_at_large_d(case):
    profile, d = case
    report = analyze_profile(profile, d)
    assert report.admissible == admissible(profile, d)
    assert report.refined_bounds == oracle_refined_bounds(profile, d)
