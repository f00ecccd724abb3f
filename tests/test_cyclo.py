from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmbounds
from rmbounds import cli, cyclo
from rmbounds.arith import primes_up_to
from rmbounds.bounds import b0_bound
from rmbounds.cyclo import (
    Compositum,
    Determination,
    ExponentProfile,
    ProfileParseError,
    RealCyclotomicField,
    _entry_degree,
    analyze_profile,
    enumerate_forbidden,
    forced_compositum,
    forced_field,
    genus2_rm_analysis,
)

profile_dicts = st.dictionaries(
    keys=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]),
    values=st.integers(min_value=1, max_value=14),
    max_size=4,
)


# -- profiles and fields -----------------------------------------------------


def test_profile_parse():
    assert dict(ExponentProfile.parse("2^9,5^3")) == {2: 9, 5: 3}
    assert dict(ExponentProfile.parse("7")) == {7: 1}
    assert dict(ExponentProfile.parse(" 2^9 , 3^6 ")) == {2: 9, 3: 6}


def test_profile_parse_errors_carry_position():
    with pytest.raises(ProfileParseError) as info:
        ExponentProfile.parse("2^9,x^3")
    assert info.value.position == 4
    with pytest.raises(ProfileParseError):
        ExponentProfile.parse("4^2")
    with pytest.raises(ProfileParseError):
        ExponentProfile.parse("2^9,2^3")
    with pytest.raises(ProfileParseError):
        ExponentProfile.parse("2^0")
    # past the deterministic primality limit, and past int()'s 4,300 digits
    with pytest.raises(ProfileParseError) as info:
        ExponentProfile.parse("2^9, 1000000000000000000000000007^3")
    assert info.value.position == 5
    with pytest.raises(ProfileParseError) as info:
        ExponentProfile.parse("5^3,2^" + "1" * 4301)
    assert info.value.position == 6


def test_profile_validation():
    # Construction and parse state each rule in the same words; parse adds the position.
    # Parsed text always gives ints, so the integer rule has no text form (text None).
    limit = "primality test is only deterministic below 3317044064679887385961981"
    cases = [
        (((6, 1),), "6", "6 is not prime", 0),
        (((5, 0),), "5^0", "exponent at prime 5 must be >= 1, got 0", 2),
        (((2, 9), (2, 3)), "2^9,2^3", "prime 2 occurs twice", 4),
        (((10**27 + 7, 3),), "1000000000000000000000000007^3", limit, 0),
        (((5, 3.0),), None, "exponent 3.0 at prime 5 is not an integer", None),
        (((5, True),), None, "exponent True at prime 5 is not an integer", None),
        (((5.0, 3),), None, "prime 5.0 is not an integer", None),
    ]
    for entries, text, message, position in cases:
        with pytest.raises(ValueError) as built:
            ExponentProfile(entries=entries)
        assert str(built.value) == message
        if text is None:  # a float or bool entry used to reach the engine's output
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                analyze_profile(dict(entries), 2)
            continue
        with pytest.raises(ProfileParseError) as parsed:
            ExponentProfile.parse(text)
        assert str(parsed.value) == f"{message} (at position {position})"


@pytest.mark.parametrize("p, e", [(2, 28571), (3, 18026)])
def test_forced_field_stops_at_4300_digits(p, e):
    field = forced_field(p, e)
    assert len(str(p**field.r)) == 4300
    json.dumps(field.to_json_dict())
    with pytest.raises(ValueError, match="more than 4300 digits"):
        forced_field(p, e + 2)  # one step up in r


def test_analyze_profile_rejects_huge_exponent_promptly():
    # In a child process with a timeout: without the range check this call
    # builds 2**(r - 2) for r near 5 * 10**19 and does not return.
    script = "from rmbounds.cyclo import analyze_profile\nanalyze_profile({2: 10**20}, 2)"
    env = {**os.environ, "PYTHONPATH": str(Path(rmbounds.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=5)
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1].startswith("ValueError: exponent at prime 2 is too large")


def test_field_names_and_degree():
    assert RealCyclotomicField(2, 3).name == "Q(sqrt(2))"
    assert RealCyclotomicField(5, 1).name == "Q(sqrt(5))"
    assert RealCyclotomicField(3, 2).name == "Q(zeta_9)^+"
    assert RealCyclotomicField(13, 1).name == "Q(zeta_13)^+"
    assert RealCyclotomicField(13, 1).degree == 6
    with pytest.raises(ValueError):
        RealCyclotomicField(3, 1)  # trivial field must not be stored


@pytest.mark.parametrize("p, r, message", [
    (5, 2.0, "r 2.0 is not an integer"),
    (5, True, "r True is not an integer"),
    (5, "2", "r '2' is not an integer"),
    (5, 0, "expected r >= 1, got 0"),
    (5.0, 1, "prime 5.0 is not an integer"),
    (4, 1, "4 is not prime"),
], ids=["r-float", "r-bool", "r-str", "r-zero", "p-float", "p-composite"])
def test_real_cyclotomic_field_takes_ints_only(p, r, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RealCyclotomicField(p, r)


def test_compositum_degree_multiplicative():
    comp = Compositum(components=(RealCyclotomicField(2, 3), RealCyclotomicField(5, 1)))
    assert comp.degree == 4
    assert comp.name == "Q(sqrt(2)) * Q(sqrt(5))"
    with pytest.raises(ValueError):
        Compositum(components=(RealCyclotomicField(5, 1), RealCyclotomicField(5, 2)))


SQRT5 = RealCyclotomicField(5, 1)


# Only a tuple is taken: a generator would be used up by the distinct-prime check, leaving the trivial compositum.
@pytest.mark.parametrize(
    "components",
    [(SQRT5, "x"), (SQRT5, None), (SQRT5, (5, 1)), (SQRT5, 5), [SQRT5], (f for f in [SQRT5]), SQRT5, None],
    ids=["str", "none", "pair", "int", "list", "generator", "field", "no-tuple"],
)
def test_compositum_takes_a_tuple_of_fields(components):
    with pytest.raises(ValueError, match="^compositum components must be a tuple of RealCyclotomicField, got "):
        Compositum(components=components)


# -- analyze_profile ----------------------------------------------------------


def test_analyze_profile_examples():
    report = analyze_profile({2: 9, 5: 3}, 2)
    assert not report.admissible

    report = analyze_profile({2: 9, 5: 3}, 4)
    assert report.admissible
    assert report.determination is Determination.EXACT_FIELD
    assert {(f.p, f.r) for f in report.forced.components} == {(2, 3), (5, 1)}

    report = analyze_profile({13: 3}, 6)
    assert report.determination is Determination.EXACT_FIELD
    assert report.forced.components[0].name == "Q(zeta_13)^+"

    report = analyze_profile({2: 8}, 1)
    assert report.admissible
    assert report.determination is Determination.NO_CONSTRAINT

    report = analyze_profile({2: 9}, 4)
    assert report.determination is Determination.CONTAINS_SUBFIELD
    assert report.residual_degree == 2
    assert report.forced.components[0].name == "Q(sqrt(2))"


def test_analyze_profile_rejects_d0():
    with pytest.raises(ValueError):
        analyze_profile({2: 9}, 0)


@pytest.mark.parametrize("profile", [[(2, 9)], "2^9", None], ids=["list", "str", "None"])
@pytest.mark.parametrize("call", [lambda profile: analyze_profile(profile, 4), genus2_rm_analysis], ids=["analyze", "genus2"])
def test_a_profile_that_is_not_a_mapping_is_a_value_error(call, profile):
    with pytest.raises(ValueError, match=rf"^expected a {{prime: exponent}} mapping, got {type(profile).__name__}$"):
        call(profile)


@pytest.mark.parametrize(
    "profile, d, p, cap",
    [
        ({5: 3, 2: 1}, 4, 2, 10),
        ({7: 1}, 3, 7, 4),
        ({2: 9, 13: 1}, 6, 13, 2),
        ({2: 9, 5: 3, 7: 1}, 2, 7, None),  # the other primes are already inadmissible for d = 2
    ],
)
def test_refined_bounds_examples(profile, d, p, cap):
    assert analyze_profile(profile, d).refined_bounds.get(p) == cap


@settings(max_examples=300)
@given(profile=profile_dicts, d=st.integers(min_value=1, max_value=24))
def test_downward_closure(profile, d):
    report = analyze_profile(profile, d)
    if not report.admissible or not profile:
        return
    for p in profile:
        smaller = dict(profile)
        if smaller[p] > 1:
            smaller[p] -= 1
        else:
            del smaller[p]
        assert analyze_profile(smaller, d).admissible


@given(profile=profile_dicts, d=st.integers(min_value=1, max_value=24))
def test_verdict_is_the_product_of_entry_degrees(profile, d):
    report = analyze_profile(profile, d)
    degree = math.prod(_entry_degree(p, e) for p, e in profile.items())
    assert degree == report.forced.degree
    assert report.admissible == (d % degree == 0)
    assert report.residual_degree == (d // degree if d % degree == 0 else None)


@given(profile=profile_dicts)
def test_compositum_order_invariance(profile):
    forward = forced_compositum(ExponentProfile.of(profile))
    reversed_entries = ExponentProfile(entries=tuple(sorted(profile.items(), reverse=True)))
    assert forced_compositum(reversed_entries) == forward


# -- regression: the d = 2..6 case analysis -----------------------------------


def test_forced_fields_d2():
    assert analyze_profile({2: 9}, 2).forced.name == "Q(sqrt(2))"
    assert analyze_profile({2: 9}, 2).determination is Determination.EXACT_FIELD
    assert analyze_profile({5: 3}, 2).forced.name == "Q(sqrt(5))"
    assert not analyze_profile({2: 9, 5: 3}, 2).admissible


def test_forced_fields_d3():
    assert analyze_profile({3: 6}, 3).forced.name == "Q(zeta_9)^+"
    assert analyze_profile({7: 3}, 3).forced.name == "Q(zeta_7)^+"
    assert not analyze_profile({3: 6, 7: 3}, 3).admissible


def test_forced_fields_d4():
    assert analyze_profile({2: 11}, 4).forced.name == "Q(zeta_16)^+"
    assert analyze_profile({2: 11}, 4).determination is Determination.EXACT_FIELD
    assert analyze_profile({2: 9}, 4).determination is Determination.CONTAINS_SUBFIELD
    assert analyze_profile({5: 3}, 4).determination is Determination.CONTAINS_SUBFIELD
    joint = analyze_profile({2: 9, 5: 3}, 4)
    assert joint.determination is Determination.EXACT_FIELD
    assert joint.forced.name == "Q(sqrt(2)) * Q(sqrt(5))"
    assert not analyze_profile({2: 11, 5: 3}, 4).admissible


def test_forced_fields_d5():
    report = analyze_profile({11: 3}, 5)
    assert report.determination is Determination.EXACT_FIELD
    assert report.forced.name == "Q(zeta_11)^+"


def test_forced_fields_d6():
    cases = {
        ("2^9,3^6", "Q(sqrt(2)) * Q(zeta_9)^+"),
        ("2^9,7^3", "Q(sqrt(2)) * Q(zeta_7)^+"),
        ("3^6,5^3", "Q(sqrt(5)) * Q(zeta_9)^+"),
        ("5^3,7^3", "Q(sqrt(5)) * Q(zeta_7)^+"),
        ("13^3", "Q(zeta_13)^+"),
    }
    for text, name in cases:
        report = analyze_profile(ExponentProfile.parse(text), 6)
        assert report.determination is Determination.EXACT_FIELD, text
        assert report.forced.name == name

    for text in ("2^9,5^3", "2^9,13^3", "3^6,7^3", "3^6,13^3", "5^3,13^3", "7^3,13^3"):
        assert not analyze_profile(ExponentProfile.parse(text), 6).admissible, text


# -- enumerate_forbidden -------------------------------------------------------


def test_enumerate_forbidden_small_dimensions():
    assert enumerate_forbidden(1, 19, 2) == []
    assert [str(p) for p in enumerate_forbidden(2, 19, 2)] == ["2^9,5^3"]
    assert [str(p) for p in enumerate_forbidden(3, 19, 2)] == ["3^6,7^3"]
    assert [str(p) for p in enumerate_forbidden(4, 19, 2)] == ["2^11,5^3"]


def test_enumerate_forbidden_d6_complete():
    # The degree arithmetic forces six minimal pairs; 5^3 * 13^3 is forbidden
    # for the same reason as 7^3 * 13^3 (2 * 6 = 12 does not divide 6).
    got = [str(p) for p in enumerate_forbidden(6, 19, 2)]
    assert got == [
        "2^9,5^3",
        "2^9,13^3",
        "3^6,7^3",
        "3^6,13^3",
        "5^3,13^3",
        "7^3,13^3",
    ]


def test_enumerate_forbidden_minimality_by_reevaluation():
    for d in (2, 3, 4, 6, 8, 12):
        for profile in enumerate_forbidden(d, 19, 3):
            assert not analyze_profile(profile, d).admissible, (d, profile)
            for p, _ in profile:
                assert analyze_profile(profile.without(p), d).admissible, (d, profile, p)


def test_enumerate_forbidden_singletons():
    singles = enumerate_forbidden(2, 19, 1, include_singletons=True)
    assert all(len(s) == 1 for s in singles)
    # each singleton sits just past its own cap
    for profile in singles:
        ((p, e),) = profile.entries
        assert not analyze_profile({p: e}, 2).admissible
        assert analyze_profile({p: e - 1}, 2).admissible
    # default excludes them
    assert enumerate_forbidden(2, 19, 1) == []


def test_profiles_built_from_checked_entries_are_not_checked_again(monkeypatch):
    tested = []
    real_is_prime = cyclo.is_prime
    monkeypatch.setattr(cyclo, "is_prime", lambda n: tested.append(n) or real_is_prime(n))
    assert enumerate_forbidden(6, 1000, 3, include_singletons=True)
    assert tested == []  # the sieve found the primes
    profile = ExponentProfile.parse("5^3,2^9")
    assert (profile.entries, tested) == (((2, 9), (5, 3)), [5, 2])  # parse checks each entry once
    assert profile.without(5).entries == ((2, 9),) and tested == [5, 2]


def test_enumerate_forbidden_singleton_beyond_exponent_64():
    # b0_bound(2, 2**40) = 88, so the singleton sits at exponent 89
    assert [str(s) for s in enumerate_forbidden(2**40, 2, 1, include_singletons=True)] == ["2^89"]


@pytest.mark.parametrize("d", [2**31, 2**40, 3**20, 3**40, 2**33 * 3**7 * 5**3, 2**62 * 7])
def test_enumerate_forbidden_singletons_at_large_d(d):
    singles = enumerate_forbidden(d, 50, 1, include_singletons=True)
    expected = [{p: b0_bound(p, d) + 1} for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]
    assert [dict(s) for s in singles] == expected


def test_enumerate_forbidden_huge_max_entries_returns_promptly():
    # In a child process with a timeout: a size loop that runs to max_entries
    # does not return.  At d = 96 the largest minimal profile has four primes.
    script = (
        "from rmbounds.cyclo import enumerate_forbidden\n"
        "assert enumerate_forbidden(96, 19, 10**18) == enumerate_forbidden(96, 19, 4) != enumerate_forbidden(96, 19, 3)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rmbounds.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=5)
    assert result.returncode == 0, result.stderr


# (arguments, message): prime_bound and max_entries are ints, not floats or bools,
# and include_singletons is a bool.
BAD_FORBIDDEN_ARGUMENTS = [
    ((6, 19.0, 2), "prime_bound 19.0 is not an integer"),
    ((6, True, 2), "prime_bound True is not an integer"),
    ((6, 19, 2.5), "max_entries 2.5 is not an integer"),
    ((6, 19, 2, "yes"), "include_singletons must be True or False, got 'yes'"),
    ((6, 19, 0), "expected max_entries >= 1, got 0"),
]


@pytest.mark.parametrize("args, message", BAD_FORBIDDEN_ARGUMENTS, ids=[repr(args) for args, _ in BAD_FORBIDDEN_ARGUMENTS])
def test_enumerate_forbidden_rejects_bad_arguments(args, message):
    with pytest.raises(ValueError) as info:
        enumerate_forbidden(*args)
    assert str(info.value) == message


def test_enumerate_forbidden_deterministic():
    runs = [enumerate_forbidden(6, 19, 2) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_single_prime_boundary_matches_b0():
    for p in (2, 3, 5, 7, 11, 13):
        for d in (1, 2, 3, 4, 6, 8, 12):
            cap = b0_bound(p, d)
            assert analyze_profile({p: cap}, d).admissible
            assert not analyze_profile({p: cap + 1}, d).admissible


# -- genus 2 --------------------------------------------------------------------


def test_genus2_examples():
    report = genus2_rm_analysis({5: 6})
    assert report.simple is True
    assert report.field is not None and report.field.name == "Q(sqrt(5))"

    report = genus2_rm_analysis({2: 18})
    assert report.simple is True
    assert report.field is not None and report.field.name == "Q(sqrt(2))"

    report = genus2_rm_analysis({2: 16})
    assert report.simple is None
    assert report.field is None


def test_genus2_rejects_odd_exponent_when_simple():
    with pytest.raises(ValueError):
        genus2_rm_analysis({5: 5})
    with pytest.raises(ValueError):
        genus2_rm_analysis({2: 18, 3: 1})


def test_genus2_inconsistent_profile_surfaces_in_analysis():
    report = genus2_rm_analysis({2: 22})
    assert report.simple is True
    assert report.field is None
    assert report.analysis is not None and not report.analysis.admissible


def _even_profiles(primes, count, e_max):
    """Every profile of count of the primes, each exponent even in 2..e_max."""
    for chosen in itertools.combinations(primes, count):
        for exponents in itertools.product(range(2, e_max + 1, 2), repeat=count):
            yield dict(zip(chosen, exponents))


def test_genus2_simple_and_admissible_always_pins_the_field():
    # A simple profile's deciding prime keeps a halved exponent above b0_bound(p, 1), so an admissible
    # halved profile forces a degree-2 field exactly.
    profiles = itertools.chain(*(_even_profiles(primes_up_to(59), k, 40) for k in (1, 2)),
                               _even_profiles(primes_up_to(13), 3, 20))
    reports = [report for report in map(genus2_rm_analysis, profiles) if report.simple and report.analysis.admissible]
    assert len(reports) == 544
    assert all(report.analysis.determination is Determination.EXACT_FIELD for report in reports)
    assert all(report.field is not None and report.field.degree == 2 for report in reports)


def test_json_round_trips():
    report = analyze_profile({2: 9, 5: 3}, 4)
    assert cli.parse_json(json.dumps({"command": "profile", **report.to_json_dict()}), "profile") == report
    g2 = genus2_rm_analysis({5: 6})
    assert cli.parse_json(json.dumps({"command": "genus2", **g2.to_json_dict()}), "genus2") == g2
