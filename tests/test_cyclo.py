from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmbounds
from rmbounds import arith, cli, cyclo
from rmbounds.arith import PMAX_LIMIT, primes_up_to
from rmbounds.bounds import b0_bound, forced_subfield_exponent
from rmbounds.cyclo import (
    Compositum,
    Determination,
    ExponentProfile,
    ProfileParseError,
    RealCyclotomicField,
    _entry_degree,
    analyze_profile,
    enumerate_forbidden,
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


def test_profile_is_the_tuple_of_its_entries():
    pairs = ((2, 9), (5, 3))
    profile = ExponentProfile(entries=((5, 3), (2, 9)))  # checked, then sorted
    assert profile == pairs and hash(profile) == hash(pairs) and {pairs: 1}[profile] == 1
    assert profile == ExponentProfile.parse("5^3,2^9") == ExponentProfile.of({5: 3, 2: 9})
    assert repr(profile) == "ExponentProfile(entries=((2, 9), (5, 3)))" and str(profile) == "2^9,5^3"
    assert type(profile.entries) is tuple and profile.entries == pairs
    assert len(profile) == 2 and list(profile) == list(pairs) and profile.without(5) == ((2, 9),)
    assert ExponentProfile.parse("2^9") < profile < ExponentProfile.parse("3")  # ordered by entries
    assert not ExponentProfile.parse("") and ExponentProfile.parse("") == ()
    copied = pickle.loads(pickle.dumps(profile))
    assert copied == profile and type(copied) is ExponentProfile
    with pytest.raises(ValueError, match="^prime 5 occurs twice$"):
        ExponentProfile(entries=((5, 3), (2, 9), (5, 1)))
    # A generator is read once, so its pairs are both checked and kept; dataclasses rebuild a profile from one.
    assert ExponentProfile(entries=(pair for pair in ((5, 3), (2, 9)))) == pairs
    with pytest.raises(ValueError, match="^prime 5 occurs twice$"):
        ExponentProfile(entries=(pair for pair in ((5, 3), (5, 1))))
    assert dataclasses.asdict(analyze_profile({2: 9, 5: 3}, 12))["profile"] == profile
    assert dataclasses.astuple(genus2_rm_analysis({2: 9, 5: 3}))[0] == profile


@pytest.mark.parametrize("p, e", [(2, 28571), (3, 18026)])
def test_forced_field_stops_at_4300_digits(p, e):
    field = RealCyclotomicField(p, forced_subfield_exponent(p, e))
    assert len(str(p**field.r)) == 4300
    json.dumps(field.to_json_dict())
    assert analyze_profile({p: e}, 2).forced.components == (field,)
    assert genus2_rm_analysis({p: 2 * e}).analysis.forced.components == (field,)
    message = (f"exponent at prime {p} is too large: p^r of the forced field "
               "Q(zeta_{p^r})^+ has more than 4300 digits")
    assert forced_subfield_exponent(p, e + 2) == field.r + 1
    for call in (  # one step up in r
        lambda: RealCyclotomicField(p, field.r + 1),
        lambda: analyze_profile({p: e + 2}, 2),
        lambda: genus2_rm_analysis({p: 2 * (e + 2)}),
    ):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


def test_compositum_degree_stops_at_4300_digits():
    # Each field's p^r fits, but the product of the degrees is printed too; 2^213 doubles it past 4,300 digits.
    assert len(str(analyze_profile({97: 4300, 2: 212}, 2).forced.degree)) == 4300
    assert len(str(genus2_rm_analysis({97: 8600, 2: 424}).analysis.forced.degree)) == 4300
    message = "profile is too large: its forced compositum's degree has more than 4300 digits"
    for call in (lambda: analyze_profile({97: 4300, 2: 213}, 2), lambda: genus2_rm_analysis({97: 8600, 2: 426})):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


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
@pytest.mark.parametrize(
    "call",
    [
        lambda profile: analyze_profile(profile, 4),
        lambda profile: analyze_profile(profile, 4).forced,  # the compositum
        genus2_rm_analysis,
    ],
    ids=["analyze", "compositum", "genus2"],
)
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


def _assert_same(engine, checked):
    assert engine == checked and hash(engine) == hash(checked) and repr(engine) == repr(checked)


@settings(max_examples=300, derandomize=True)
@given(profile=profile_dicts, d=st.integers(min_value=1, max_value=24))
def test_engine_built_fields_equal_checked_ones(profile, d):
    # The engine builds its fields and composita without the constructors' checks.
    fields = [f for p, e in sorted(profile.items()) for f in analyze_profile({p: e}, d).forced.components]
    checked = [RealCyclotomicField(f.p, f.r) for f in fields]
    composita = [analyze_profile(profile, d).forced, analyze_profile(ExponentProfile.of(profile), d).forced]
    for engine in fields + [f for compositum in composita for f in compositum.components]:
        made = RealCyclotomicField(engine.p, engine.r)
        _assert_same(engine, made)
        assert engine <= made <= engine and not engine < made
        assert [engine < f for f in checked] == [made < f for f in checked]
    for engine in composita:
        _assert_same(engine, Compositum(components=tuple(reversed(checked))))
        assert engine.components == tuple(checked)


def test_reports_hash_like_they_compare():
    report = analyze_profile({5: 3}, 2)
    same = analyze_profile(ExponentProfile.parse("5^3"), 2)
    assert report == same and hash(report) == hash(same)
    assert dataclasses.replace(report, refined_bounds={}) != report  # the caps still count for equality
    g2 = genus2_rm_analysis({2: 20})
    again = genus2_rm_analysis(ExponentProfile.parse("2^20"))
    assert g2 == again and hash(g2) == hash(again)
    assert len({report, same, g2, again}) == 2


def test_engine_checks_each_prime_once(monkeypatch):
    # ExponentProfile checks each entry; the fields and composita built from it are not checked again.
    tested = []
    real_is_prime = arith.is_prime

    def counting(n):
        tested.append(n)
        return real_is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    monkeypatch.setattr(cyclo, "is_prime", counting)
    analyze_profile({2: 9, 5: 3, 13: 3}, 12)
    assert sorted(tested) == [2, 5, 13]
    tested.clear()
    genus2_rm_analysis({5: 6, 2: 2})
    assert sorted(tested) == [2, 5]
    tested.clear()
    assert analyze_profile({5: 3}, 2).forced.components == (RealCyclotomicField(5, 1),)
    assert tested == [5, 5]  # once in the profile, once in the checked constructor


@given(profile=profile_dicts)
def test_compositum_order_invariance(profile):
    forward = analyze_profile(ExponentProfile.of(profile), 1).forced
    reversed_entries = ExponentProfile(entries=tuple(sorted(profile.items(), reverse=True)))
    assert analyze_profile(reversed_entries, 1).forced == forward


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


@pytest.mark.parametrize("d", [360, 720, 5040])
def test_enumerate_forbidden_minimality_by_lowering_each_entry(d):
    # Each entry sits at the least exponent forcing its degree, so one less
    # forces the step below it (dropping the prime when that gives 0).
    profiles = enumerate_forbidden(d, 2000, 5)
    assert max(map(len, profiles)) >= 3
    for profile in profiles:
        assert not analyze_profile(profile, d).admissible, profile
        for p, e in profile:
            lowered = {**dict(profile), p: e - 1} if e > 1 else dict(profile.without(p))
            assert analyze_profile(lowered, d).admissible, (profile, p)


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
    assert tested == []  # no entry is tested again: the set-up tests its candidate primes in bounds, not here
    profile = ExponentProfile.parse("5^3,2^9")
    assert (profile.entries, tested) == (((2, 9), (5, 3)), [5, 2])  # parse checks each entry once
    assert profile.without(5).entries == ((2, 9),) and tested == [5, 2]


def test_enumerate_forbidden_finds_usable_primes_without_listing_every_prime(monkeypatch):
    # Only a prime p with (p - 1) | 2d can force a field into degree d, and
    # each is at most 2d + 1, so a bound past 2d + 1 changes nothing.
    expected = enumerate_forbidden(5040, 10081, 3)
    assert len(expected) == 471

    def no_listing(bound):
        raise AssertionError(f"primes_up_to({bound}) was called")

    monkeypatch.setattr(cyclo, "primes_up_to", no_listing)
    assert enumerate_forbidden(5040, PMAX_LIMIT, 3) == expected


def test_enumerate_forbidden_singletons_use_every_prime(monkeypatch):
    listed = []
    monkeypatch.setattr(cyclo, "primes_up_to", lambda bound: listed.append(bound) or primes_up_to(bound))
    found = enumerate_forbidden(12, 1000, 2, include_singletons=True)
    assert listed == [1000]
    singles = [profile for profile in found if len(profile) == 1]
    assert [p for (p, _), in singles] == primes_up_to(1000)
    assert all(e == b0_bound(p, 12) + 1 for (p, e), in singles)


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


def test_enumerate_forbidden_large_max_entries_at_a_composite_d():
    # At d = 5040 the largest minimal profile over p <= 2000 has five primes.
    five = enumerate_forbidden(5040, 2000, 5)
    assert len(five) == 401
    assert enumerate_forbidden(5040, 2000, 7) == five


def test_enumerate_forbidden_leaves_no_garbage():
    gc.collect()
    gc.disable()
    try:
        assert enumerate_forbidden(5040, 2000, 4)
        assert gc.collect() == 0  # no reference cycle is left behind for the collector
    finally:
        gc.enable()


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


# Random and highly composite d, with prime bounds past most of their usable primes.
forbidden_calls = st.tuples(
    st.one_of(st.integers(1, 10**6), st.sampled_from((360, 720, 5040, 55440, 720720))),
    st.integers(1, 10**5),
    st.integers(1, 5),
    st.booleans(),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(forbidden_calls)
def test_enumerate_forbidden_output_is_strictly_increasing(call):
    # The walk, not a final sort, orders the output: by size, then entries, with no duplicate.
    d, prime_bound, max_entries, singletons = call
    keys = [(len(profile), profile) for profile in enumerate_forbidden(d, prime_bound, max_entries, singletons)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


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
