"""Value canonicalization and matching rules."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slotchain.errors import FormatError, ValidationError
from slotchain.io import decode, encode
from slotchain.normalize import (
    DEFAULT_POLICY,
    DONTCARE_VALUE,
    NONE_VALUE,
    NormalizationPolicy,
    normalize_value,
    values_match,
)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("cheap", "cheap"),
        ("  Cheap ", "cheap"),
        ("GUEST   house", "guest house"),
        ("guest house!!", "guest house"),
        ("'el shaddai'", "el shaddai"),
        ("a. .", "a"),
        ("19:30", "19:30"),
        ("", NONE_VALUE),
        ("none", NONE_VALUE),
        ("None", NONE_VALUE),
        (" NONE. ", NONE_VALUE),
        ("dontcare", DONTCARE_VALUE),
        ("dont care", DONTCARE_VALUE),
        ("Don't Care", DONTCARE_VALUE),
    ],
)
def test_normalize_examples(raw, expected):
    assert normalize_value(raw) == expected


def test_normalize_idempotent_on_random_strings():
    rng = random.Random(13)
    alphabet = string.ascii_letters + string.digits + string.punctuation + " \t\n"
    for _ in range(1000):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        once = normalize_value(raw)
        assert normalize_value(once) == once


@given(st.text(max_size=40))
def test_normalize_idempotent(raw):
    once = normalize_value(raw)
    assert normalize_value(once) == once


@given(st.text(max_size=40))
def test_normalize_never_produces_edge_noise(raw):
    out = normalize_value(raw)
    assert out == out.strip()
    assert "  " not in out


def test_interior_punctuation_survives():
    assert normalize_value("alpha-milton guest house") == "alpha-milton guest house"
    assert normalize_value("st. john's college") == "st. john's college"


def test_values_match_exact_categorical():
    assert values_match(" North ", "north")
    assert not values_match("north", "south")


def test_values_match_fuzzy_only_when_enabled():
    fuzzy = NormalizationPolicy(fuzzy_ratio_threshold=0.85)
    assert not values_match("el shadai", "el shaddai", categorical=False)
    assert values_match("el shadai", "el shaddai", fuzzy, categorical=False)
    # categorical slots stay exact even under a fuzzy policy
    assert not values_match("el shadai", "el shaddai", fuzzy, categorical=True)


def test_values_match_fuzzy_never_applies_to_sentinels():
    fuzzy = NormalizationPolicy(fuzzy_ratio_threshold=0.5)
    assert not values_match("none", "nine", fuzzy, categorical=False)
    assert not values_match("dontcare", "dont ca", fuzzy, categorical=False)


def test_policy_round_trip():
    for policy in (
        DEFAULT_POLICY,
        NormalizationPolicy(fuzzy_ratio_threshold=0.9),
        NormalizationPolicy(lowercase=False, none_aliases=frozenset({""})),
    ):
        assert decode(NormalizationPolicy, encode(policy), "policy.json") == policy


def test_policy_rejects_unknown_fields():
    with pytest.raises(FormatError, match=r"policy\.json: unknown fields: \['stemming'\]"):
        decode(NormalizationPolicy, {"lowercase": True, "stemming": True}, "policy.json")


def test_policy_rejects_bad_threshold():
    with pytest.raises(ValidationError, match="fuzzy_ratio_threshold"):
        NormalizationPolicy(fuzzy_ratio_threshold=1.5)


def test_policy_rejects_alias_that_is_not_a_fixed_point():
    with pytest.raises(ValidationError, match="fixed point"):
        NormalizationPolicy(none_aliases=frozenset({"None"}))
