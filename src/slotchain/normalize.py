"""Slot-value normalization used by chain extraction and evaluation."""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from difflib import SequenceMatcher

from .errors import ValidationError

NONE_VALUE = "none"
DONTCARE_VALUE = "dontcare"

_WHITESPACE_RE = re.compile(r"\s+")
# Stripping punctuation and whitespace together keeps the edge strip
# idempotent (a lone strip of punctuation can expose new whitespace).
_EDGE_CHARS = string.punctuation + string.whitespace


def _base_normalize(raw: str, policy: NormalizationPolicy) -> str:
    s = raw
    if policy.lowercase:
        s = s.lower()
    if policy.collapse_whitespace:
        s = _WHITESPACE_RE.sub(" ", s).strip()
    if policy.strip_punctuation_edges:
        s = s.strip(_EDGE_CHARS)
    return s


@dataclass(frozen=True)
class NormalizationPolicy:
    """How raw slot values are canonicalized before comparison.

    Defaults give exact matching after light cleanup. Setting
    ``fuzzy_ratio_threshold`` additionally lets non-categorical slot
    values match when their edit similarity reaches the threshold.
    """

    lowercase: bool = True
    collapse_whitespace: bool = True
    strip_punctuation_edges: bool = True
    none_aliases: frozenset[str] = frozenset({"none", ""})
    dontcare_aliases: frozenset[str] = frozenset({"dontcare", "dont care", "don't care"})
    fuzzy_ratio_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.fuzzy_ratio_threshold is not None and not (0.0 < self.fuzzy_ratio_threshold <= 1.0):
            raise ValidationError(
                f"fuzzy_ratio_threshold must be in (0, 1], got {self.fuzzy_ratio_threshold}"
            )
        for alias in self.none_aliases | self.dontcare_aliases:
            if _base_normalize(alias, self) != alias:
                raise ValidationError(f"alias {alias!r} is not a normalization fixed point")
        both = (self.none_aliases | {NONE_VALUE}) & (self.dontcare_aliases | {DONTCARE_VALUE})
        if both:
            raise ValidationError(f"alias {min(both)!r} would mean both none and dontcare")


DEFAULT_POLICY = NormalizationPolicy()


def normalize_value(raw: str, policy: NormalizationPolicy = DEFAULT_POLICY) -> str:
    """Canonicalize a raw slot value. Idempotent for any input."""
    s = _base_normalize(raw, policy)
    if s in policy.none_aliases:
        return NONE_VALUE
    if s in policy.dontcare_aliases:
        return DONTCARE_VALUE
    return s


def values_match(
    predicted: str,
    gold: str,
    policy: NormalizationPolicy = DEFAULT_POLICY,
    *,
    categorical: bool = True,
) -> bool:
    """Compare two raw values under the policy.

    Fuzzy matching, when enabled, applies only to non-categorical slots
    and never to the "none"/"dontcare" sentinels.
    """
    p = normalize_value(predicted, policy)
    g = normalize_value(gold, policy)
    if p == g:
        return True
    if policy.fuzzy_ratio_threshold is None or categorical:
        return False
    if p in (NONE_VALUE, DONTCARE_VALUE) or g in (NONE_VALUE, DONTCARE_VALUE):
        return False
    return SequenceMatcher(None, p, g).ratio() >= policy.fuzzy_ratio_threshold
