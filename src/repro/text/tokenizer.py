"""Minimal query/document tokenizer.

Real web search applies heavy analysis (stemming, spell-correction,
segmentation); for this reproduction the corpus is synthetic, so the
tokenizer only needs to normalize case, strip punctuation and drop
stopwords; :mod:`repro.corpus.ingest` maps the tokens to term ids.
"""

from __future__ import annotations

import re
from typing import FrozenSet, List

STOPWORDS: FrozenSet[str] = frozenset(
    "a an and are as at be by for from has he in is it its of on that the to was were will with".split()
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> List[str]:
    """Split ``text`` into lowercase alphanumeric tokens, stopwords dropped."""
    return [token for token in _TOKEN_RE.findall(text.lower()) if token not in STOPWORDS]
