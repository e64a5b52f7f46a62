"""Minimal query/document tokenizer.

Real web search applies heavy analysis (stemming, spell-correction,
segmentation); for this reproduction the corpus is synthetic, so the
tokenizer only needs to normalize case, strip punctuation and drop
stopwords; :mod:`repro.corpus.ingest` maps the tokens to term ids.
"""

from __future__ import annotations

import re
from typing import FrozenSet, List, Optional

DEFAULT_STOPWORDS: FrozenSet[str] = frozenset(
    "a an and are as at be by for from has he in is it its of on that the to was were will with".split()
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class Tokenizer:
    """Lowercasing word tokenizer with optional stopword removal."""

    def __init__(
        self,
        stopwords: Optional[FrozenSet[str]] = None,
        min_token_length: int = 1,
    ) -> None:
        self.stopwords = DEFAULT_STOPWORDS if stopwords is None else frozenset(stopwords)
        self.min_token_length = max(1, int(min_token_length))

    def tokenize(self, text: str) -> List[str]:
        """Split ``text`` into normalized tokens."""
        tokens = _TOKEN_RE.findall(text.lower())
        return [
            token
            for token in tokens
            if len(token) >= self.min_token_length and token not in self.stopwords
        ]

    def __repr__(self) -> str:
        return (
            f"Tokenizer(stopwords={len(self.stopwords)}, "
            f"min_token_length={self.min_token_length})"
        )
