"""Windowed co-occurrence counting over an annotated corpus.

This is the first stage of the corpus-trained embedding model (the stand-in
for off-the-shelf word vectors): count how often each pair of words appears
within a symmetric window, then hand the counts to the PPMI+SVD factoriser.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..nlp.types import Sentence


@dataclass
class CooccurrenceCounts:
    """Sparse co-occurrence statistics over a fixed vocabulary."""

    vocabulary: list[str] = field(default_factory=list)
    word_counts: Counter = field(default_factory=Counter)
    pair_counts: Counter = field(default_factory=Counter)
    total_pairs: int = 0

    def index(self) -> dict[str, int]:
        """Word → vocabulary position."""
        return {word: i for i, word in enumerate(self.vocabulary)}


class CooccurrenceCounter:
    """Count word co-occurrences within a symmetric token window.

    Parameters
    ----------
    window:
        Number of tokens on each side considered context.
    min_count:
        Words appearing fewer times than this are dropped from the
        vocabulary (and from the pair counts).
    lowercase:
        Whether to fold case before counting (default True).
    skip_punctuation:
        Whether to ignore punctuation tokens (default True).
    """

    def __init__(
        self,
        window: int = 4,
        min_count: int = 2,
        lowercase: bool = True,
        skip_punctuation: bool = True,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.min_count = min_count
        self.lowercase = lowercase
        self.skip_punctuation = skip_punctuation

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def count_sentences(self, sentences: Iterable[Sentence]) -> CooccurrenceCounts:
        """Count over an iterable of annotated sentences."""
        token_lists = []
        for sentence in sentences:
            words = [
                (tok.text.lower() if self.lowercase else tok.text)
                for tok in sentence
                if not (self.skip_punctuation and tok.pos == "PUNCT")
            ]
            if words:
                token_lists.append(words)
        return self.count_token_lists(token_lists)

    def count_token_lists(self, token_lists: list[list[str]]) -> CooccurrenceCounts:
        """Count over pre-tokenised sentences (lists of strings)."""
        word_counts: Counter = Counter()
        for words in token_lists:
            word_counts.update(words)
        vocabulary = sorted(
            word for word, count in word_counts.items() if count >= self.min_count
        )
        vocab_set = set(vocabulary)

        pair_counts: Counter = Counter()
        total = 0
        for words in token_lists:
            n = len(words)
            for i, word in enumerate(words):
                if word not in vocab_set:
                    continue
                for j in range(max(0, i - self.window), min(n, i + self.window + 1)):
                    if j == i:
                        continue
                    context = words[j]
                    if context in vocab_set:
                        pair_counts[(word, context)] += 1
                        total += 1

        kept_counts = Counter({w: c for w, c in word_counts.items() if w in vocab_set})
        return CooccurrenceCounts(
            vocabulary=vocabulary,
            word_counts=kept_counts,
            pair_counts=pair_counts,
            total_pairs=total,
        )
