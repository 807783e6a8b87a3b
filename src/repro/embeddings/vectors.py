"""Dense word-vector store with cosine similarity and nearest neighbours."""

from __future__ import annotations

import hashlib

import numpy as np

from ..errors import EmbeddingError

#: back-fill vectors a store remembers; past it the memo restarts
_BACKFILL_MEMO_LIMIT = 4096


class VectorStore:
    """A mapping from word to dense vector with similarity queries.

    Vectors are L2-normalised on insertion so that the dot product equals
    cosine similarity.  Unknown words can optionally be given deterministic
    pseudo-random vectors (hash seeded) so that similarity queries never
    fail; those vectors are effectively orthogonal to everything else.
    """

    def __init__(self, dimensions: int, backfill_unknown: bool = True) -> None:
        if dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        self.dimensions = dimensions
        self.backfill_unknown = backfill_unknown
        self._vectors: dict[str, np.ndarray] = {}
        #: unknown word -> its back-fill vector (a pure function of the word
        #: and the dimensions, so remembering it changes no result)
        self._backfill: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, word: str, vector: np.ndarray) -> None:
        """Insert (or overwrite) the vector for *word*."""
        array = np.asarray(vector, dtype=np.float64)
        if array.shape != (self.dimensions,):
            raise EmbeddingError(
                f"vector for {word!r} has shape {array.shape}, expected ({self.dimensions},)"
            )
        self._vectors[word.lower()] = _normalize(array)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def words(self) -> list[str]:
        return sorted(self._vectors)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def vector(self, word: str) -> np.ndarray:
        """The (normalised) vector of *word*; deterministic backfill if unknown."""
        low = word.lower()
        if low in self._vectors:
            return self._vectors[low]
        if not self.backfill_unknown:
            raise EmbeddingError(f"unknown word {word!r} and backfill disabled")
        vector = self._backfill.get(low)
        if vector is None:
            vector = _hash_vector(low, self.dimensions)
            if len(self._backfill) >= _BACKFILL_MEMO_LIMIT:
                self._backfill.clear()
            self._backfill[low] = vector
        return vector

    def similarity(self, word_a: str, word_b: str) -> float:
        """Cosine similarity in [-1, 1]; identical words give 1.0."""
        if word_a.lower() == word_b.lower():
            return 1.0
        return float(np.dot(self.vector(word_a), self.vector(word_b)))

    def nearest(self, word: str, k: int = 10, minimum: float = 0.0) -> list[tuple[str, float]]:
        """The *k* most similar in-vocabulary words with similarity >= minimum."""
        low = word.lower()
        query = self.vector(word)
        scored = []
        for other, vec in self._vectors.items():
            if other == low:
                continue
            score = float(np.dot(query, vec))
            if score >= minimum:
                scored.append((other, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]

    # ------------------------------------------------------------------
    # phrase-level helpers
    # ------------------------------------------------------------------
    def phrase_vector(self, phrase: str) -> np.ndarray:
        """Mean vector of a whitespace-tokenised phrase."""
        words = [w for w in phrase.lower().split() if w]
        if not words:
            raise EmbeddingError("cannot embed an empty phrase")
        stacked = np.vstack([self.vector(w) for w in words])
        return _normalize(stacked.mean(axis=0))

    def phrase_similarity(self, phrase_a: str, phrase_b: str) -> float:
        """Cosine similarity between mean phrase vectors."""
        if phrase_a.strip().lower() == phrase_b.strip().lower():
            return 1.0
        return float(np.dot(self.phrase_vector(phrase_a), self.phrase_vector(phrase_b)))

    def copy(self) -> "VectorStore":
        """Deep copy (used by the retrofit, which mutates vectors)."""
        clone = VectorStore(self.dimensions, backfill_unknown=self.backfill_unknown)
        for word, vec in self._vectors.items():
            clone._vectors[word] = vec.copy()
        return clone


def _normalize(vector: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vector)
    if norm == 0:
        return vector
    return vector / norm


def _hash_vector(word: str, dimensions: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector derived from the word text."""
    digest = hashlib.sha256(word.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    return _normalize(rng.standard_normal(dimensions))
