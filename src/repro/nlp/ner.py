"""Named-entity recognition via gazetteers and capitalisation heuristics.

KOKO queries frequently bind variables to entity mentions (``a:Entity``,
``a:GPE``, ``a:Person``), and the entity index of Section 3.1 stores one
triple per mention.  The recogniser implemented here finds contiguous
capitalised spans, decides a type from gazetteers and head-noun cues, and
also recognises dates.  Entity mentions never cross sentence boundaries.
"""

from __future__ import annotations

from .lexicon import (
    CAFE_NAME_KEYWORDS,
    FACILITY_HEAD_NOUNS,
    GAZETTEER_GPE,
    GAZETTEER_ORG_SUFFIX,
    GAZETTEER_PERSON_FIRST,
    GAZETTEER_PERSON_LAST,
    MONTHS,
    TEAM_HEAD_NOUNS,
    looks_like_number,
)
from .types import EntityMention, detokenize

# Sentence-initial words we never treat as the start of a proper-noun span.
_STOP_INITIAL = {
    "the", "a", "an", "i", "we", "he", "she", "it", "they", "this", "that",
    "these", "those", "my", "our", "his", "her", "their", "its", "there",
    "here", "today", "yesterday", "tomorrow", "when", "while", "after",
    "before", "during", "if", "although", "once", "one",
}


class EntityRecognizer:
    """Gazetteer + heuristic entity mention detector.

    Parameters
    ----------
    extra_gazetteers:
        Optional mapping from entity type to additional lower-cased full
        names, e.g. ``{"ORGANIZATION": {"blue bottle coffee"}}``.  The
        synthetic corpora register their generated names here so that NER
        coverage is realistic rather than magically perfect: registration
        is optional and the heuristics still apply to unregistered names.
    """

    def __init__(self, extra_gazetteers: dict[str, set[str]] | None = None) -> None:
        self._extra: dict[str, set[str]] = {
            etype: {name.lower() for name in names}
            for etype, names in (extra_gazetteers or {}).items()
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def recognize(self, words: list[str], tags: list[str]) -> list[EntityMention]:
        """Return the entity mentions of one sentence.

        Three mention sources, in priority order: capitalised spans (typed
        via gazetteers and head-noun cues), dates, and common-noun chunks
        (typed OTHER) — the last mirrors the behaviour of the Google NL
        annotator used in the paper's Figure 1, where "chocolate ice cream"
        and "grocery store" are entities of type OTHER / LOCATION.
        """
        mentions = self._capitalized_spans(words, tags)
        mentions.extend(self._date_spans(words, tags, mentions))
        mentions.extend(self._noun_chunks(words, tags, mentions))
        mentions.sort(key=lambda m: m.start)
        return mentions

    def _noun_chunks(
        self,
        words: list[str],
        tags: list[str],
        existing: list[EntityMention],
    ) -> list[EntityMention]:
        """Maximal runs of common nouns not covered by another mention."""
        covered = set()
        for mention in existing:
            covered.update(range(mention.start, mention.end + 1))
        mentions: list[EntityMention] = []
        n = len(words)
        i = 0
        while i < n:
            if tags[i] == "NOUN" and i not in covered:
                j = i
                while j < n and tags[j] == "NOUN" and j not in covered:
                    j += 1
                mentions.append(
                    EntityMention(
                        start=i,
                        end=j - 1,
                        etype="OTHER",
                        text=detokenize(words[i:j]),
                    )
                )
                i = j
            else:
                i += 1
        return mentions

    # ------------------------------------------------------------------
    # capitalised spans
    # ------------------------------------------------------------------
    def _capitalized_spans(
        self, words: list[str], tags: list[str]
    ) -> list[EntityMention]:
        mentions: list[EntityMention] = []
        n = len(words)
        i = 0
        while i < n:
            if self._starts_span(words, tags, i):
                j = i
                while j < n and self._continues_span(words, tags, i, j):
                    j += 1
                # trim trailing connector words ("of", "the", "&")
                while j - 1 > i and words[j - 1].lower() in {"of", "the", "&", "and"}:
                    j -= 1
                if j > i:
                    text = detokenize(words[i:j])
                    etype = self._classify(words[i:j], text)
                    mentions.append(
                        EntityMention(start=i, end=j - 1, etype=etype, text=text)
                    )
                i = j
            else:
                i += 1
        return mentions

    def _starts_span(self, words: list[str], tags: list[str], i: int) -> bool:
        word = words[i]
        if not word or not word[0].isupper() or not word[0].isalpha():
            return False
        if i == 0 and word.lower() in _STOP_INITIAL:
            return False
        if tags[i] in {"DET", "ADP", "CONJ", "PRON", "PUNCT", "PRT"}:
            return False
        # Sentence-initial common words ("Baking", "She") start a span only
        # when followed by another capitalised word.
        if i == 0 and tags[i] != "PROPN":
            return (
                i + 1 < len(words)
                and words[i + 1][:1].isupper()
                and words[i + 1][:1].isalpha()
            )
        return tags[i] in {"PROPN", "NOUN", "ADJ", "NUM"} or word[0].isupper()

    def _continues_span(
        self, words: list[str], tags: list[str], start: int, j: int
    ) -> bool:
        if j == start:
            return True
        word = words[j]
        low = word.lower()
        if word[:1].isupper() and word[:1].isalpha():
            return tags[j] not in {"PUNCT"}
        # lower-case connectors inside names ("University of Tokyo",
        # "Cup & Kettle") continue the span when followed by a capital.
        # "and" is NOT a connector: "China and Japan" is a coordination of
        # two mentions, not one mention.
        if low in {"of", "the", "&"} and j + 1 < len(words):
            nxt = words[j + 1]
            return nxt[:1].isupper() and nxt[:1].isalpha()
        return False

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def _classify(self, span_words: list[str], text: str) -> str:
        low_text = text.lower()
        lows = [w.lower() for w in span_words]

        for etype, names in self._extra.items():
            if low_text in names:
                return etype

        if all(w in MONTHS or looks_like_number(w) for w in lows):
            return "DATE"
        if low_text in GAZETTEER_GPE or all(w in GAZETTEER_GPE for w in lows):
            return "GPE"
        if any(w in GAZETTEER_ORG_SUFFIX for w in lows):
            return "ORGANIZATION"
        if any(w in TEAM_HEAD_NOUNS for w in lows) and len(lows) >= 2:
            return "TEAM"
        if any(w in FACILITY_HEAD_NOUNS for w in lows):
            return "FACILITY"
        if any(w in CAFE_NAME_KEYWORDS for w in lows):
            return "ORGANIZATION"
        if lows and lows[0] in GAZETTEER_PERSON_FIRST:
            if len(lows) == 1 or lows[-1] in GAZETTEER_PERSON_LAST or len(lows) == 2:
                return "PERSON"
        if lows and lows[-1] in GAZETTEER_PERSON_LAST:
            return "PERSON"
        return "OTHER"

    # ------------------------------------------------------------------
    # dates: "1 December 1900", "December 1900", "in 1911"
    # ------------------------------------------------------------------
    def _date_spans(
        self,
        words: list[str],
        tags: list[str],
        existing: list[EntityMention],
    ) -> list[EntityMention]:
        covered = set()
        for mention in existing:
            covered.update(range(mention.start, mention.end + 1))
        mentions: list[EntityMention] = []
        n = len(words)
        i = 0
        while i < n:
            if i in covered:
                i += 1
                continue
            low = words[i].lower()
            if low in MONTHS:
                start = i
                end = i
                if i > 0 and looks_like_number(words[i - 1]) and (i - 1) not in covered:
                    start = i - 1
                if i + 1 < n and looks_like_number(words[i + 1]):
                    end = i + 1
                mentions.append(
                    EntityMention(
                        start=start,
                        end=end,
                        etype="DATE",
                        text=detokenize(words[start : end + 1]),
                    )
                )
                i = end + 1
                continue
            if looks_like_number(words[i]) and self._looks_like_year(words[i]):
                mentions.append(
                    EntityMention(start=i, end=i, etype="DATE", text=words[i])
                )
            i += 1
        return mentions

    @staticmethod
    def _looks_like_year(word: str) -> bool:
        return word.isdigit() and len(word) == 4 and 1000 <= int(word) <= 2999
