"""A NELL-style coupled-bootstrapping extractor (Carlson et al.; Section 6.1).

NELL learns extraction patterns for a category from a handful of seed
instances, then alternates between (a) finding new patterns that co-occur
with known instances and (b) promoting new instances matched by enough
learned patterns.  Its defining behaviour — which the paper's comparison
highlights — is conservatism: it only promotes instances supported by
patterns that are themselves supported by several known instances, so it
reaches high precision but very low recall on entities that are mentioned
only a few times (new cafes in blog posts).

The implementation below reproduces that behaviour with the same knobs:
seed instances, a minimum pattern support, a minimum instance support and a
fixed number of bootstrapping iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nlp.types import Corpus, Sentence


@dataclass
class BootstrapState:
    """The evolving state of one bootstrapping run."""

    instances: set[str] = field(default_factory=set)
    patterns: set[tuple[str, str]] = field(default_factory=set)
    promoted_by_iteration: list[set[str]] = field(default_factory=list)


class NellBootstrapper:
    """Pattern/instance co-training for one category.

    Parameters
    ----------
    seeds:
        Seed instance strings ("the creators of NELL ... added cafes as a
        new category with 17 seed instances").
    min_pattern_support:
        A context pattern is promoted when it co-occurs with at least this
        many distinct known instances.
    min_instance_support:
        A candidate instance is promoted when at least this many distinct
        promoted patterns match it.
    iterations:
        Number of pattern-promotion / instance-promotion rounds.
    context_width:
        Number of tokens of left and right context forming a pattern.
    """

    def __init__(
        self,
        seeds: set[str],
        min_pattern_support: int = 2,
        min_instance_support: int = 2,
        iterations: int = 3,
        context_width: int = 2,
    ) -> None:
        self.seeds = {s.lower() for s in seeds}
        self.min_pattern_support = min_pattern_support
        self.min_instance_support = min_instance_support
        self.iterations = iterations
        self.context_width = context_width

    # ------------------------------------------------------------------
    # bootstrapping
    # ------------------------------------------------------------------
    def run(self, corpus: Corpus) -> BootstrapState:
        """Run the bootstrap over *corpus* and return its final state."""
        state = BootstrapState(instances=set(self.seeds))
        candidate_contexts = self._candidate_contexts(corpus)

        for _ in range(self.iterations):
            new_patterns = self._promote_patterns(candidate_contexts, state)
            state.patterns |= new_patterns
            new_instances = self._promote_instances(candidate_contexts, state)
            freshly_promoted = new_instances - state.instances
            state.instances |= new_instances
            state.promoted_by_iteration.append(freshly_promoted)
            if not freshly_promoted and not new_patterns:
                break
        return state

    def extract_all(self, corpus: Corpus) -> dict[str, set[str]]:
        """doc_id -> instances (other than seeds) found in that document."""
        state = self.run(corpus)
        learned = {i for i in state.instances}
        results: dict[str, set[str]] = {}
        for document in corpus:
            found = set()
            for sentence in document:
                for text, _ in self._mentions(sentence):
                    if text.lower() in learned:
                        found.add(text)
            results[document.doc_id] = found
        return results

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _candidate_contexts(
        self, corpus: Corpus
    ) -> list[tuple[str, tuple[str, str]]]:
        """(candidate text, (left context, right context)) for every mention."""
        contexts = []
        for _, sentence in corpus.all_sentences():
            tokens = [tok.text.lower() for tok in sentence]
            for text, (start, end) in self._mentions(sentence):
                left = " ".join(tokens[max(0, start - self.context_width) : start])
                right = " ".join(tokens[end + 1 : end + 1 + self.context_width])
                contexts.append((text, (left, right)))
        return contexts

    @staticmethod
    def _mentions(sentence: Sentence) -> list[tuple[str, tuple[int, int]]]:
        """Candidate noun phrases: the sentence's entity mentions."""
        return [
            (mention.text, (mention.start, mention.end))
            for mention in sentence.entities
        ]

    def _promote_patterns(
        self,
        contexts: list[tuple[str, tuple[str, str]]],
        state: BootstrapState,
    ) -> set[tuple[str, str]]:
        support: dict[tuple[str, str], set[str]] = {}
        for text, context in contexts:
            if text.lower() in state.instances:
                if not context[0] and not context[1]:
                    continue
                support.setdefault(context, set()).add(text.lower())
        return {
            context
            for context, instances in support.items()
            if len(instances) >= self.min_pattern_support
        }

    def _promote_instances(
        self,
        contexts: list[tuple[str, tuple[str, str]]],
        state: BootstrapState,
    ) -> set[str]:
        support: dict[str, set[tuple[str, str]]] = {}
        surface: dict[str, str] = {}
        for text, context in contexts:
            if context in state.patterns:
                support.setdefault(text.lower(), set()).add(context)
                surface.setdefault(text.lower(), text)
        promoted = {
            low
            for low, patterns in support.items()
            if len(patterns) >= self.min_instance_support
        }
        return promoted | state.instances
