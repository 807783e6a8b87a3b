"""An Odin-style cascaded rule matcher (Valenzuela-Escárcega et al.; Section 6.3).

Odin evaluates CPSL-style rule cascades over dependency-parsed sentences:
rules are grouped into priority levels, every rule is applied to every
sentence, and the cascade iterates until no rule produces a new mention.
Crucially for the paper's comparison, Odin uses **no indexes** — every rule
scans every sentence on every iteration — which is why it is 1.3x-40x slower
than KOKO depending on query selectivity, and why it cannot aggregate
evidence across sentences.

Rules here are dependency-pattern rules: a trigger word/POS plus a set of
argument paths from the trigger (child / descendant steps over parse
labels), mirroring how the paper translated its three wiki queries "to
Odin's syntax to the extent possible" (extract clauses only, no satisfying
clause).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..indexing.exact import match_path_in_sentence
from ..indexing.query_ir import TreePath
from ..nlp.types import Corpus, Sentence


@dataclass(frozen=True)
class OdinRule:
    """One cascade rule: a name, a priority level, and argument paths.

    Every argument is a root-anchored :class:`TreePath`; the rule fires on a
    sentence when every argument path has at least one binding, and yields
    one mention per binding combination of its *output* arguments.
    """

    name: str
    priority: int
    arguments: tuple[tuple[str, TreePath], ...]
    outputs: tuple[str, ...]


@dataclass
class OdinMention:
    """One mention produced by a rule."""

    rule: str
    sid: int
    values: dict[str, str] = field(default_factory=dict)


class OdinMatcher:
    """Iterate a rule cascade to fixpoint over a parsed corpus."""

    def __init__(self, rules: list[OdinRule], max_iterations: int = 5) -> None:
        self.rules = sorted(rules, key=lambda r: r.priority)
        self.max_iterations = max_iterations
        self.last_runtime = 0.0
        self.last_iterations = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, corpus: Corpus) -> list[OdinMention]:
        """Apply the cascade to every sentence until no new mentions appear."""
        started = time.perf_counter()
        mentions: list[OdinMention] = []
        seen: set[tuple[str, int, tuple[tuple[str, str], ...]]] = set()
        iterations = 0
        changed = True
        while changed and iterations < self.max_iterations:
            iterations += 1
            changed = False
            for rule in self.rules:
                for _, sentence in corpus.all_sentences():
                    for mention in self._apply_rule(rule, sentence):
                        key = (
                            mention.rule,
                            mention.sid,
                            tuple(sorted(mention.values.items())),
                        )
                        if key not in seen:
                            seen.add(key)
                            mentions.append(mention)
                            changed = True
        self.last_runtime = time.perf_counter() - started
        self.last_iterations = iterations
        return mentions

    def _apply_rule(self, rule: OdinRule, sentence: Sentence) -> list[OdinMention]:
        bindings: dict[str, list[int]] = {}
        for name, path in rule.arguments:
            matches = match_path_in_sentence(sentence, path)
            if not matches:
                return []
            bindings[name] = matches
        # one mention per combination of output-argument bindings
        mentions: list[OdinMention] = []
        combos: list[dict[str, str]] = [{}]
        for name in rule.outputs:
            new_combos = []
            for combo in combos:
                for tid in bindings.get(name, []):
                    extended = dict(combo)
                    extended[name] = sentence[tid].text
                    new_combos.append(extended)
            combos = new_combos
        for combo in combos:
            mentions.append(OdinMention(rule=rule.name, sid=sentence.sid, values=combo))
        return mentions
