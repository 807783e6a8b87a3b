"""Per-sentence evaluation of the extract clause (Section 4.3).

Given the candidate bindings DPLI derived from the indexes, the evaluator
produces, for one sentence, every assignment of variables that satisfies the
extract clause exactly: node variables bind to tokens matching their
absolute paths, entity variables bind to entity mentions, span variables are
assembled from their atoms according to the horizontal conditions (using the
skip plan to avoid enumerating elastic spans), and all explicit and derived
constraints are checked.

These exact checks are required because index-derived candidates are
complete but not sound ("the bindings obtained by evaluating the indices
with decomposed paths may still contain false answers").
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from itertools import islice, product

from ..indexing.entity_index import accepted_types
from ..indexing.exact import match_path_in_sentence
from ..indexing.query_ir import TreePath
from ..nlp.types import Sentence
from .ast import Elastic, PathExpr, SpanExpr, SubtreeRef, TokenSeq, VarRef
from .dpli import DpliResult
from .gsp import SkipPlan, generate_skip_plan, generate_skip_plans_batch
from .normalize import HorizontalCondition, NormalizedQuery
from .paths import to_tree_path

# A guard against pathological nested-loop sizes (mostly relevant for the
# NOGSP baseline on long sentences).
_MAX_ASSIGNMENTS_PER_SENTENCE = 200_000


@dataclass(frozen=True)
class Binding:
    """A variable's value within one sentence.

    ``start``/``end`` are inclusive token indexes; an *empty* binding (an
    elastic span matching zero tokens) has ``end == start - 1``.  ``node``
    is the token index for node-term variables, ``None`` otherwise.
    """

    sid: int
    start: int
    end: int
    node: int | None = None

    @property
    def is_empty(self) -> bool:
        return self.end < self.start

    def length(self) -> int:
        return 0 if self.is_empty else self.end - self.start + 1


Assignment = dict[str, Binding]


def final_conditions(path: PathExpr) -> tuple:
    """The conditions on the last step of *path* (checked per matched token)."""
    return tuple(path.steps[-1].conditions) if path.steps else ()


def step_condition_holds(sentence: Sentence, tid: int, attribute: str, value: str) -> bool:
    """Whether token *tid* meets one final-step condition (``pos``, ``text``, ...)."""
    if attribute == "pos":
        return sentence.pos_tags[tid].lower() == value.lower()
    if attribute == "text":
        return sentence.words[tid].lower() == value.lower()
    if attribute == "etype":
        entity_type = sentence.entity_types[tid]
        if value.lower() == "entity":
            return entity_type is not None
        return (entity_type or "").lower() == value.lower()
    if attribute == "regex":
        return re.search(value, sentence.words[tid]) is not None
    return True


class SentenceEvaluator:
    """Evaluates the extract clause of one normalised query over sentences."""

    def __init__(self, normalized: NormalizedQuery, use_gsp: bool = True) -> None:
        self.normalized = normalized
        self.use_gsp = use_gsp
        #: cumulative wall-clock spent generating skip plans, so callers can
        #: report the GSP stage without re-running plan generation
        self.gsp_seconds = 0.0
        #: skip plans pre-generated in one vectorized pass (columnar DPLI);
        #: evaluate() falls back to per-sentence generation on misses
        self._plans: dict[int, SkipPlan] | None = None
        # resolved once per evaluator, not per candidate sentence: what each
        # entity variable accepts, and each path (of a variable or an inline
        # span atom) as its tree path plus final-step conditions
        self._entity_types = {
            variable: accepted_types(etype)
            for variable, etype in normalized.entity_vars.items()
        }
        self._variable_paths = {
            variable: (normalized.tree_paths[variable], final_conditions(path))
            for variable, path in normalized.absolute_paths.items()
        }
        self._atom_paths = {
            atom_var: (to_tree_path(atom), final_conditions(atom))
            for atom_var, atom in normalized.atom_vars.items()
            if isinstance(atom, PathExpr)
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def prepare_skip_plans(self, sentences: list[Sentence], dpli: DpliResult) -> None:
        """Batch-generate skip plans for *sentences* ahead of evaluation.

        Only effective when GSP is enabled and the query has horizontal
        conditions; otherwise this is a no-op.  The cost model reads DPLI's
        sorted sid columns for all *sentences* at once.  The time spent is
        accounted to ``gsp_seconds`` just like the per-sentence path, so
        stage timings remain comparable.
        """
        if not self.use_gsp or not sentences:
            return
        if not self.normalized.horizontal_conditions:
            return
        gsp_started = time.perf_counter()
        self._plans = generate_skip_plans_batch(
            self.normalized,
            dpli,
            [sentence.sid for sentence in sentences],
            [len(sentence) for sentence in sentences],
        )
        self.gsp_seconds += time.perf_counter() - gsp_started

    def evaluate(self, sentence: Sentence, dpli: DpliResult) -> list[Assignment]:
        """All assignments satisfying the extract clause in *sentence*."""
        if len(sentence) == 0:
            return []
        node_bindings = self._node_variable_bindings(sentence)
        if node_bindings is None:
            return []

        if self.use_gsp:
            skip_plan = (
                self._plans.get(sentence.sid) if self._plans is not None else None
            )
            if skip_plan is None:
                gsp_started = time.perf_counter()
                skip_plan = generate_skip_plan(
                    self.normalized, dpli, sentence.sid, len(sentence)
                )
                self.gsp_seconds += time.perf_counter() - gsp_started
        else:
            skip_plan = SkipPlan(
                skip_lists={c.target: [] for c in self.normalized.horizontal_conditions}
            )

        assignments = self._enumerate_node_assignments(node_bindings)
        assignments = self._extend_with_span_variables(sentence, assignments, skip_plan)
        assignments = [a for a in assignments if self._check_constraints(sentence, a)]
        return assignments

    # ------------------------------------------------------------------
    # node and entity variables
    # ------------------------------------------------------------------
    def _node_variable_bindings(
        self, sentence: Sentence
    ) -> dict[str, list[Binding]] | None:
        """Exact candidate bindings for entity and path variables, or None."""
        bindings: dict[str, list[Binding]] = {}
        for variable, accepted in self._entity_types.items():
            mentions = [
                Binding(sid=sentence.sid, start=start, end=end)
                for start, end, etype, _ in sentence.entity_rows
                if accepted is None or etype in accepted
            ]
            if not mentions:
                return None
            bindings[variable] = mentions
        for variable, (tree_path, conditions) in self._variable_paths.items():
            matches = self._match_path(sentence, tree_path, conditions)
            if not matches:
                return None
            bindings[variable] = matches
        return bindings

    def _match_path(
        self, sentence: Sentence, tree_path: TreePath, conditions
    ) -> list[Binding]:
        token_ids = match_path_in_sentence(sentence, tree_path)
        result = []
        for tid in token_ids:
            if all(
                step_condition_holds(sentence, tid, cond.attribute, cond.value)
                for cond in conditions
            ):
                result.append(Binding(sid=sentence.sid, start=tid, end=tid, node=tid))
        return result

    @staticmethod
    def _enumerate_node_assignments(
        node_bindings: dict[str, list[Binding]],
    ) -> list[Assignment]:
        """The first ``_MAX_ASSIGNMENTS_PER_SENTENCE`` combinations, in product order."""
        names = list(node_bindings)
        combinations = product(*(node_bindings[name] for name in names))
        return [
            dict(zip(names, values))
            for values in islice(combinations, _MAX_ASSIGNMENTS_PER_SENTENCE)
        ]

    # ------------------------------------------------------------------
    # span variables (horizontal conditions)
    # ------------------------------------------------------------------
    def _extend_with_span_variables(
        self,
        sentence: Sentence,
        assignments: list[Assignment],
        skip_plan: SkipPlan,
    ) -> list[Assignment]:
        for condition in self.normalized.horizontal_conditions:
            skipped = skip_plan.skipped(condition.target)
            extended: list[Assignment] = []
            for assignment in assignments:
                extended.extend(
                    self._align_condition(sentence, assignment, condition, skipped)
                )
                if len(extended) >= _MAX_ASSIGNMENTS_PER_SENTENCE:
                    break
            assignments = extended
            if not assignments:
                return []
        return assignments

    def _align_condition(
        self,
        sentence: Sentence,
        assignment: Assignment,
        condition: HorizontalCondition,
        skipped: set[str],
    ) -> list[Assignment]:
        """Bind the atoms of one span definition and derive the target span."""
        atom_vars = condition.atom_vars
        options: list[list[Binding | None]] = []
        for atom_var in atom_vars:
            if atom_var in skipped:
                options.append([None])  # derived later from the gap
                continue
            options.append(self._atom_candidates(sentence, assignment, atom_var))

        results: list[Assignment] = []
        for combo in product(*options):
            aligned = self._try_align(sentence, atom_vars, list(combo), skipped, assignment)
            if aligned is None:
                continue
            new_assignment = dict(assignment)
            new_assignment.update(aligned)
            first = aligned[atom_vars[0]]
            last = aligned[atom_vars[-1]]
            start = first.start if not first.is_empty else first.start
            end = last.end if not last.is_empty else last.start - 1
            if end < start:
                # the whole span collapsed to nothing; not a valid binding
                continue
            new_assignment[condition.target] = Binding(
                sid=sentence.sid, start=start, end=end
            )
            results.append(new_assignment)
            if len(results) >= _MAX_ASSIGNMENTS_PER_SENTENCE:
                break
        return results

    def _atom_candidates(
        self, sentence: Sentence, assignment: Assignment, atom_var: str
    ) -> list[Binding]:
        """Candidate bindings for one (non-skipped) atom."""
        atom = self.normalized.atom_vars.get(atom_var)
        if atom is None:
            # a reference to a real variable already bound in the assignment
            bound = assignment.get(atom_var)
            return [bound] if bound is not None else []
        if isinstance(atom, TokenSeq):
            return self._token_sequence_occurrences(sentence, atom.text)
        if isinstance(atom, SubtreeRef):
            bound = assignment.get(atom.var)
            if bound is None or bound.node is None:
                return []
            left, right = sentence.subtree_span(bound.node)
            return [Binding(sid=sentence.sid, start=left, end=right)]
        if isinstance(atom, PathExpr):
            return self._match_path(sentence, *self._atom_paths[atom_var])
        if isinstance(atom, Elastic):
            return self._elastic_spans(sentence, atom)
        if isinstance(atom, SpanExpr):  # pragma: no cover - not produced by parser
            return []
        return []

    def _token_sequence_occurrences(self, sentence: Sentence, text: str) -> list[Binding]:
        words = [w.lower() for w in text.split()]
        if not words:
            return []
        tokens = [word.lower() for word in sentence.words]
        found = []
        for start in range(0, len(tokens) - len(words) + 1):
            if tokens[start : start + len(words)] == words:
                found.append(
                    Binding(sid=sentence.sid, start=start, end=start + len(words) - 1)
                )
        return found

    def _elastic_spans(self, sentence: Sentence, atom: Elastic) -> list[Binding]:
        """Every span (including empty ones) an elastic atom could bind to.

        This is the expensive enumeration the skip plan avoids; it is only
        exercised by the NOGSP baseline and by elastic atoms that cannot be
        skipped.
        """
        n = len(sentence)
        spans: list[Binding] = []
        max_len = atom.max_tokens if atom.max_tokens is not None else n
        for start in range(n + 1):
            if atom.min_tokens == 0:
                spans.append(Binding(sid=sentence.sid, start=start, end=start - 1))
            for end in range(start + max(0, atom.min_tokens - 1), min(n, start + max_len)):
                binding = Binding(sid=sentence.sid, start=start, end=end)
                if self._elastic_constraints_hold(sentence, atom, binding):
                    spans.append(binding)
        return spans

    def _elastic_constraints_hold(
        self, sentence: Sentence, atom: Elastic, binding: Binding
    ) -> bool:
        if binding.is_empty:
            return atom.min_tokens == 0
        if binding.length() < atom.min_tokens:
            return False
        if atom.max_tokens is not None and binding.length() > atom.max_tokens:
            return False
        if atom.etype is not None:
            mention = sentence.entity_at(binding.start)
            if mention is None:
                return False
            if atom.etype.lower() != "entity" and mention.etype.lower() != atom.etype.lower():
                return False
            if not (mention.start == binding.start and mention.end == binding.end):
                return False
        if atom.regex is not None:
            text = sentence.span_text(binding.start, binding.end)
            if re.search(atom.regex, text) is None:
                return False
        return True

    def _try_align(
        self,
        sentence: Sentence,
        atom_vars: list[str],
        combo: list[Binding | None],
        skipped: set[str],
        assignment: Assignment,
    ) -> dict[str, Binding] | None:
        """Check adjacency of concrete atoms and derive skipped atoms from gaps."""
        aligned: dict[str, Binding] = {}
        previous_end: int | None = None
        for index, (atom_var, binding) in enumerate(zip(atom_vars, combo)):
            if binding is not None:
                if previous_end is not None:
                    expected_start = previous_end + 1
                    actual_start = binding.start
                    if atom_vars[index - 1] in skipped or (index > 0 and combo[index - 1] is None):
                        # the gap belongs to the previous (skipped) atom
                        if actual_start < expected_start:
                            return None
                    elif actual_start != expected_start:
                        return None
                aligned[atom_var] = binding
                previous_end = binding.end if not binding.is_empty else binding.start - 1
            else:
                # skipped atom: derive after we know the next concrete start
                aligned[atom_var] = Binding(sid=sentence.sid, start=0, end=-1)
        # second pass: give skipped atoms the gap between their neighbours
        for index, atom_var in enumerate(atom_vars):
            if combo[index] is not None:
                continue
            left = self._previous_concrete(atom_vars, combo, aligned, index)
            right = self._next_concrete(atom_vars, combo, aligned, index)
            gap_start = (left.end + 1) if left is not None and not left.is_empty else (
                left.start if left is not None else 0
            )
            gap_end = (right.start - 1) if right is not None else gap_start - 1
            derived = Binding(sid=sentence.sid, start=gap_start, end=gap_end)
            atom = self.normalized.atom_vars.get(atom_var)
            if isinstance(atom, Elastic):
                if not self._elastic_constraints_hold(sentence, atom, derived):
                    return None
            elif isinstance(atom, TokenSeq):
                expected = [w.lower() for w in atom.text.split()]
                words = sentence.words
                actual = [
                    words[t].lower() for t in range(derived.start, derived.end + 1)
                ]
                if actual != expected:
                    return None
            aligned[atom_var] = derived
        return aligned

    @staticmethod
    def _previous_concrete(atom_vars, combo, aligned, index) -> Binding | None:
        for i in range(index - 1, -1, -1):
            if combo[i] is not None:
                return aligned[atom_vars[i]]
        return None

    @staticmethod
    def _next_concrete(atom_vars, combo, aligned, index) -> Binding | None:
        for i in range(index + 1, len(atom_vars)):
            if combo[i] is not None:
                return aligned[atom_vars[i]]
        return None

    # ------------------------------------------------------------------
    # constraint checking
    # ------------------------------------------------------------------
    def _check_constraints(self, sentence: Sentence, assignment: Assignment) -> bool:
        for constraint in self.normalized.constraints:
            left = assignment.get(constraint.left)
            right = assignment.get(constraint.right)
            if left is None or right is None:
                # constraints over atom variables only apply to assignments
                # that bound them (skipped atoms are always consistent)
                continue
            if not self._constraint_holds(sentence, constraint.op, left, right):
                return False
        return True

    def _constraint_holds(
        self, sentence: Sentence, op: str, left: Binding, right: Binding
    ) -> bool:
        if op == "in":
            return right.start <= left.start and left.end <= right.end
        if op == "eq":
            return left.start == right.start and left.end == right.end
        if op == "leftOf":
            left_end = left.end if not left.is_empty else left.start - 1
            right_start = right.start
            return left_end < right_start or right.is_empty
        if op == "parentOf":
            if left.node is None or right.node is None:
                return False
            return sentence.heads[right.node] == left.node
        if op == "ancestorOf":
            if left.node is None or right.node is None:
                return False
            return sentence.is_ancestor(left.node, right.node)
        return True
