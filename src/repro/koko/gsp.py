"""Generate Skip Plan — Algorithm 2 of the paper.

For every *horizontal condition* (a span definition ``x = e1 + ... + em``)
and a given sentence, the skip plan selects atoms whose direct evaluation
should be skipped: their bindings are derived later from the bindings of
their neighbours.  The selection is greedy by estimated cost — the number of
candidate bindings the atom has in the sentence, with an elastic span ``^``
costing ``t(t+1)/2`` (all possible spans of a ``t``-token sentence) — under
the constraint that two adjacent atoms are never both skipped (otherwise the
gap between their neighbours would be ambiguous).

DPLI carries each variable's sorted sid column, so the cost model can be
evaluated for **all candidate sentences at once**: every atom's
per-sentence binding counts come back as one searchsorted pass over the
variable's sorted sid column (:func:`generate_skip_plans_batch`), and only
the tiny greedy selection still runs per sentence.  Both paths share the
greedy step and produce identical plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ast import Elastic, PathExpr, SubtreeRef, TokenSeq
from .dpli import DpliResult
from .normalize import HorizontalCondition, NormalizedQuery


@dataclass
class SkipPlan:
    """The variables to skip, per horizontal condition target."""

    skip_lists: dict[str, list[str]] = field(default_factory=dict)

    def skipped(self, target: str) -> set[str]:
        return set(self.skip_lists.get(target, ()))

    def total_skipped(self) -> int:
        return sum(len(v) for v in self.skip_lists.values())


def estimate_cost(
    atom_var: str,
    normalized: NormalizedQuery,
    dpli: DpliResult,
    sid: int,
    sentence_tokens: int,
) -> float:
    """The cost model of Section 4.3: binding count, or t(t+1)/2 for ``^``."""
    atom = normalized.atom_vars.get(atom_var)
    if isinstance(atom, Elastic):
        return sentence_tokens * (sentence_tokens + 1) / 2.0
    if isinstance(atom, TokenSeq):
        # occurrences of a literal token sequence: at most t
        return float(sentence_tokens)
    if isinstance(atom, SubtreeRef):
        return float(max(1, dpli.bindings_count(atom.var, sid)))
    if isinstance(atom, PathExpr):
        return float(sentence_tokens)
    # a real variable: its candidate binding count in this sentence
    return float(max(1, dpli.bindings_count(atom_var, sid)))


def _estimate_cost_array(
    atom_var: str,
    normalized: NormalizedQuery,
    dpli: DpliResult,
    sids: np.ndarray,
    token_counts: np.ndarray,
) -> np.ndarray:
    """:func:`estimate_cost` for every candidate sentence in one pass."""
    atom = normalized.atom_vars.get(atom_var)
    tokens = token_counts.astype(np.float64)
    if isinstance(atom, Elastic):
        return tokens * (tokens + 1.0) / 2.0
    if isinstance(atom, TokenSeq):
        return tokens
    if isinstance(atom, SubtreeRef):
        counts = dpli.bindings_count_array(atom.var, sids)
        return np.maximum(1, counts).astype(np.float64)
    if isinstance(atom, PathExpr):
        return tokens
    counts = dpli.bindings_count_array(atom_var, sids)
    return np.maximum(1, counts).astype(np.float64)


def generate_skip_plan(
    normalized: NormalizedQuery,
    dpli: DpliResult,
    sid: int,
    sentence_tokens: int,
) -> SkipPlan:
    """Run Algorithm 2 for one sentence."""
    plan = SkipPlan()
    for condition in normalized.horizontal_conditions:
        plan.skip_lists[condition.target] = _skip_list_for(
            condition, normalized, dpli, sid, sentence_tokens
        )
    return plan


def generate_skip_plans_batch(
    normalized: NormalizedQuery,
    dpli: DpliResult,
    sids: list[int],
    token_counts: list[int],
) -> dict[int, SkipPlan]:
    """Run Algorithm 2 for many sentences with vectorized cost estimation.

    Returns one :class:`SkipPlan` per sentence id, identical to what
    :func:`generate_skip_plan` would produce sentence by sentence — the cost
    arrays round-trip through Python floats before the greedy sort, so the
    orderings (and hence the plans) match bit for bit.
    """
    plans = {sid: SkipPlan() for sid in sids}
    if not sids:
        return plans
    sid_arr = np.asarray(sids, dtype=np.int64)
    token_arr = np.asarray(token_counts, dtype=np.int64)
    for condition in normalized.horizontal_conditions:
        atom_vars = condition.atom_vars
        if len(atom_vars) <= 1:
            for plan in plans.values():
                plan.skip_lists[condition.target] = []
            continue
        cost_columns = {
            var: _estimate_cost_array(
                var, normalized, dpli, sid_arr, token_arr
            ).tolist()
            for var in atom_vars
        }
        for row, sid in enumerate(sids):
            costs = {var: cost_columns[var][row] for var in atom_vars}
            plans[sid].skip_lists[condition.target] = _greedy_skip_list(
                atom_vars, costs
            )
    return plans


def _skip_list_for(
    condition: HorizontalCondition,
    normalized: NormalizedQuery,
    dpli: DpliResult,
    sid: int,
    sentence_tokens: int,
) -> list[str]:
    atom_vars = condition.atom_vars
    if len(atom_vars) <= 1:
        return []
    costs = {
        var: estimate_cost(var, normalized, dpli, sid, sentence_tokens)
        for var in atom_vars
    }
    return _greedy_skip_list(atom_vars, costs)


def _greedy_skip_list(atom_vars: list[str], costs: dict[str, float]) -> list[str]:
    """Greedy selection: highest cost first; skip unless a neighbour is skipped."""
    ordered = sorted(atom_vars, key=lambda v: -costs[v])
    skipped: list[str] = []
    skipped_set: set[str] = set()
    for var in ordered:
        index = atom_vars.index(var)
        left = atom_vars[index - 1] if index > 0 else None
        right = atom_vars[index + 1] if index + 1 < len(atom_vars) else None
        if (left is None or left not in skipped_set) and (
            right is None or right not in skipped_set
        ):
            skipped.append(var)
            skipped_set.add(var)
    return skipped
