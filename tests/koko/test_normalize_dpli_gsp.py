"""Tests for query normalisation, path dominance, DPLI and GSP."""

from __future__ import annotations

import pytest

from repro.errors import KokoSemanticError
from repro.koko.ast import Elastic, VarConstraint
from repro.koko.dpli import run_dpli
from repro.koko.gsp import (
    estimate_cost,
    generate_skip_plan,
    generate_skip_plans_batch,
)
from repro.koko.normalize import normalize
from repro.koko.parser import parse_query
from repro.koko.paths import dominant_paths, is_dominated, label_kind, to_tree_path

EXAMPLE_4_1 = """
extract a:Str,b:Str,c:Str from input.txt if (
/ROOT:{
a = Entity, b = //verb[text="ate"],
c = b/dobj, d = c//"delicious",
e = a + ^ + b + ^ + c })
"""

EXAMPLE_2_1 = """
extract e:Entity, d:Str from input.txt if
(/ROOT:{
a = //verb,
b = a/dobj,
c = b//"delicious",
d = (b.subtree)
} (b) in (e))
"""


class TestNormalization:
    def test_paths_expanded_to_absolute(self):
        normalized = normalize(parse_query(EXAMPLE_2_1))
        assert normalized.absolute_paths["b"].render() == "//verb/dobj"
        assert normalized.absolute_paths["c"].render() == '//verb/dobj//"delicious"'

    def test_derived_structural_constraints(self):
        normalized = normalize(parse_query(EXAMPLE_2_1))
        assert VarConstraint("a", "parentOf", "b") in normalized.constraints
        assert VarConstraint("b", "ancestorOf", "c") in normalized.constraints

    def test_example_4_1_constraints(self):
        """Example 4.1: leftOf constraints and generated elastic variables."""
        normalized = normalize(parse_query(EXAMPLE_4_1))
        left_of = [c for c in normalized.constraints if c.op == "leftOf"]
        assert len(left_of) == 4
        elastic_vars = [
            name for name, atom in normalized.atom_vars.items() if isinstance(atom, Elastic)
        ]
        assert len(elastic_vars) == 2
        condition = normalized.horizontal_conditions[0]
        assert condition.target == "e"
        assert len(condition.atom_vars) == 5

    def test_entity_output_gets_implicit_binding(self):
        normalized = normalize(parse_query(EXAMPLE_2_1))
        assert normalized.entity_vars["e"].lower() == "entity"

    def test_str_output_without_declaration_rejected(self):
        with pytest.raises(KokoSemanticError):
            normalize(parse_query('extract z:Str from "t" if (/ROOT:{ a = //verb })'))

    def test_unknown_base_variable_rejected(self):
        with pytest.raises(KokoSemanticError):
            normalize(parse_query('extract x:Entity from "t" if (/ROOT:{ b = q/dobj })'))


class TestDominance:
    def test_example_4_1_dominant_path(self):
        """d is the only dominant path among b, c, d of Example 4.1."""
        normalized = normalize(parse_query(EXAMPLE_4_1))
        dominant = dominant_paths(normalized.absolute_paths)
        assert set(dominant) == {"d"}
        assert normalized.dominant_for["b"] == "d"
        assert normalized.dominant_for["c"] == "d"

    def test_dominance_requires_matching_conditions(self):
        q = parse_query(
            'extract x:Entity from "t" if (/ROOT:{ a = //verb, b = //verb[text="ate"]/dobj })'
        )
        normalized = normalize(q)
        # a (= //verb, no condition) is NOT dominated by b (//verb[text=ate]/dobj)
        dominant = dominant_paths(normalized.absolute_paths)
        assert set(dominant) == {"a", "b"}

    def test_is_dominated_prefix_rule(self):
        q = parse_query('extract x:Entity from "t" if (/ROOT:{ a = //verb, b = a/dobj })')
        normalized = normalize(q)
        assert is_dominated(normalized.absolute_paths["a"], normalized.absolute_paths["b"])
        assert not is_dominated(
            normalized.absolute_paths["b"], normalized.absolute_paths["a"]
        )


class TestLabelKinds:
    def test_label_kind_resolution(self):
        q = parse_query(
            'extract x:Entity from "t" if (/ROOT:{ a = //verb/dobj//"delicious"/* })'
        )
        steps = normalize(q).tree_paths["a"].steps
        assert [s.kind for s in steps] == ["pos", "label", "word", "any"]

    def test_text_condition_strengthens_to_word(self):
        q = parse_query('extract x:Entity from "t" if (/ROOT:{ a = //verb[text="ate"] })')
        tree_path = normalize(q).tree_paths["a"]
        assert tree_path.steps[0].kind == "word"
        assert tree_path.steps[0].label == "ate"


class TestDpli:
    def test_bindings_and_candidates(
        self, paper_corpus, paper_indexes, block_words, posting_rows
    ):
        normalized = normalize(parse_query(EXAMPLE_2_1))
        result = run_dpli(normalized, paper_indexes)
        assert not result.provably_empty
        assert result.candidate_sids.tolist() == [0, 1]
        # all three path variables are served by the dominant path's postings
        bindings = result.path_bindings
        assert posting_rows(bindings["b"]) == posting_rows(bindings["c"])
        assert block_words(paper_corpus, bindings["c"]) == {"delicious"}
        assert len(result.entity_bindings["e"][0]) > 0

    def test_provably_empty_query(self, paper_indexes):
        normalized = normalize(
            parse_query('extract x:Entity from "t" if (/ROOT:{ a = //"zebra" })')
        )
        result = run_dpli(normalized, paper_indexes)
        assert result.provably_empty
        assert result.candidate_sids.tolist() == []

    def test_empty_extract_clause_means_all_sentences(self, paper_indexes):
        normalized = normalize(parse_query('extract x:Entity from "t" if ()'))
        result = run_dpli(normalized, paper_indexes)
        assert result.candidate_sids is not None  # entity postings constrain
        assert result.bindings_count("x", 0) > 0


class TestGsp:
    def test_elastic_atoms_are_skipped(self, paper_indexes):
        normalized = normalize(parse_query(EXAMPLE_4_1))
        dpli = run_dpli(normalized, paper_indexes)
        plan = generate_skip_plan(normalized, dpli, sid=0, sentence_tokens=17)
        skipped = plan.skipped("e")
        elastic_vars = {
            name for name, atom in normalized.atom_vars.items() if isinstance(atom, Elastic)
        }
        assert elastic_vars <= skipped

    def test_adjacent_atoms_not_both_skipped(self, paper_indexes):
        normalized = normalize(parse_query(EXAMPLE_4_1))
        dpli = run_dpli(normalized, paper_indexes)
        plan = generate_skip_plan(normalized, dpli, sid=0, sentence_tokens=17)
        atom_vars = normalized.horizontal_conditions[0].atom_vars
        skipped = plan.skipped("e")
        for left, right in zip(atom_vars, atom_vars[1:]):
            assert not (left in skipped and right in skipped)

    def test_elastic_cost_is_quadratic(self, paper_indexes):
        normalized = normalize(parse_query(EXAMPLE_4_1))
        dpli = run_dpli(normalized, paper_indexes)
        elastic_var = next(
            name for name, atom in normalized.atom_vars.items() if isinstance(atom, Elastic)
        )
        cost = estimate_cost(elastic_var, normalized, dpli, sid=0, sentence_tokens=20)
        assert cost == 20 * 21 / 2

    @pytest.mark.parametrize("query", [EXAMPLE_2_1, EXAMPLE_4_1])
    def test_batch_plans_match_per_sentence_plans(self, query, paper_indexes):
        """The vectorized Algorithm 2 is bit-for-bit the scalar one."""
        normalized = normalize(parse_query(query))
        dpli = run_dpli(normalized, paper_indexes)
        sids, token_counts = [0, 1], [17, 13]
        batch = generate_skip_plans_batch(normalized, dpli, sids, token_counts)
        assert set(batch) == set(sids)
        for sid, tokens in zip(sids, token_counts):
            assert batch[sid] == generate_skip_plan(normalized, dpli, sid, tokens)
        assert generate_skip_plans_batch(normalized, dpli, [], []) == {}

    def test_single_atom_condition_never_skips(self, paper_indexes):
        normalized = normalize(
            parse_query('extract x:Entity from "t" if (/ROOT:{ s = //verb })')
        )
        dpli = run_dpli(normalized, paper_indexes)
        plan = generate_skip_plan(normalized, dpli, sid=0, sentence_tokens=17)
        assert plan.total_skipped() == 0
