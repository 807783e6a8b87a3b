"""KOKO's multi-indexing scheme and the baseline index designs."""

from .decompose import DecomposedPath, decompose_path, lookup_decomposed_block
from .entity_index import EntityIndex
from .exact import (
    count_extractions,
    match_path_in_sentence,
    matching_sentences,
    sentence_matches_query,
)
from .hierarchy import HierarchyIndex, HierarchyNode, parse_label_index, pos_tag_index
from .koko_index import IndexStatistics, KokoIndexSet
from .sharding import ShardedIndexSet, shard_of
from .postings import (
    EntityPosting,
    Posting,
    ancestor_of,
    join_ancestor,
    join_descendant,
    join_same_token,
    parent_of,
    posting_for_token,
    union,
)
from .query_ir import (
    CHILD,
    DESCENDANT,
    KIND_ANY,
    KIND_PARSE_LABEL,
    KIND_POS,
    KIND_WORD,
    TreePath,
    TreePatternQuery,
    TreeStep,
    path,
    step,
)
from .word_index import WordIndex

__all__ = [
    "CHILD",
    "DESCENDANT",
    "DecomposedPath",
    "EntityIndex",
    "EntityPosting",
    "HierarchyIndex",
    "HierarchyNode",
    "IndexStatistics",
    "KIND_ANY",
    "KIND_PARSE_LABEL",
    "KIND_POS",
    "KIND_WORD",
    "KokoIndexSet",
    "Posting",
    "ShardedIndexSet",
    "TreePath",
    "TreePatternQuery",
    "TreeStep",
    "WordIndex",
    "ancestor_of",
    "count_extractions",
    "decompose_path",
    "join_ancestor",
    "join_descendant",
    "join_same_token",
    "lookup_decomposed_block",
    "match_path_in_sentence",
    "matching_sentences",
    "parent_of",
    "parse_label_index",
    "path",
    "pos_tag_index",
    "posting_for_token",
    "sentence_matches_query",
    "shard_of",
    "step",
    "union",
]
