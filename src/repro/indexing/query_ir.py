"""A minimal structural-query IR shared by the index implementations.

The index-comparison experiments (Figures 7 and 8) run *tree-pattern
queries* — sets of root-anchored label paths over dependency trees — against
four different index designs.  To keep the baseline indexes independent of
the KOKO query language, the benchmark queries are expressed in this tiny
intermediate representation; the KOKO front end lowers its own path
expressions to the same IR before calling the DPLI module.

A :class:`TreeStep` is one path step: an axis (``/`` child or ``//``
descendant), a label, and the annotation layer the label refers to
(``label`` = parse label, ``pos`` = POS tag, ``word`` = surface token,
``any`` = wildcard).  A :class:`TreePatternQuery` is a set of absolute
root-anchored paths (tree patterns are normalised into their absolute
paths, exactly as KOKO's query normalisation does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

CHILD = "/"
DESCENDANT = "//"

KIND_PARSE_LABEL = "label"
KIND_POS = "pos"
KIND_WORD = "word"
KIND_ANY = "any"

_VALID_KINDS = {KIND_PARSE_LABEL, KIND_POS, KIND_WORD, KIND_ANY}
_VALID_AXES = {CHILD, DESCENDANT}


@dataclass(frozen=True)
class TreeStep:
    """One step of a path: axis, label text, and the annotation layer."""

    axis: str
    label: str
    kind: str

    def __post_init__(self) -> None:
        if self.axis not in _VALID_AXES:
            raise ValueError(f"invalid axis {self.axis!r}")
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"invalid step kind {self.kind!r}")

    def matches(self, sentence, token: int) -> bool:
        """Whether token *token* of *sentence* carries this step's label."""
        return self.kind == KIND_ANY or (
            self._layer(sentence)[token].lower() == self.label.lower()
        )

    def matching_tokens(self, sentence, candidates: Iterable[int]) -> set[int]:
        """The *candidates* (token ids of *sentence*) whose annotation on this
        step's layer — parse label, POS tag or word — equals the step's
        label case-insensitively; all of them for a wildcard."""
        if self.kind == KIND_ANY:
            return set(candidates)
        column = self._layer(sentence)
        wanted = self.label.lower()
        return {i for i in candidates if column[i].lower() == wanted}

    def _layer(self, sentence):
        """The sentence column this step's label is matched against."""
        if self.kind == KIND_PARSE_LABEL:
            return sentence.labels
        if self.kind == KIND_POS:
            return sentence.pos_tags
        return sentence.words

    def render(self) -> str:
        label = f'"{self.label}"' if self.kind == KIND_WORD else self.label
        return f"{self.axis}{label}"


@dataclass(frozen=True)
class TreePath:
    """A root-anchored sequence of steps."""

    steps: tuple[TreeStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def render(self) -> str:
        return "".join(step.render() for step in self.steps)

    def has_wildcard(self) -> bool:
        return any(step.kind == KIND_ANY for step in self.steps)


@dataclass
class TreePatternQuery:
    """A tree-pattern query: one or more absolute paths plus a readable name."""

    name: str
    paths: list[TreePath] = field(default_factory=list)

    def render(self) -> str:
        return " AND ".join(path.render() for path in self.paths)

    def uses_words(self) -> bool:
        return any(
            step.kind == KIND_WORD for path in self.paths for step in path.steps
        )

    def uses_wildcards(self) -> bool:
        return any(path.has_wildcard() for path in self.paths)


def step(axis: str, label: str, kind: str) -> TreeStep:
    """Convenience constructor used by the benchmark generators and tests."""
    return TreeStep(axis=axis, label=label, kind=kind)


def path(*steps_: TreeStep) -> TreePath:
    """Convenience constructor for a :class:`TreePath`."""
    return TreePath(steps=tuple(steps_))
