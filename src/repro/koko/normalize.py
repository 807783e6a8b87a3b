"""Query normalisation (Section 4.1).

Normalisation rewrites the extract clause into the form the evaluator
consumes:

* every path expression defined relative to another variable is expanded to
  its **absolute** form (``b = a/dobj`` with ``a = //verb`` becomes
  ``b = //verb/dobj``),
* the structural constraints implicit in those definitions are made explicit
  (``a parentOf b``, ``b ancestorOf c``),
* span terms (horizontal conditions) get explicit variables for their
  elastic ``^`` atoms and the corresponding ``leftOf`` adjacency constraints,
* output variables that are entity typed but not declared in the block are
  given implicit entity bindings,
* every absolute path is lowered to the tree-pattern IR for the DPLI module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import KokoSemanticError
from ..indexing.decompose import DecomposedPath, decompose_path
from ..indexing.query_ir import TreePath
from .ast import (
    CHILD_AXIS,
    Declaration,
    Elastic,
    EntityBinding,
    KokoQuery,
    PathExpr,
    SpanExpr,
    SubtreeRef,
    TokenSeq,
    VarConstraint,
    VarRef,
)
from .paths import dominant_of, dominant_paths, to_tree_path


@dataclass
class HorizontalCondition:
    """One span definition ``x = e1 + ... + em`` with named atoms.

    ``atom_vars`` lists, in order, the variable name standing for each atom:
    real variables for variable references, generated names (``_v1``, ...)
    for elastic spans, token sequences, subtrees and inline paths.
    """

    target: str
    atom_vars: list[str] = field(default_factory=list)


@dataclass
class NormalizedQuery:
    """The evaluator-facing view of a query."""

    query: KokoQuery
    #: var -> absolute path expression (node terms only)
    absolute_paths: dict[str, PathExpr] = field(default_factory=dict)
    #: var -> tree-pattern IR of the absolute path
    tree_paths: dict[str, TreePath] = field(default_factory=dict)
    #: var -> entity type for entity-bound variables
    entity_vars: dict[str, str] = field(default_factory=dict)
    #: var -> span expression for span-term variables
    span_vars: dict[str, SpanExpr] = field(default_factory=dict)
    #: generated atom variables: name -> atom (Elastic / TokenSeq / SubtreeRef / PathExpr)
    atom_vars: dict[str, object] = field(default_factory=dict)
    #: all structural constraints: user constraints plus derived ones
    constraints: list[VarConstraint] = field(default_factory=list)
    #: horizontal conditions, one per span-term declaration
    horizontal_conditions: list[HorizontalCondition] = field(default_factory=list)
    #: dominant paths: var -> absolute path (subset of absolute_paths)
    dominant: dict[str, PathExpr] = field(default_factory=dict)
    #: var -> name of the variable whose dominant path serves it
    dominant_for: dict[str, str] = field(default_factory=dict)
    #: dominant var -> Section 4.2.1 decomposition of its tree path
    decomposed: dict[str, DecomposedPath] = field(default_factory=dict)

    def all_variables(self) -> list[str]:
        names = list(self.entity_vars) + list(self.absolute_paths) + list(self.span_vars)
        seen: set[str] = set()
        ordered = []
        for name in names:
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        return ordered


def normalize(query: KokoQuery) -> NormalizedQuery:
    """Normalise *query* (Section 4.1); raises on unresolvable references."""
    normalized = NormalizedQuery(query=query)
    normalized.constraints.extend(query.constraints)

    _classify_declarations(query, normalized)
    _implicit_output_bindings(query, normalized)
    _expand_span_terms(query, normalized)

    normalized.dominant = dominant_paths(normalized.absolute_paths)
    normalized.dominant_for = {
        name: dominant_of(name, normalized.absolute_paths)
        for name in normalized.absolute_paths
    }
    normalized.tree_paths = {
        name: to_tree_path(path) for name, path in normalized.absolute_paths.items()
    }
    normalized.decomposed = {
        name: decompose_path(normalized.tree_paths[name]) for name in normalized.dominant
    }
    return normalized


# ----------------------------------------------------------------------
# declaration classification and path expansion
# ----------------------------------------------------------------------
def _classify_declarations(query: KokoQuery, normalized: NormalizedQuery) -> None:
    for declaration in query.declarations:
        expr = declaration.expr
        if isinstance(expr, EntityBinding):
            normalized.entity_vars[declaration.name] = expr.etype
        elif isinstance(expr, PathExpr):
            absolute = _expand_path(declaration.name, expr, normalized)
            normalized.absolute_paths[declaration.name] = absolute
        elif isinstance(expr, SpanExpr):
            normalized.span_vars[declaration.name] = expr
        else:  # pragma: no cover - parser produces only the above
            raise KokoSemanticError(
                f"unsupported declaration expression for {declaration.name!r}"
            )


def _expand_path(name: str, expr: PathExpr, normalized: NormalizedQuery) -> PathExpr:
    """Expand a relative path to absolute form and derive its constraint."""
    if expr.base_var is None:
        return expr
    base = expr.base_var
    if base in normalized.absolute_paths:
        base_path = normalized.absolute_paths[base]
        absolute = PathExpr(steps=base_path.steps + expr.steps, base_var=None)
        op = (
            "parentOf"
            if len(expr.steps) == 1 and expr.steps[0].axis == CHILD_AXIS
            else "ancestorOf"
        )
        normalized.constraints.append(VarConstraint(left=base, op=op, right=name))
        return absolute
    if base in normalized.entity_vars:
        # a path hanging off an entity variable keeps the entity var as its
        # anchor; the evaluator resolves it per binding.  Constraint derived
        # the same way.
        op = (
            "parentOf"
            if len(expr.steps) == 1 and expr.steps[0].axis == CHILD_AXIS
            else "ancestorOf"
        )
        normalized.constraints.append(VarConstraint(left=base, op=op, right=name))
        return expr
    raise KokoSemanticError(
        f"path for variable {name!r} references unknown base variable {base!r}"
    )


def _implicit_output_bindings(query: KokoQuery, normalized: NormalizedQuery) -> None:
    declared = set(normalized.entity_vars) | set(normalized.absolute_paths) | set(
        normalized.span_vars
    )
    for output in query.outputs:
        if output.name in declared:
            continue
        if output.is_entity_typed:
            normalized.entity_vars[output.name] = output.otype
        else:
            raise KokoSemanticError(
                f"output variable {output.name!r} of type {output.otype!r} is "
                "never declared in the extract clause"
            )


# ----------------------------------------------------------------------
# span terms -> horizontal conditions
# ----------------------------------------------------------------------
def _expand_span_terms(query: KokoQuery, normalized: NormalizedQuery) -> None:
    counter = 0
    for name, span in normalized.span_vars.items():
        condition = HorizontalCondition(target=name)
        previous_atom_var: str | None = None
        for atom in span.atoms:
            if isinstance(atom, VarRef):
                atom_var = atom.name
            else:
                counter += 1
                atom_var = f"_v{counter}"
                normalized.atom_vars[atom_var] = atom
            condition.atom_vars.append(atom_var)
            if previous_atom_var is not None:
                normalized.constraints.append(
                    VarConstraint(left=previous_atom_var, op="leftOf", right=atom_var)
                )
            previous_atom_var = atom_var
        normalized.horizontal_conditions.append(condition)
