#!/usr/bin/env python
"""Documentation lint: docstrings, ``__all__``, links, cited symbols and metrics.

Stdlib-only (runs anywhere CI or a laptop has Python), mirroring the
missing-docstring subset of pydocstyle/ruff that the repo enforces:

* **D100** — every module under the linted packages has a docstring;
* **D101/D102/D103** — every public class, method and function has one
  (private ``_names`` and dunders are exempt);
* **ALL** — every linted module declares ``__all__`` (``__init__``
  modules included);
* **LNK** — every relative markdown link in the checked documents points
  at an existing file or directory;
* **SYM** — every ``_private_name`` cited in ``docs/ARCHITECTURE.md``
  occurs somewhere under ``src/repro/`` (the architecture document names
  internals on purpose, so a refactor that deletes one must update it);
* **MET** — every metric registered under ``src/repro/`` (the literal
  first argument of a ``.counter(`` / ``.gauge(`` / ``.histogram(`` call)
  is written out in the first column of ``docs/OPERATIONS.md``'s metric
  table, and every ``koko_*`` name that document cites is registered;
  and every registered metric has a *reader*: its name (or a histogram
  series of it) occurs outside its own registration — in a test other
  than the surface pin, under ``benchmarks/``, ``scripts/`` or
  ``examples/``, elsewhere in ``src/repro/``, or in ``docs/OPERATIONS.md``
  outside the metric table;
* **KNB** — every constructor parameter of the service and its serving
  edges (:data:`KNOB_CONSTRUCTORS`: ``KokoService``, ``LogShipper``,
  ``ReplicaService``, ``ReplicaSet``, ``RpcServer``, ``RpcClient``,
  ``TelemetryServer``, ``ClusterTelemetry``) is cited in a code span
  somewhere in ``docs/OPERATIONS.md``, and every code span in the first
  column of its knob table (header cell ``Knob``) is a parameter of one
  of them;
* **PTH** — every ``benchmarks/``, ``scripts/`` or ``examples/`` Python
  file cited in the checked documents or the verify skill exists.

Exit status 0 = clean; 1 = findings (printed one per line as
``path:line: CODE message``).

Usage::

    python scripts/check_docs.py [--root REPO_ROOT]
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

#: packages (or single modules) that must carry docstrings + __all__
LINTED_PACKAGES = (
    "src/repro/net.py",
    "src/repro/service",
    "src/repro/persistence",
    "src/repro/replication",
    "src/repro/observability",
    "src/repro/rpc",
    "src/repro/indexing/columnar.py",
    "src/repro/indexing/reference.py",
    "src/repro/indexing/koko_index.py",
    "src/repro/indexing/word_index.py",
    "src/repro/indexing/entity_index.py",
    "src/repro/indexing/hierarchy.py",
    "src/repro/indexing/sharding.py",
    "src/repro/indexing/postings.py",
    "src/repro/indexing/decompose.py",
    "src/repro/koko/dpli.py",
    "src/repro/koko/bindings.py",
    "src/repro/koko/results.py",
    "src/repro/nlp/types.py",
    "src/repro/nlp/pipeline.py",
)

#: markdown documents whose relative links must resolve
LINKED_DOCUMENTS = ("README.md", "docs/*.md", "benchmarks/README.md")

#: documents whose cited benchmark, script and example files must exist
PATH_DOCUMENTS = (*LINKED_DOCUMENTS, ".claude/skills/verify/SKILL.md")

#: document whose cited ``_private_name`` identifiers must exist in the source
SYMBOL_DOCUMENT = "docs/ARCHITECTURE.md"
SYMBOL_SOURCES = "src/repro"

#: document whose metric table (header cell ``Metric``) lists every metric
METRIC_DOCUMENT = "docs/OPERATIONS.md"
_REGISTRATIONS = ("counter", "gauge", "histogram")

#: trees where naming a registered metric counts as reading it
READER_TREES = ("tests", "benchmarks", "scripts", "examples", "src/repro")
#: lists every metric, so naming one there is not reading it
SURFACE_PIN = "tests/observability/test_metric_surface.py"
_SERIES_SUFFIXES = ("", "_bucket", "_sum", "_count")

#: ``(module, class)`` of each constructor whose parameters OPERATIONS
#: must cite (KNB); a module absent from the tree is skipped
KNOB_CONSTRUCTORS = (
    ("src/repro/service/service.py", "KokoService"),
    ("src/repro/replication/shipper.py", "LogShipper"),
    ("src/repro/replication/replica.py", "ReplicaService"),
    ("src/repro/replication/router.py", "ReplicaSet"),
    ("src/repro/rpc/server.py", "RpcServer"),
    ("src/repro/rpc/client.py", "RpcClient"),
    ("src/repro/observability/exposition.py", "TelemetryServer"),
    ("src/repro/observability/exposition.py", "ClusterTelemetry"),
)

_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_PRIVATE_NAME = re.compile(r"(?<![A-Za-z0-9_])_[A-Za-z]\w*")
_CITED_METRIC = re.compile(r"(?<![A-Za-z0-9_])koko_\w*")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_CITED_PATH = re.compile(r"(?<![\w/.-])(?:benchmarks|scripts|examples)/[\w./-]*\.py(?!\w)")


def lint_docstrings(module_path: Path, repo_root: Path) -> list[str]:
    """Missing-docstring and missing-__all__ findings for one module."""
    findings: list[str] = []
    relative = module_path.relative_to(repo_root)
    tree = ast.parse(module_path.read_text(encoding="utf-8"))

    if ast.get_docstring(tree) is None:
        findings.append(f"{relative}:1: D100 missing module docstring")
    has_all = any(
        isinstance(node, ast.Assign)
        and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        )
        for node in tree.body
    )
    if not has_all:
        findings.append(f"{relative}:1: ALL missing __all__ declaration")

    def is_public(name: str) -> bool:
        return not name.startswith("_")

    def walk(nodes, owner: str = "") -> None:
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                if is_public(node.name):
                    if ast.get_docstring(node) is None:
                        findings.append(
                            f"{relative}:{node.lineno}: D101 missing docstring "
                            f"on class {node.name}"
                        )
                    # members of private classes are exempt (pydocstyle rule)
                    walk(node.body, owner=f"{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if is_public(node.name) and ast.get_docstring(node) is None:
                    code = "D102" if owner else "D103"
                    kind = "method" if owner else "function"
                    findings.append(
                        f"{relative}:{node.lineno}: {code} missing docstring "
                        f"on {kind} {owner}{node.name}"
                    )

    walk(tree.body)
    return findings


def lint_links(document: Path, repo_root: Path) -> list[str]:
    """Broken relative-link findings for one markdown document."""
    findings: list[str] = []
    relative = document.relative_to(repo_root)
    for line_number, line in enumerate(
        document.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for target in _MD_LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (document.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                findings.append(
                    f"{relative}:{line_number}: LNK broken link -> {target}"
                )
    return findings


def lint_paths(document: Path, repo_root: Path) -> list[str]:
    """Findings for cited ``benchmarks|scripts|examples/….py`` files that
    do not exist."""
    findings: list[str] = []
    relative = document.relative_to(repo_root)
    for line_number, line in enumerate(
        document.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for cited in _CITED_PATH.findall(line):
            if not (repo_root / cited).is_file():
                findings.append(f"{relative}:{line_number}: PTH {cited} does not exist")
    return findings


def lint_symbols(document: Path, source_root: Path, repo_root: Path) -> list[str]:
    """Findings for ``_private_name`` citations no source file contains."""
    defined: set[str] = set()
    for module_path in source_root.rglob("*.py"):
        defined.update(_PRIVATE_NAME.findall(module_path.read_text(encoding="utf-8")))
    findings: list[str] = []
    relative = document.relative_to(repo_root)
    for line_number, line in enumerate(
        document.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for name in _PRIVATE_NAME.findall(line):
            if name not in defined:
                findings.append(
                    f"{relative}:{line_number}: SYM {name} is not in {SYMBOL_SOURCES}/"
                )
    return findings


def registrations(source_root: Path, repo_root: Path) -> list[tuple]:
    """``(metric name, path, call line, name line)`` of every literal
    registration, in path order."""
    found: list[tuple] = []
    for module_path in sorted(source_root.rglob("*.py")):
        tree = ast.parse(module_path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _REGISTRATIONS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                path = str(module_path.relative_to(repo_root))
                name = node.args[0]
                found.append((name.value, path, node.lineno, name.lineno))
    return found


def registered_metrics(source_root: Path, repo_root: Path) -> dict[str, tuple]:
    """``{metric name: (path, line)}`` of every literal registration."""
    found: dict[str, tuple] = {}
    for name, path, line, _ in registrations(source_root, repo_root):
        found.setdefault(name, (path, line))
    return found


def table_rows(lines: list[str], header: str) -> list[tuple[int, list[str]]]:
    """``(line number, cells)`` of every row of the table headed
    ``| <header> |`` (header and separator rows included)."""
    rows: list[tuple[int, list[str]]] = []
    in_table = False
    for line_number, line in enumerate(lines, start=1):
        cells = line.strip().strip("|").split("|") if line.startswith("|") else []
        if not cells:
            in_table = False
        elif cells[0].strip() == header:
            in_table = True
        if in_table:
            rows.append((line_number, cells))
    return rows


def first_column_spans(lines: list[str], header: str) -> list[tuple[int, str]]:
    """``(line number, code span)`` in the first column of the table headed
    ``| <header> |``."""
    return [
        (line_number, span)
        for line_number, cells in table_rows(lines, header)[1:]
        for span in _CODE_SPAN.findall(cells[0])
    ]


def metric_table_names(lines: list[str]) -> set[str]:
    """Code spans in the first column of the table headed ``| Metric |``."""
    return {span.split("{")[0] for _, span in first_column_spans(lines, "Metric")}


def lint_metrics(document: Path, source_root: Path, repo_root: Path) -> list[str]:
    """Findings for undocumented metrics and documented-but-absent ones."""
    registered = registered_metrics(source_root, repo_root)
    lines = document.read_text(encoding="utf-8").splitlines()
    documented = metric_table_names(lines)
    relative = document.relative_to(repo_root)
    findings = [
        f"{path}:{line}: MET {name} is missing from the metric table of {relative}"
        for name, (path, line) in sorted(registered.items(), key=lambda item: item[1])
        if name not in documented
    ]
    for line_number, line in enumerate(lines, start=1):
        for name in _CITED_METRIC.findall(line):
            if name not in registered:
                findings.append(
                    f"{relative}:{line_number}: MET {name} is not registered "
                    f"in {SYMBOL_SOURCES}/"
                )
    return findings


def lint_readers(document: Path, source_root: Path, repo_root: Path) -> list[str]:
    """Findings for registered metrics that nothing outside their own
    registration names."""
    sites = registrations(source_root, repo_root)
    own = {(path, line) for _, path, _, line in sites}
    cited: set[str] = set()
    for tree in READER_TREES:
        for path in sorted((repo_root / tree).rglob("*")):
            relative = str(path.relative_to(repo_root))
            if path.suffix not in (".py", ".md") or relative == SURFACE_PIN:
                continue
            for line_number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if (relative, line_number) not in own:
                    cited.update(_CITED_METRIC.findall(line))
    lines = document.read_text(encoding="utf-8").splitlines()
    table = {line_number for line_number, _ in table_rows(lines, "Metric")}
    for line_number, line in enumerate(lines, start=1):
        if line_number not in table:
            cited.update(_CITED_METRIC.findall(line))
    findings: list[str] = []
    for name, path, line, _ in sites:
        if not any(name + suffix in cited for suffix in _SERIES_SUFFIXES):
            findings.append(f"{path}:{line}: MET {name} has no reader")
            cited.add(name)  # one finding per metric
    return findings


def constructor_parameters(module_path: Path, class_name: str) -> list[ast.arg]:
    """The parameters of ``class_name.__init__`` in *module_path*, minus ``self``."""
    tree = ast.parse(module_path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args
                    return [*args.posonlyargs, *args.args, *args.kwonlyargs][1:]
    return []


def lint_knobs(document: Path, repo_root: Path) -> list[str]:
    """Findings for uncited constructor parameters and stale knob-table rows."""
    lines = document.read_text(encoding="utf-8").splitlines()
    cited = {
        word
        for line in lines
        for span in _CODE_SPAN.findall(line)
        for word in _IDENTIFIER.findall(span)
    }
    relative = document.relative_to(repo_root)
    findings: list[str] = []
    names: set[str] = set()
    classes: list[str] = []
    for module, class_name in KNOB_CONSTRUCTORS:
        source = repo_root / module
        if not source.exists():
            continue
        classes.append(class_name)
        for parameter in constructor_parameters(source, class_name):
            names.add(parameter.arg)
            if parameter.arg not in cited:
                findings.append(
                    f"{module}:{parameter.lineno}: KNB {class_name}({parameter.arg}) "
                    f"is not cited in {relative}"
                )
    for line_number, span in first_column_spans(lines, "Knob"):
        if span not in names:
            findings.append(
                f"{relative}:{line_number}: KNB {span} in the knob table is not "
                f"a {' / '.join(classes)} parameter"
            )
    return findings


def main(argv: list[str] | None = None) -> int:
    """Run every lint over the configured packages and documents."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=Path(__file__).resolve().parent.parent,
        type=Path,
        help="repository root (default: the parent of scripts/)",
    )
    args = parser.parse_args(argv)
    root: Path = args.root.resolve()

    findings: list[str] = []
    for package in LINTED_PACKAGES:
        path = root / package
        modules = [path] if path.is_file() else sorted(path.rglob("*.py"))
        for module_path in modules:
            findings.extend(lint_docstrings(module_path, root))
    for pattern in LINKED_DOCUMENTS:
        for document in sorted(root.glob(pattern)):
            findings.extend(lint_links(document, root))
    for pattern in PATH_DOCUMENTS:
        for document in sorted(root.glob(pattern)):
            findings.extend(lint_paths(document, root))
    if (root / SYMBOL_DOCUMENT).exists():
        findings.extend(
            lint_symbols(root / SYMBOL_DOCUMENT, root / SYMBOL_SOURCES, root)
        )
    if (root / METRIC_DOCUMENT).exists():
        findings.extend(
            lint_metrics(root / METRIC_DOCUMENT, root / SYMBOL_SOURCES, root)
        )
        findings.extend(
            lint_readers(root / METRIC_DOCUMENT, root / SYMBOL_SOURCES, root)
        )
        findings.extend(lint_knobs(root / METRIC_DOCUMENT, root))

    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} documentation finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
