#!/usr/bin/env python
"""Documentation lint: docstrings + ``__all__`` + markdown links + cited symbols.

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
  internals on purpose, so a refactor that deletes one must update it).

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
    "src/repro/service",
    "src/repro/persistence",
    "src/repro/replication",
    "src/repro/observability",
    "src/repro/rpc",
    "src/repro/indexing/columnar.py",
)

#: markdown documents whose relative links must resolve
LINKED_DOCUMENTS = ("README.md", "docs/*.md", "benchmarks/README.md")

#: document whose cited ``_private_name`` identifiers must exist in the source
SYMBOL_DOCUMENT = "docs/ARCHITECTURE.md"
SYMBOL_SOURCES = "src/repro"

_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_PRIVATE_NAME = re.compile(r"(?<![A-Za-z0-9_])_[A-Za-z]\w*")


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
    if (root / SYMBOL_DOCUMENT).exists():
        findings.extend(
            lint_symbols(root / SYMBOL_DOCUMENT, root / SYMBOL_SOURCES, root)
        )

    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} documentation finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
