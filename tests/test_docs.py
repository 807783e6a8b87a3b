"""Tier-1 guard for the documentation lint (`scripts/check_docs.py`).

Keeps the docs-and-docstring bar enforced locally, not only in CI: every
module under ``src/repro/service`` and ``src/repro/persistence`` must
carry a module docstring, ``__all__``, and docstrings on public
classes/functions/methods — and every relative markdown link in
``README.md``, ``docs/*.md`` and ``benchmarks/README.md`` must resolve,
and every ``_private_name`` ``docs/ARCHITECTURE.md`` cites must exist in
``src/repro``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_docstrings_and_markdown_links_are_clean():
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, (
        "documentation lint failed:\n" + completed.stdout + completed.stderr
    )


def test_architecture_doc_citing_a_deleted_private_name_is_flagged(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "module.py").write_text(
        "class Service:\n    _kept_field = 0\n"
    )
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text(
        "claims (_kept_field) and the barrier (`_deleted_field` / _other_gone)\n"
        "but not `__init__` or snake_case_words\n"
    )
    completed = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "check_docs.py"),
            "--root",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 1
    flagged = [line for line in completed.stdout.splitlines() if " SYM " in line]
    assert [line.split(" SYM ")[1].split()[0] for line in flagged] == [
        "_deleted_field",
        "_other_gone",
    ]
