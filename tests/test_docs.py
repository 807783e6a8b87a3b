"""Tier-1 guard for the documentation lint (`scripts/check_docs.py`).

Keeps the docs-and-docstring bar enforced locally, not only in CI: every
module under ``src/repro/service`` and ``src/repro/persistence`` must
carry a module docstring, ``__all__``, and docstrings on public
classes/functions/methods — and every relative markdown link in
``README.md``, ``docs/*.md`` and ``benchmarks/README.md`` must resolve,
every ``_private_name`` ``docs/ARCHITECTURE.md`` cites must exist in
``src/repro``, ``docs/OPERATIONS.md``'s metric table must name every
metric ``src/repro`` registers while citing none it does not, and that
document must cite every ``KokoService`` constructor parameter while its
knob table names none that is gone, and every ``benchmarks/``,
``scripts/`` or ``examples/`` Python file those documents or the verify
skill cite must exist.
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


def test_metric_table_must_name_every_registered_metric_verbatim(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "module.py").write_text(
        "def register(registry, name):\n"
        '    registry.counter("koko_listed_total", "Listed.")\n'
        '    registry.histogram("koko_listed_seconds", "In the meaning column only.")\n'
        '    registry.gauge(\n        "koko_unlisted", "Nowhere.", ("shard",)\n    )\n'
        "    registry.gauge(name)  # not a literal: out of scope\n"
    )
    (tmp_path / "docs" / "OPERATIONS.md").write_text(
        "| Knob | Meaning |\n| --- | --- |\n| `koko_unlisted` | not the metric table |\n\n"
        "| Metric | Kind | Meaning |\n| --- | --- | --- |\n"
        "| `koko_listed_total{shard}` | counter | time: `koko_listed_seconds` |\n"
        "| `koko_gone_total` / `koko_listed_*` | counter | shorthand |\n"
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
    flagged = [
        line.split(" MET ")[1] for line in completed.stdout.splitlines() if " MET " in line
    ]
    assert flagged == [
        "koko_listed_seconds is missing from the metric table of docs/OPERATIONS.md",
        "koko_unlisted is missing from the metric table of docs/OPERATIONS.md",
        "koko_gone_total is not registered in src/repro/",
        "koko_listed_ is not registered in src/repro/",
    ]


def test_knob_table_and_constructor_must_agree(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "service").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "service" / "service.py").write_text(
        "class KokoService:\n"
        "    def __init__(self, shards=None, storage_dir=None, undocumented=1):\n"
        "        pass\n"
    )
    (tmp_path / "docs" / "OPERATIONS.md").write_text(
        "Open with `KokoService.open(storage_dir)`; the word undocumented is prose.\n\n"
        "| Knob | Default | What it does |\n| --- | --- | --- |\n"
        "| `shards` | 1 | Partitions. |\n"
        "| `wal_sync` / `shards` | `True` | Deleted. |\n"
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
    flagged = [
        line.split(" KNB ")[1] for line in completed.stdout.splitlines() if " KNB " in line
    ]
    assert flagged == [
        "KokoService(undocumented) is not cited in docs/OPERATIONS.md",
        "wal_sync in the knob table is not a KokoService parameter",
    ]


def test_a_cited_benchmark_script_or_example_that_is_gone_is_flagged(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "kept.py").write_text('"""Kept."""\n')
    (tmp_path / "README.md").write_text(
        "Run `scripts/kept.py`, then `python benchmarks/gone.py --smoke`.\n"
        "Not paths: src/repro/scripts/x.py, `benchmarks/bench_*.py`, scripts/kept.pyc.\n"
    )
    skill = tmp_path / ".claude" / "skills" / "verify"
    skill.mkdir(parents=True)
    (skill / "SKILL.md").write_text("python examples/missing_demo.py\n")
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
    assert [line for line in completed.stdout.splitlines() if " PTH " in line] == [
        "README.md:1: PTH benchmarks/gone.py does not exist",
        ".claude/skills/verify/SKILL.md:1: PTH examples/missing_demo.py does not exist",
    ]
