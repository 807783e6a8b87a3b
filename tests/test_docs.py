"""Tier-1 guard for the documentation lint (`scripts/check_docs.py`).

Keeps the docs-and-docstring bar enforced locally, not only in CI: every
module under ``src/repro/service`` and ``src/repro/persistence`` must
carry a module docstring, ``__all__``, and docstrings on public
classes/functions/methods — and every relative markdown link in
``README.md``, ``docs/*.md`` and ``benchmarks/README.md`` must resolve,
every ``_private_name`` ``docs/ARCHITECTURE.md`` cites must exist in
``src/repro``, ``docs/OPERATIONS.md``'s metric table must name every
metric ``src/repro`` registers while citing none it does not, every such
metric must have a reader outside its own registration, and that
document must cite every constructor parameter of ``KokoService`` and
its serving edges while its knob table names none that is gone, and
every ``benchmarks/``,
``scripts/`` or ``examples/`` Python file those documents or the verify
skill cite must exist.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

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
        # named only in the metric table: no reader (koko_unlisted's
        # knob-table mention is outside it, so that one is read)
        "koko_listed_total has no reader",
        "koko_listed_seconds has no reader",
    ]


def test_a_metric_nothing_reads_is_flagged(tmp_path):
    for directory in ("docs", "src/repro", "scripts", "tests/observability"):
        (tmp_path / directory).mkdir(parents=True)
    (tmp_path / "src" / "repro" / "module.py").write_text(
        "def register(registry):\n"
        '    registry.counter("koko_orphan_total", "Pinned and tabled only.")\n'
        '    registry.counter("koko_read_total", "A test reads it.")\n'
        '    registry.counter("koko_runbook_total", "The runbook reads it.")\n'
        '    registry.histogram(\n        "koko_series_seconds", "A script reads a series."\n    )\n'
    )
    (tmp_path / "tests" / "observability" / "test_metric_surface.py").write_text(
        'SURFACE = ["koko_orphan_total", "koko_read_total", "koko_series_seconds"]\n'
    )
    (tmp_path / "tests" / "test_reader.py").write_text(
        'def test_it(service):\n    service.metrics.get("koko_read_total")\n'
    )
    (tmp_path / "scripts" / "plot.py").write_text('"""Plots koko_series_seconds_bucket."""\n')
    (tmp_path / "docs" / "OPERATIONS.md").write_text(
        "| Metric | Kind | Meaning |\n| --- | --- | --- |\n"
        "| `koko_orphan_total` / `koko_read_total` | counter | x |\n"
        "| `koko_runbook_total` | counter | x |\n"
        "| `koko_series_seconds` | histogram | x |\n\n"
        "Alert when `koko_runbook_total` rises.\n"
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
    assert completed.stdout.splitlines() == [
        "src/repro/module.py:2: MET koko_orphan_total has no reader"
    ]


def _probe_tree(root: Path) -> None:
    """One registered, tabled and pinned metric that nothing reads yet."""
    for directory in ("docs", "src/repro", "tests/observability"):
        (root / directory).mkdir(parents=True)
    (root / "src" / "repro" / "module.py").write_text(
        "def register(registry):\n"
        '    registry.histogram("koko_probe_seconds", "Probe latency.")\n'
    )
    (root / "tests" / "observability" / "test_metric_surface.py").write_text(
        'SURFACE = ["koko_probe_seconds"]\n'
    )
    (root / "docs" / "OPERATIONS.md").write_text(
        "| Metric | Kind | Meaning |\n| --- | --- | --- |\n"
        "| `koko_probe_seconds` | histogram | x |\n"
    )


def _check_docs(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_docs.py"), "--root", str(root)],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    ("path", "text"),
    [
        ("tests/service/test_probe.py", 'metrics.get("koko_probe_seconds")\n'),
        ("benchmarks/run.py", '"""Reports koko_probe_seconds_sum."""\n'),
        ("scripts/plot.py", '"""Plots koko_probe_seconds_bucket."""\n'),
        ("examples/demo.py", 'print(metrics.get("koko_probe_seconds").count)\n'),
        ("src/repro/health.py", 'def ready(m):\n    return m.get("koko_probe_seconds")\n'),
        ("docs/OPERATIONS.md", "\nPage when `koko_probe_seconds` p99 passes 1 s.\n"),
    ],
    ids=["test", "benchmark", "script", "example", "src", "runbook"],
)
def test_each_reader_site_clears_the_flag(tmp_path, path, text):
    _probe_tree(tmp_path)
    target = tmp_path / path
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(text)
    completed = _check_docs(tmp_path)
    assert (completed.returncode, completed.stdout) == (0, "")


@pytest.mark.parametrize(
    ("path", "text"),
    [
        ("tests/observability/test_metric_surface.py", '# koko_probe_seconds_bucket\n'),
        ("src/repro/other.py", 'def register(r):\n    r.histogram("koko_probe_seconds", "x")\n'),
        ("scripts/notes.txt", "koko_probe_seconds\n"),
    ],
    ids=["surface-pin", "second-registration", "not-python-or-markdown"],
)
def test_a_non_reader_mention_leaves_the_flag(tmp_path, path, text):
    _probe_tree(tmp_path)
    target = tmp_path / path
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(text)
    completed = _check_docs(tmp_path)
    assert completed.returncode == 1
    # one finding per metric, at its first registration in path order
    assert completed.stdout.splitlines() == [
        "src/repro/module.py:2: MET koko_probe_seconds has no reader"
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


def test_an_uncited_serving_edge_parameter_is_flagged(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "replication").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "replication" / "shipper.py").write_text(
        "class LogShipper:\n"
        "    def __init__(self, service, poll_interval=0.02):\n"
        "        pass\n"
    )
    (tmp_path / "docs" / "OPERATIONS.md").write_text(
        "Ship with `LogShipper(service)`; polling is a constant.\n"
    )
    completed = _check_docs(tmp_path)
    assert completed.returncode == 1
    assert [line for line in completed.stdout.splitlines() if " KNB " in line] == [
        "src/repro/replication/shipper.py:2: KNB LogShipper(poll_interval) "
        "is not cited in docs/OPERATIONS.md"
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
