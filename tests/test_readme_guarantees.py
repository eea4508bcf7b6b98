"""README's "Guarantees and their tests" table names, in each row, tests
that exist, and CI's Quick start step runs README's Quick start."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def guarantee_rows(readme: str) -> list[tuple[str, str, list[str]]]:
    """Each row of README's "Guarantees and their tests" table below its
    header: the guarantee, its "checked by" cell, and the test ids that the
    cell names, as pytest prints them (`tests/<file>::...`).

    A `file.py::...` entry names its file and, if it starts with `Test`, its
    class. A `::name` entry continues the previous id's file, and its class
    too unless it names a class itself. A bare `TestName` is a class in the
    previous id's file. Other code spans (`tier1`, error names) are not ids."""
    section = readme.split("\n## Guarantees and their tests\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    file = cls = None
    for row in [row for row in section.splitlines() if row.startswith("| ")][1:]:
        guarantee, checked_by = row.strip("| ").rsplit(" | ", 1)
        ids = []
        for token in re.findall(r"`([^`]+)`", checked_by):
            if re.fullmatch(r"test_\w+\.py(::\w+)*", token):
                file, *parts = token.split("::")
            elif re.fullmatch(r"(::\w+)+", token) and file:
                parts = token[2:].split("::")
                if not parts[0].startswith("Test") and cls:
                    parts.insert(0, cls)
            elif re.fullmatch(r"Test\w+", token) and file:
                parts = [token]
            else:
                continue
            cls = parts[0] if parts and parts[0].startswith("Test") else None
            ids.append("::".join([f"tests/{file}", *parts]))
        rows.append((guarantee, checked_by, ids))
    return rows


def guarantee_test_ids(readme: str) -> list[str]:
    return [test_id for _, _, ids in guarantee_rows(readme) for test_id in ids]


def collected_test_ids() -> list[str]:
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    listing = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return [line for line in listing.splitlines() if line.startswith("tests/")]


def test_continuation_rules():
    readme = "\n".join(
        [
            "# x",
            "## Guarantees and their tests",
            "",
            "| guarantee | checked by |",
            "|---|---|",
            "| `a` holds | `test_a.py::TestA::test_one`, `::test_two`, `::TestB::test_three`; `tier1` |",
            "| b holds | `test_b.py::test_four`, `::test_five` (and `TestC`), `NumericalError` |",
            "| c holds | `test_c.py`, `test_d.py::TestD`, `::test_six` |",
            "## Metrics",
            "| m | `test_e.py::test_seven` |",
        ]
    )
    assert guarantee_test_ids(readme) == [
        "tests/test_a.py::TestA::test_one",
        "tests/test_a.py::TestA::test_two",
        "tests/test_a.py::TestB::test_three",
        "tests/test_b.py::test_four",
        "tests/test_b.py::test_five",
        "tests/test_b.py::TestC",
        "tests/test_c.py",
        "tests/test_d.py::TestD",
        "tests/test_d.py::TestD::test_six",
    ]


def test_every_named_test_is_collected():
    named = guarantee_test_ids((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(named) > 100
    collected = collected_test_ids()
    missing = [
        name
        for name in named
        if not any(c == name or c.startswith((name + "::", name + "[")) for c in collected)
    ]
    assert not missing, f"README's guarantees table names tests pytest does not collect: {missing}"


def test_every_row_names_a_test_and_one_cites_the_workflow():
    """Every guarantee names a tier-1 test; only the installed-script row
    also cites the workflow, `tier1`, whose Quick start is its check."""
    rows = guarantee_rows((ROOT / "README.md").read_text(encoding="utf-8"))
    assert [guarantee for guarantee, _, ids in rows if not ids] == []
    assert [guarantee for guarantee, checked_by, _ in rows if "`tier1`" in checked_by] == [
        "The toy pipeline runs through the installed `mtlc` script, with a RuntimeWarning an error"
    ]


def test_ci_quick_start_runs_the_readmes_commands():
    """The workflow's Quick start step runs README § Quick start's block,
    line for line, and nothing else."""
    quick_start = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    block = quick_start.split("```\n", 2)[1].splitlines()
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    step = workflow.split("- name: Quick start\n", 1)[1].splitlines()
    run = next(i for i, line in enumerate(step) if line.strip() == "run: |")
    indent = len(step[run + 1]) - len(step[run + 1].lstrip())
    script = []
    for line in step[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        script.append(line[indent:])
    assert "\n".join(script).strip() == "\n".join(block).strip()
