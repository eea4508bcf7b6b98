"""README's "Guarantees and their tests" table names only tests that exist."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def guarantee_test_ids(readme: str) -> list[str]:
    """The test ids that README's "Guarantees and their tests" table names in
    its "checked by" column, as pytest prints them (`tests/<file>::...`).

    A `file.py::...` entry names its file and, if it starts with `Test`, its
    class. A `::name` entry continues the previous id's file, and its class
    too unless it names a class itself. A bare `TestName` is a class in the
    previous id's file. Other code spans (`tier1`, error names) are not ids."""
    section = readme.split("\n## Guarantees and their tests\n", 1)[1].split("\n## ", 1)[0]
    ids: list[str] = []
    file = cls = None
    for row in section.splitlines():
        if not row.startswith("| "):
            continue
        checked_by = row.rstrip(" |").rsplit(" | ", 1)[1]
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
    return ids


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
