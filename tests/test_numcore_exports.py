"""numcore exports only what the program runs, so a dead op cannot come back
unnoticed."""

import ast
import inspect
from pathlib import Path
from types import ModuleType

import mtlc
import mtlc.numcore as numcore

SRC = Path(mtlc.__file__).resolve().parent


def _names_read(source: str) -> set[str]:
    return {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}


def test_every_export_is_used_outside_its_module_or_by_another_export():
    exports = {
        name: obj
        for name, obj in vars(numcore).items()
        if not name.startswith("_") and not isinstance(obj, ModuleType)
    }
    read_in = {path: _names_read(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")}
    read_by = {
        name: _names_read(inspect.getsource(obj))
        for name, obj in exports.items()
        if inspect.isfunction(obj)
    }
    unused = []
    for name, obj in exports.items():
        home = Path(inspect.getsourcefile(obj)).resolve()
        used_elsewhere = any(name in names for path, names in read_in.items() if path != home)
        called_by_export = any(name in names for other, names in read_by.items() if other != name)
        if not (used_elsewhere or called_by_export):
            unused.append(name)
    assert unused == []
