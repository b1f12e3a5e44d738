"""The library is pure stdlib: every import in src/anf_sat_lab is either the
package itself or a module of the standard library."""

import ast
import pathlib
import sys

PACKAGE = "anf_sat_lab"
SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / PACKAGE


def _foreign_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name
        for name in names
        if name.split(".")[0] not in sys.stdlib_module_names | {PACKAGE}
    ]


def test_every_module_imports_only_stdlib_or_itself():
    modules = sorted(SOURCE.rglob("*.py"))
    assert len(modules) > 10
    found = {str(p.relative_to(SOURCE)): _foreign_imports(p) for p in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_the_check_catches_a_foreign_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nfrom . import anf\nimport numpy.linalg\nfrom hypothesis import given\n")
    assert _foreign_imports(probe) == ["numpy.linalg", "hypothesis"]
