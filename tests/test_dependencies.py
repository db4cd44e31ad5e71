"""numpy is the only runtime dependency: every import in the package is of
the standard library, of numpy, or relative."""

import ast
import pathlib
import sys

import grunlab

ALLOWED = sys.stdlib_module_names | {"numpy"}


def test_the_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(pathlib.Path(grunlab.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert not foreign
