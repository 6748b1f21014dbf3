"""The package imports nothing CI does not install.

The ``tier1`` job installs ``pytest hypothesis`` and nothing else, so
every module under ``src/`` may import the standard library and
``repro`` only -- including inside functions, where a lazy import would
otherwise hide an undeclared dependency until the one code path that
needs it runs.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def imported_roots(path):
    """``(top-level module, line)`` of every absolute import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_src_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"repro"}
    files = sorted(SRC.rglob("*.py"))
    assert files
    foreign = [
        f"{path.relative_to(SRC)}:{line}: {root}"
        for path in files
        for root, line in imported_roots(path)
        if root not in allowed
    ]
    assert foreign == []
