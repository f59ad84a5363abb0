import ast
from pathlib import Path

import cuntzcalc

SRC = Path(cuntzcalc.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """Names a module imports and never references, except on import
    lines marked `# noqa: F401` (deliberate re-exports)."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_engine_modules_import_only_what_they_use():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 7
    found = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_tests_and_tools_import_only_what_they_use():
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    assert len(files) >= 17
    found = {p.name: unused_imports(p) for p in files}
    assert {name: names for name, names in found.items() if names} == {}
