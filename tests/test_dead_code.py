"""Every public function, class and method of predgrad is used by the
program: by another part of the package, by the benchmark (perfbench/,
whose trace targets name attributes by string) or by the bench/ cases.
A name that only tests use belongs with the tests."""

import ast
from pathlib import Path

import predgrad

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "predgrad"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def references() -> set:
    """The names, attributes and string constants that the package (apart
    from its ``__init__``, whose imports and exports use nothing), the
    benchmark and the bench/ cases mention."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    found = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def public_definitions():
    """(module, qualified name, name) of each public top-level function or
    class and each public method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def test_every_public_definition_is_used_outside_the_tests():
    used = references()
    unused = [f"{module}.{qualified}" for module, qualified, name in public_definitions()
              if name not in used]
    assert not unused, f"defined but used only by tests, if at all: {unused}"


def test_every_exported_name_resolves():
    missing = [name for name in predgrad.__all__ if not hasattr(predgrad, name)]
    assert not missing
    assert len(set(predgrad.__all__)) == len(predgrad.__all__)
