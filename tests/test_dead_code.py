"""Every public function, class and method of predgrad is used by the
program: by another part of the package, by the benchmark (perfbench/,
whose trace targets name attributes by string) or by the bench/ cases.
A name that only tests use belongs with the tests. So does an optional
parameter that no call of the program passes: a mode only tests select."""

import ast
import math
from pathlib import Path

import predgrad

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "predgrad"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


# the CLI tests drive main with an argument list; the installed script
# passes none, so that main reads sys.argv
UNPASSED_ALLOWED = {("cli.main", "argv")}


def program_paths() -> list:
    """The package (apart from its ``__init__``, whose imports and exports
    use nothing), the benchmark and the bench/ cases."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return paths + [p for d in ("perfbench", "bench") for p in sorted((ROOT / d).rglob("*.py"))]


def references() -> set:
    """The names, attributes and string constants that the program mentions."""
    found = set()
    for path in program_paths():
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def public_definitions():
    """(module, qualified name, name, node) of each public top-level function
    or class and each public method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path.stem, node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item.name, item


def called_name(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def program_calls() -> list:
    """(name, positional arguments, keywords) of each call in the program,
    a ``partial`` read as the call it makes; inf positional arguments for a
    ``*args`` and None keywords for a ``**kwargs``."""
    found = []
    for path in program_paths():
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if called_name(func) == "partial" and args:
                func, args = args[0], args[1:]
            keywords = {k.arg for k in node.keywords}
            found.append((called_name(func),
                          math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args),
                          None if None in keywords else keywords))
    return found


def optional_parameters():
    """(module.qualified name, name, parameter, its position or None) of
    each parameter with a default of a public function or method; a
    method's positions leave out self."""
    for module, qualified, name, node in public_definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        skip = 1 if "." in qualified and not any(
            called_name(d) == "staticmethod" for d in node.decorator_list) else 0
        for i in range(len(positional) - len(a.defaults), len(positional)):
            yield f"{module}.{qualified}", name, positional[i].arg, i - skip
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield f"{module}.{qualified}", name, arg.arg, None


def test_every_public_definition_is_used_outside_the_tests():
    used = references()
    unused = [f"{module}.{qualified}" for module, qualified, name, _ in public_definitions()
              if name not in used]
    assert not unused, f"defined but used only by tests, if at all: {unused}"


def test_every_optional_parameter_is_passed_by_the_program():
    calls = program_calls()
    unpassed = [(where, param) for where, name, param, pos in optional_parameters()
                if (where, param) not in UNPASSED_ALLOWED
                and not any(called == name and ((pos is not None and n > pos)
                                                or keywords is None or param in keywords)
                            for called, n, keywords in calls)]
    assert not unpassed, f"optional parameters that only tests pass, if any: {unpassed}"


def test_every_exported_name_resolves():
    missing = [name for name in predgrad.__all__ if not hasattr(predgrad, name)]
    assert not missing
    assert len(set(predgrad.__all__)) == len(predgrad.__all__)
