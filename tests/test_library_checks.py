"""Source-level checks on the library package."""

import ast
from collections import Counter
from pathlib import Path

import nnquery

PACKAGE = Path(nnquery.__file__).parent


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_in_library():
    # `python -O` strips assert statements, so internal checks raise
    # explicit exceptions instead; AssertionError is left to the tests.
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert or AssertionError in the library: {found}"


def test_no_unused_import_in_library():
    # a name imported but never read is dead weight; names listed in
    # `__all__` (the package's re-exports) count as read
    found = []
    for path, tree in _modules():
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        found += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert not found, f"unused imports in the library: {found}"


def test_oracles_import_only_model_structures():
    # the oracles check the package's algorithms, so they may borrow its
    # model data structures but none of the code under test
    path = Path(__file__).with_name("oracles.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "nnquery"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nnquery":
            found += [f"{node.module}.{a.name}" for a in node.names]
    assert sorted(found) == ["nnquery.network.Network", "nnquery.network.Neuron"], found


def _functions(tree):
    # named functions only: a lambda holds no statements, and its
    # signature is fixed by its consumer
    return [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_no_import_inside_a_function_in_library():
    # imports sit at module level, where the module's dependencies are
    # visible at a glance and an import cycle fails at import time
    found = []
    for path, tree in _modules():
        for func in _functions(tree):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"import inside a function in the library: {found}"


def test_no_unused_parameter_in_library():
    # a parameter that the function never reads is dead weight.  Exempt
    # are the slots a caller's protocol fixes: a method's receiver (self,
    # cls), and names with a leading underscore, which mark a callback
    # argument that this function does not need
    found = []
    for path, tree in _modules():
        for func in _functions(tree):
            a = func.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {
                node.id
                for stmt in func.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
            }
            found += [
                f"{path.name}:{func.lineno} {func.name}({p.arg})"
                for p in params
                if p is not None
                and p.arg not in read
                and not p.arg.startswith("_")
                and p.arg not in ("self", "cls")
            ]
    assert not found, f"unused parameters in the library: {found}"


def _is_click_command(node):
    # `@main.command(...)`, `@click.group()` and the like
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _names(tree):
    # every name read, looked up as an attribute or imported under the tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_library_function_has_a_caller():
    # a top-level function or class that no library module names outside
    # its own body, that is not exported through its module's `__all__` and
    # is no CLI command serves only the tests: it belongs next to them
    modules = list(_modules())
    uses = Counter(name for _path, tree in modules for name in _names(tree))
    found = []
    for path, tree in modules:
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        found += [
            f"{path.name}:{node.lineno} {node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in exported
            and not _is_click_command(node)
            and uses[node.name] == list(_names(node)).count(node.name)
        ]
    assert not found, f"library functions with no caller outside the tests: {found}"


def test_no_line_over_100_characters():
    # a line count that falls by packing code into long lines shows nothing
    found = [
        f"{path.name}:{n} ({len(line)})"
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > 100
    ]
    assert not found, f"lines over 100 characters in the library: {found}"
