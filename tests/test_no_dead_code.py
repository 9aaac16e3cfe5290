"""Every module-level function, class and constant in `src/tperfect`,
and every method of those classes but the dunder ones, is named somewhere
in the project outside its own definition: in the package, the tests, the
demos or the benchmark harness.  A name that only its own definition
mentions is code that nothing calls or reads.  Inside a function, every
name that a single-name `=` binds is read somewhere in that function."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tperfect"
SEARCHED = ("src", "tests", "demos", "perfbench")
WORD = re.compile(r"\w+")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(name, node) for each top-level definition and each non-dunder
    method of a class, and for each non-dunder name a top-level
    assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not is_dunder(target.id):
                    yield target.id, node
        if not isinstance(node, DEFINITIONS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not is_dunder(item.name):
                    yield item.name, item


def test_every_top_level_definition_is_named_elsewhere():
    texts = {
        path: path.read_text(encoding="utf-8")
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    counts = Counter(w for text in texts.values() for w in WORD.findall(text))
    unnamed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = texts[path].splitlines()
        for name, node in definitions(ast.parse(texts[path])):
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            own = "\n".join(lines[first - 1:node.end_lineno])
            inside = sum(1 for w in WORD.findall(own) if w == name)
            if counts[name] == inside:
                unnamed.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unnamed, "defined but named nowhere else:\n" + "\n".join(unnamed)


def unread_locals(tree: ast.Module):
    """(function, name, line) for each name that a single-name `=` binds
    in a function, nested functions included, and that the function and
    its nested functions never read.  A name declared `global` or
    `nonlocal` is bound for an outer scope and is left out."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read, outer = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and target.id not in read | outer:
                    yield fn.name, target.id, node.lineno


def test_every_bound_local_is_read():
    unread = [
        f"{path.relative_to(ROOT)}:{line} {fn} binds {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for fn, name, line in unread_locals(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unread, "bound but never read:\n" + "\n".join(unread)


def test_unread_locals_are_flagged():
    tree = ast.parse(
        "def f(a):\n"
        "    unused = a + 1\n"
        "    used = a\n"
        "    def g():\n"
        "        nonlocal used\n"
        "        used = 2\n"
        "        inner = used\n"
        "    return g\n"
    )
    assert [(fn, name) for fn, name, _ in unread_locals(tree)] == [
        ("f", "unused"), ("f", "inner"), ("g", "inner")
    ]
