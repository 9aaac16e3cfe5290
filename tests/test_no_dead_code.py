"""Every module-level function, class and constant in `src/tperfect`,
and every method of those classes but the dunder ones, is named somewhere
in the project outside its own definition: in the package, the tests, the
demos or the benchmark harness.  A name that only its own definition
mentions is code that nothing calls or reads."""

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
