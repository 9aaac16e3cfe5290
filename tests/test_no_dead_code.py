"""Every module-level function and class in `src/tperfect`, and every
method of those classes but the dunder ones, is named somewhere in the
project outside its own definition: in the package, the tests, the demos
or the benchmark harness.  A name that only its own definition mentions
is code that nothing calls or reads."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tperfect"
SEARCHED = ("src", "tests", "demos", "perfbench")
WORD = re.compile(r"\w+")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module):
    """Top-level definitions, then the non-dunder methods of each class."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


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
        for node in definitions(ast.parse(texts[path])):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[first - 1:node.end_lineno])
            inside = sum(1 for w in WORD.findall(own) if w == node.name)
            if counts[node.name] == inside:
                unnamed.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not unnamed, "defined but named nowhere else:\n" + "\n".join(unnamed)
