"""Every public top-level name of the library has a caller in the library
or the benchmark: code that only its own tests use is deleted, or moved into
the tests when it is a reference for library code."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superrigid"


def public_definitions():
    """(file, name, first line, last line) of each public top-level def and
    class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                yield path, node.name, first, node.end_lineno


def word_sites():
    """Word -> (file, line number) of each line of Python in src/ and
    perfbench/ that holds it."""
    sites = {}
    for top in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            for k, text in enumerate(path.read_text().splitlines(), 1):
                for word in set(re.findall(r"\w+", text)):
                    sites.setdefault(word, []).append((path, k))
    return sites


def test_every_public_name_has_a_caller():
    defs = list(public_definitions())
    assert len(defs) > 50
    sites = word_sites()
    unused = [f"{path.stem}.{name}" for path, name, first, last in defs
              if all(where == path and first <= k <= last
                     for where, k in sites.get(name, []))]
    assert unused == [], (
        "public names with no caller in src/ or perfbench/: "
        + ", ".join(unused))
