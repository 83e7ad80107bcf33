"""Every public top-level name of the library, and every public method of a
public class, has a caller in the library or the benchmark: code that only
its own tests use is deleted, or moved into the tests when it is a reference
for library code.  Every private function and method has a caller outside
its own definition, so a helper left behind by a refactor is caught."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superrigid"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defs(nodes, kinds, private=False):
    """(name, first line, last line) of each public def among the nodes, or
    with private, of each one with a leading underscore that is no dunder."""
    for node in nodes:
        if not isinstance(node, kinds):
            continue
        name = node.name
        if (name.startswith("_") == private
                and not (name.startswith("__") and name.endswith("__"))):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield name, first, node.end_lineno


def _modules():
    """(file, parsed module) of each module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def public_definitions():
    """(file, name, first line, last line) of each public top-level def and
    class in the package."""
    for path, tree in _modules():
        for name, first, last in _defs(tree.body, DEFS):
            yield path, name, first, last


def public_methods():
    """(file, Class.name, first line, last line) of each public method of
    each public top-level class in the package."""
    for path, tree in _modules():
        classes = [n for n in tree.body if isinstance(n, ast.ClassDef)
                   and not n.name.startswith("_")]
        for cls in classes:
            for name, first, last in _defs(cls.body, DEFS[:2]):
                yield path, f"{cls.name}.{name}", first, last


def private_definitions():
    """(file, name, first line, last line) of each private top-level
    function, and of each private method of any top-level class, in the
    package."""
    for path, tree in _modules():
        for name, first, last in _defs(tree.body, DEFS[:2], private=True):
            yield path, name, first, last
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, first, last in _defs(cls.body, DEFS[:2], private=True):
                yield path, f"{cls.name}.{name}", first, last


def word_sites(pattern=r"\w+"):
    """Word -> (file, line number) of each line of Python in src/ and
    perfbench/ that holds a match of pattern; the word is the match's first
    group, or the whole match when pattern has no group."""
    sites = {}
    for top in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            for k, text in enumerate(path.read_text().splitlines(), 1):
                for word in set(re.findall(pattern, text)):
                    sites.setdefault(word, []).append((path, k))
    return sites


def _unused(defs, sites, word):
    """Qualified names of the defs whose word has no site outside the def."""
    return [f"{path.stem}.{name}" for path, name, first, last in defs
            if all(where == path and first <= k <= last
                   for where, k in sites.get(word(name), []))]


def test_every_public_name_has_a_caller():
    defs = list(public_definitions())
    assert len(defs) > 50
    unused = _unused(defs, word_sites(), lambda name: name)
    assert unused == [], (
        "public names with no caller in src/ or perfbench/: "
        + ", ".join(unused))


def test_every_public_method_has_a_caller():
    """A method counts as called where its name follows a dot."""
    defs = list(public_methods())
    assert len(defs) > 30
    unused = _unused(defs, word_sites(r"\.(\w+)"),
                     lambda name: name.rpartition(".")[2])
    assert unused == [], (
        "public methods with no caller in src/ or perfbench/: "
        + ", ".join(unused))


def test_no_public_function_shares_a_method_name():
    """The method check counts any call after a dot, so a top-level function
    named like a public method would pass it through the method's callers
    alone; each public function needs a name of its own."""
    methods = {name.rpartition(".")[2] for _, name, _, _ in public_methods()}
    shared = [f"{path.stem}.{name}"
              for path, name, _, _ in public_definitions() if name in methods]
    assert shared == [], (
        "public functions named like a public method: " + ", ".join(shared))


def test_every_private_name_has_a_caller():
    """A private function counts as called wherever its name appears, a
    private method where its name follows a dot."""
    defs = list(private_definitions())
    functions = [d for d in defs if "." not in d[1]]
    methods = [d for d in defs if "." in d[1]]
    assert len(functions) > 50 and len(methods) > 5
    unused = (_unused(functions, word_sites(), lambda name: name)
              + _unused(methods, word_sites(r"\.(\w+)"),
                        lambda name: name.rpartition(".")[2]))
    assert unused == [], (
        "private names with no caller outside their definition: "
        + ", ".join(unused))


def slot_definitions():
    """(file, Class.slot, first line, last line) for each name in the
    __slots__ of each top-level class in the package; the lines span the
    class's __init__, or none when it has no __init__."""
    for path, tree in _modules():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            init = next((n for n in cls.body if isinstance(n, ast.FunctionDef)
                         and n.name == "__init__"), None)
            first, last = (init.lineno, init.end_lineno) if init else (0, -1)
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and [getattr(t, "id", None) for t in node.targets]
                        == ["__slots__"]):
                    for name in ast.literal_eval(node.value):
                        yield path, f"{cls.name}.{name}", first, last


def test_every_slot_is_read():
    """A slot counts as read where its name follows a dot outside its
    class's __init__, so a cache slot that only __init__ touches is
    caught."""
    defs = list(slot_definitions())
    assert len(defs) > 10
    unused = _unused(defs, word_sites(r"\.(\w+)"),
                     lambda name: name.rpartition(".")[2])
    assert unused == [], (
        "slots read nowhere outside their class's __init__: "
        + ", ".join(unused))
