"""Lints on the package's own source."""

import ast
import re
from pathlib import Path

import hallforge
from hallforge import backend


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every check in the package is
    # an explicit raise: ValueError for bad input, AssertionError marked
    # unreachable for an internal invariant
    root = Path(hallforge.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) >= 10
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []



# private attributes a module may read without defining them
FOREIGN_PRIVATE_OK = {"os._exit", "_replace", "_make"}


def private_attribute_reads(tree):
    """"line owner._name" for each read of a private attribute (not a
    dunder) that the module does not define: no def or class of that name,
    no assignment to an attribute of that name, no `__slots__` entry."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx,
                                                                ast.Load):
            defined.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__slots__"
                      for t in node.targets)):
            defined.update(c.value for c in ast.walk(node.value)
                           if isinstance(c, ast.Constant))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_") and not node.attr.endswith("__")
                and node.attr not in defined):
            owner = node.value.id if isinstance(node.value, ast.Name) else "?"
            read = "%s.%s" % (owner, node.attr)
            if read not in FOREIGN_PRIVATE_OK and (
                    node.attr not in FOREIGN_PRIVATE_OK):
                found.append("%d %s" % (node.lineno, read))
    return found


def test_no_module_reads_another_modules_private_attributes():
    # the backend's tables, and every other module's internals, stay behind
    # the module that defines them
    root = Path(hallforge.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%s" % (path.name, read)
                  for read in private_attribute_reads(tree)]
    assert found == []
    # the check sees hall.py reading the backend's class list
    assert private_attribute_reads(ast.parse("n = len(be._classes)")) == [
        "1 be._classes"]


def backend_interface():
    """The names in backticks in the backend module docstring's paragraph
    on the backend interface."""
    (para,) = [p for p in backend.__doc__.split("\n\n")
               if p.startswith("The backend interface")]
    return set(re.findall(r"`(\w+)`", para))


def backend_reads(tree):
    """(line, name) for each attribute read off a backend: be.name,
    alg.be.name, self.be.name and the like."""
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (isinstance(node.value, ast.Name) and node.value.id == "be"
                 or isinstance(node.value, ast.Attribute)
                 and node.value.attr == "be")]


def test_modules_read_only_the_named_backend_interface():
    # one backend interface, named once: every attribute another module
    # reads off a backend is listed in the backend module docstring, and
    # every name listed there is read
    names = backend_interface()
    assert len(names) >= 10
    root = Path(hallforge.__file__).parent
    found, read = [], set()
    for path in sorted(root.rglob("*.py")):
        if path.name == "backend.py":
            continue
        for line, attr in backend_reads(ast.parse(path.read_text(),
                                                  str(path))):
            read.add(attr)
            if attr not in names:
                found.append("%s:%d be.%s" % (path.name, line, attr))
    assert found == []
    assert read == names
    # the check sees reads through an Algebra's or an object's backend
    assert backend_reads(ast.parse("alg.be.x\nself.be.y(be.z)")) == [
        (1, "x"), (2, "y"), (2, "z")]


def algebra_constructions(tree, builder=None):
    """The lines of the `Algebra(...)` calls in a module, outside the
    module-level function named `builder`."""
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == builder:
            inside.update(map(id, ast.walk(node)))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and "Algebra" in (getattr(node.func, "id", None),
                              getattr(node.func, "attr", None))]


def test_only_presented_algebra_builds_an_algebra():
    # an Algebra is compared by identity: a second one for the same (tag,
    # backend) would make equal elements compare unequal, without an error
    root = Path(hallforge.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        builder = "algebra" if path.name == "presented.py" else None
        found += ["%s:%d" % (path.name, line) for line in
                  algebra_constructions(ast.parse(path.read_text(),
                                                  str(path)), builder)]
    assert found == []
    # the one call there is, and one anywhere else, by name or attribute
    presented = ast.parse((root / "presented.py").read_text())
    assert len(algebra_constructions(presented)) == 1
    assert algebra_constructions(ast.parse(
        "def algebra(t, be):\n    return Algebra(t, be)\n"
        "x = presented.Algebra('hd', be)\n"
        "def f(be):\n    return Algebra('hd', be)\n"), "algebra") == [3, 5]
