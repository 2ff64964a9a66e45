"""Every public function or class of the package, and every public method
of a public class, has a caller in the library or the benchmark; a name that
only its own tests call is a test oracle, and belongs in the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sharecircuit"

# perfbench/spans.py names these only as strings; the next change to the
# benchmark deletes them with their spans (ROADMAP item 4).
UNCALLED = {"field.mat_inverse", "field.mat_rank", "field.mat_vec", "field.submatrix"}


def references(node):
    """How often the code of `node` names each name, as a variable or as an
    attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def public(node, kinds=(ast.FunctionDef, ast.ClassDef)):
    return isinstance(node, kinds) and not node.name.startswith("_")


def public_definitions(root):
    """`module.name` -> node of each top-level public def or class in the
    package under `root`, and `module.Class.name` -> node of each public
    method of a public class."""
    package = root / "src" / "sharecircuit"
    defined = {}
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if public(top):
                defined[f"{path.stem}.{top.name}"] = top
            if public(top, ast.ClassDef):
                for node in top.body:
                    if public(node, ast.FunctionDef):
                        defined[f"{path.stem}.{top.name}.{node.name}"] = node
    return defined


def uncalled_public_names(root):
    """Each public definition (see `public_definitions`) that no code in
    src/ or perfbench/ refers to, its own body aside."""
    paths = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    used = Counter()
    for path in paths:
        used += references(ast.parse(path.read_text(), str(path)))
    return {qual for qual, node in public_definitions(root).items()
            if used[node.name] == references(node)[node.name]}


def shared_public_names(root):
    """The bare names that two or more public definitions share. Callers are
    matched by bare name, so each of two methods named `ok` would count the
    other's callers as its own, and neither could be flagged."""
    names = Counter(node.name for node in public_definitions(root).values())
    return {name for name, count in names.items() if count > 1}


def test_every_public_name_has_a_caller_outside_the_tests():
    # Equality, not a subset: an allowlisted name that gains a caller or
    # disappears fails too, so the list cannot go stale.
    assert uncalled_public_names(ROOT) == UNCALLED


def test_no_two_public_definitions_share_a_name():
    assert shared_public_names(ROOT) == set()
