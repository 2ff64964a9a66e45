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


def uncalled_public_names(root):
    """`module.name` of each top-level public def or class in the package
    under `root`, and `module.Class.name` of each public method of a public
    class, that no code in src/ or perfbench/ refers to, its own body
    aside."""
    package = root / "src" / "sharecircuit"
    paths = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    defined, used = {}, Counter()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        used += references(tree)
        for top in tree.body if path.parent == package else ():
            if public(top):
                defined[f"{path.stem}.{top.name}"] = top
            if public(top, ast.ClassDef):
                for node in top.body:
                    if public(node, ast.FunctionDef):
                        defined[f"{path.stem}.{top.name}.{node.name}"] = node
    return {qual for qual, node in defined.items()
            if used[node.name] == references(node)[node.name]}


def test_every_public_name_has_a_caller_outside_the_tests():
    # Equality, not a subset: an allowlisted name that gains a caller or
    # disappears fails too, so the list cannot go stale.
    assert uncalled_public_names(ROOT) == UNCALLED
