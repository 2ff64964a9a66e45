"""Every public function or class of the package has a caller in the
library or the benchmark; a name that only its own tests call is a test
oracle, and belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sharecircuit"

# perfbench/spans.py names these only as strings; the next change to the
# benchmark deletes them with their spans (ROADMAP item 4).
UNCALLED = {"field.mat_inverse", "field.mat_rank", "field.mat_vec", "field.submatrix"}


def uncalled_public_names(root):
    """`module.name` of each top-level public def or class in the package
    under `root` that no code in src/ or perfbench/ refers to, its own body
    aside."""
    package = root / "src" / "sharecircuit"
    paths = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    defined, used = set(), set()
    for path in paths:
        for top in ast.parse(path.read_text(), str(path)).body:
            names = {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
            if (path.parent == package and isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not top.name.startswith("_")):
                defined.add(f"{path.stem}.{top.name}")
                names.discard(top.name)
            used |= names
    return {qual for qual in defined if qual.split(".")[1] not in used}


def test_every_public_name_has_a_caller_outside_the_tests():
    # Equality, not a subset: an allowlisted name that gains a caller or
    # disappears fails too, so the list cannot go stale.
    assert uncalled_public_names(ROOT) == UNCALLED
