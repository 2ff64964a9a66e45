"""The benchmark's tracer (perfbench/spans.py) looks up the library functions
it wraps by module and name; a rename in the library must fail here, not as a
crash of a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    sites = load_spans().SITES
    assert sites
    missing = []
    for _, modname, fname, _ in sites:
        module = importlib.import_module(modname)
        if not callable(getattr(module, fname, None)):
            missing.append(f"{modname}.{fname}")
    assert not missing, f"traced functions not found: {missing}"
