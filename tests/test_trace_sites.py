"""The benchmark's tracer (perfbench/spans.py) looks up the library functions
it wraps by module and name; a rename in the library must fail here, not as a
crash of a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from sharecircuit import network
from sharecircuit.concentrator import build_depth1
from sharecircuit.superconcentrator import _bipartite_block

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


def test_every_flow_query_is_one_traced_kernel_call():
    """Each flow query runs the traced flow kernel once, at every depth, so
    the per-layer flow metrics count every query: an exhaustive concentrator
    sweep of a depth-1 graph answers its 495 subsets by flow, and a
    superconcentrator sweep of a depth-2 graph with 50 edges certifies the
    pairs of size k <= 3 (k^3 <= E) and leaves the 26 larger ones to flow.
    Every query of a proved sweep finds as many paths as it has inputs."""
    shallow = build_depth1(12, 8, 4, rng_seed=1)[0]
    deep = _bipartite_block(5, 5, 5)
    assert shallow.depth == 1 and deep.depth == 2
    sweeps = [(lambda: network.verify_concentrator(shallow, 4), 495, 495, 495 * 4),
              (lambda: network.verify_superconcentrator(deep), 251, 26, 25 * 4 + 5)]
    for sweep, checked, flow_calls, augmentations in sweeps:
        tracer = load_spans().Tracer()
        try:
            tracer.install()
            report = sweep()
        finally:
            tracer.uninstall()
        assert report.verdict == "proved" and report.subsets_checked == checked
        spans = tracer.spans
        queries = [i for i, span in enumerate(spans)
                   if span[0] == "network.max_vertex_disjoint_paths"]
        parents = [span[3] for span in spans if span[0] == "kernels.maxflow_unit"]
        assert sorted(parents) == queries and len(queries) == flow_calls
        metrics = {k: v["value"] for k, v in tracer.layer_metrics(0.0).items()}
        assert metrics["network.flow_calls"] == metrics["kernels.maxflow_calls"] == flow_calls
        assert metrics["kernels.augmentations"] == augmentations
