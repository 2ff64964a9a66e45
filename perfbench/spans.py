"""Spans around the library's public functions, installed from outside the
library by rebinding every module attribute that holds the function.

Modules bind these functions with from-imports (``circuit.submatrix`` is the
same object as ``field.submatrix``), so patching only the defining module
would miss most calls. ``Tracer.install`` scans every loaded ``sharecircuit``
module and replaces each attribute that *is* a traced function.
"""

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, defining module, function, attrs(args, result) -> dict | None)
SITES = [
    ("kernels.maxflow_unit", "sharecircuit._kernels", "maxflow_unit",
     lambda a, r: {"flow": r}),
    ("kernels.gf_rank", "sharecircuit._kernels", "gf_rank",
     lambda a, r: {"cells": a[0] * a[1]}),
    ("network.max_vertex_disjoint_paths", "sharecircuit.network",
     "max_vertex_disjoint_paths", None),
    ("network.sweep", "sharecircuit.network", "verify_concentrator", None),
    ("network.sweep", "sharecircuit.network", "verify_superconcentrator", None),
    ("network.sweep", "sharecircuit.network", "verify_partial_sc", None),
    ("network.topological_order", "sharecircuit.network", "topological_order", None),
    ("io", "sharecircuit.network", "read_network", None),
    ("io", "sharecircuit.network", "write_network", None),
    ("field.submatrix", "sharecircuit.field", "submatrix", None),
    ("field.mat_rank", "sharecircuit.field", "mat_rank", None),
    ("field.mat_inverse", "sharecircuit.field", "mat_inverse", None),
    ("field.mat_vec", "sharecircuit.field", "mat_vec", None),
    ("circuit.evaluate", "sharecircuit.circuit", "evaluate", None),
    ("circuit.transfer_matrix", "sharecircuit.circuit", "transfer_matrix", None),
    ("circuit.validate_scheme", "sharecircuit.circuit", "validate_scheme",
     lambda a, r: {"coalitions": r.recover_checks + r.privacy_checks}),
    ("io", "sharecircuit.circuit", "read_circuit", None),
    ("io", "sharecircuit.circuit", "write_circuit", None),
    ("io", "sharecircuit.circuit", "read_shares", None),
    ("io", "sharecircuit.circuit", "write_shares", None),
    ("concentrator.build_depth1", "sharecircuit.concentrator", "build_depth1", None),
    ("superconcentrator.build", "sharecircuit.superconcentrator",
     "build_partial_sc_depth2", None),
    ("superconcentrator.build", "sharecircuit.superconcentrator", "build_sc_depth2", None),
    ("superconcentrator.build", "sharecircuit.superconcentrator",
     "build_sc_depth2_linear", None),
    ("superconcentrator.build", "sharecircuit.superconcentrator",
     "build_sc_depth3_linear", None),
    ("superconcentrator.build", "sharecircuit.superconcentrator", "build_sc_general", None),
    ("infocheck.enumerate_distribution", "sharecircuit.infocheck",
     "enumerate_distribution",
     lambda a, r: {"states": a[0].modulus.p ** len(a[0].net.inputs)}),
    ("infocheck.entropy", "sharecircuit.infocheck", "entropy", None),
]


class Tracer:
    """In-memory span recorder. A span is
    [name, start, end, parent index or -1, op id, attrs or None]."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced

    def install(self):
        """Rebind every attribute of every loaded sharecircuit module that
        holds a traced function; returns the number of sites patched."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "sharecircuit" or k.startswith("sharecircuit.")]
        for name, modname, fname, attrs in SITES:
            original = getattr(sys.modules[modname], fname)
            traced = self._wrap(name, original, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))
        return len(self._patched)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                doc = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if attrs:
                    doc.update(attrs)
                fh.write(json.dumps(doc) + "\n")

    def _totals(self, include):
        """Call counts, summed self times and summed attributes per span
        name, over the spans whose op id passes `include`."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s, attrs_sum = defaultdict(int), defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, op, attrs) in enumerate(spans):
            if include(op):
                calls[name] += 1
                self_s[name] += end - start - child_time[i]
                for key, value in (attrs or {}).items():
                    attrs_sum[key] += value
        return calls, self_s, attrs_sum

    def layer_metrics(self, overhead_s):
        """Counts and times per layer over the measured operations. The
        builder metrics (``concentrator.*``, ``superconcentrator.*``) also
        cover set-up, where most workloads build their inputs.

        ``*_s`` is self time (duration minus the child spans' durations)
        summed over spans, except ``concentrator.verify_s``, the inclusive
        time of the verification sweeps that builders run."""
        calls, self_s, attrs_sum = self._totals(lambda op: op != "setup")
        build_calls, build_self_s, _ = self._totals(lambda op: True)
        spans = self.spans
        builder_sweeps = [
            end - start for name, start, end, parent, _, _ in spans
            if name == "network.sweep" and parent >= 0
            and spans[parent][0] == "concentrator.build_depth1"
        ]
        builds = build_calls["concentrator.build_depth1"]
        values = {
            "network.flow_calls": calls["network.max_vertex_disjoint_paths"],
            "network.arc_build_s": self_s["network.max_vertex_disjoint_paths"],
            "network.sweep_self_s": self_s["network.sweep"],
            "kernels.maxflow_calls": calls["kernels.maxflow_unit"],
            "kernels.maxflow_s": self_s["kernels.maxflow_unit"],
            "kernels.augmentations": attrs_sum["flow"],
            "kernels.gf_rank_calls": calls["kernels.gf_rank"],
            "kernels.gf_rank_s": self_s["kernels.gf_rank"],
            "kernels.gf_rank_cells": attrs_sum["cells"],
            "field.submatrix_calls": calls["field.submatrix"],
            "field.submatrix_s": self_s["field.submatrix"],
            "circuit.coalitions_checked": attrs_sum["coalitions"],
            "circuit.validate_self_s": self_s["circuit.validate_scheme"],
            "circuit.transfer_matrix_calls": calls["circuit.transfer_matrix"],
            "circuit.transfer_matrix_s": self_s["circuit.transfer_matrix"],
            "circuit.evaluate_calls": calls["circuit.evaluate"],
            "circuit.evaluate_s": self_s["circuit.evaluate"],
            "network.topological_order_calls": calls["network.topological_order"],
            "network.topological_order_s": self_s["network.topological_order"],
            "field.mat_inverse_s": self_s["field.mat_inverse"],
            "field.mat_vec_s": self_s["field.mat_vec"],
            "cli.io_s": self_s["io"],
            "concentrator.builds": builds,
            "concentrator.attempts": len(builder_sweeps),
            "concentrator.useful_ratio": builds / len(builder_sweeps) if builder_sweeps else 0.0,
            "concentrator.verify_s": sum(builder_sweeps),
            "superconcentrator.build_self_s": build_self_s["superconcentrator.build"],
            "infocheck.enumerate_s": self_s["infocheck.enumerate_distribution"],
            "infocheck.states": attrs_sum["states"],
            "infocheck.entropy_calls": calls["infocheck.entropy"],
            "infocheck.entropy_s": self_s["infocheck.entropy"],
            "trace.overhead_s": overhead_s,
        }
        return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"
