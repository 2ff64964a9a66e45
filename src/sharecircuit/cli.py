"""Command-line front door: graph builders, circuit synthesizer, and the
connectivity / rank / entropy verifiers, with reproducible seeds.

Every command's arguments are declared once, in COMMANDS. `main` builds the
parser of every command on a process's first call and reuses it after that.
A reused parser answers as a fresh one: it holds only what COMMANDS declares,
every default is immutable and every action a plain store, and argparse
makes a new Namespace on every parse and looks up its output streams and the
help width when it prints.

Exit codes: 0 on success (proved or sampled_pass), 2 on refuted (witness
printed) or on a usage error, 1 on an input or I/O error.
"""

import argparse
import csv
import functools
import itertools
import math
import sys

from . import ackermann, circuit, infocheck, network, superconcentrator
from .concentrator import build_depth1
from .errors import ShareCircuitError
from .field import DEFAULT_PRIME, FieldModulus
from .network import DEFAULT_BUDGET

DEFAULT_SEED = 1


def _print_result(verdict, checked, witness=None):
    wit = "none" if witness is None else repr(witness).replace(" ", "")
    print(f"RESULT verdict={verdict} checked={checked} witness={wit}")
    return 0 if verdict in ("proved", "sampled_pass", "ok") else 2


def _cmd_gen_concentrator(args):
    net, report = build_depth1(args.m, args.n, args.k, args.degree, args.seed, args.budget)
    if args.out:
        network.write_network(net, args.out)
    print(f"edges={len(net.edges)} depth={net.depth}")
    return _print_result(report.verdict, report.subsets_checked, report.witness)


def _cmd_gen_sc(args):
    n, m = args.inputs, args.outputs
    if args.depth == "auto":
        depth = superconcentrator.recommended_depth(m, n)
    else:
        try:
            depth = int(args.depth)
        except ValueError:
            raise ShareCircuitError(
                f"--depth {args.depth!r} must have the form --depth auto|<int>") from None
    net = superconcentrator.build_sc(n, m, depth, args.epsilon, args.seed, args.budget)
    network.write_network(net, args.out)
    print(f"target_depth={depth} built_depth={net.depth} edges={len(net.edges)}")
    return _print_result("ok", len(net.edges))


def _property_args(prop, form):
    """The integers after the colon of `prop`, as many as `form` names."""
    try:
        values = [int(x) for x in prop.split(":", 1)[1].split(",")]
    except ValueError:
        values = []
    if len(values) != form.count("<"):
        raise ShareCircuitError(f"property {prop!r} must have the form {form}")
    return values


def _cmd_verify_graph(args):
    net = network.read_network(args.file)
    prop = args.property
    if prop == "sc":
        report = network.verify_superconcentrator(net, args.budget, args.seed)
    elif prop.startswith("concentrator:"):
        c, = _property_args(prop, "concentrator:<k>")
        report = network.verify_concentrator(net, c, args.budget, args.seed)
    elif prop.startswith("partial:"):
        p, q = _property_args(prop, "partial:<p>,<q>")
        report = network.verify_partial_sc(net, p, q, args.budget, args.seed)
    else:
        raise ShareCircuitError(f"unknown property {prop!r}")
    print(f"property={report.property}")
    return _print_result(report.verdict, report.subsets_checked, report.witness)


def _cmd_synth_ss(args):
    net = network.read_network(args.graph)
    if args.t != len(net.inputs):
        raise ShareCircuitError(
            f"--t {args.t} must equal the graph's input count {len(net.inputs)}: "
            "a circuit's threshold is its input count"
        )
    circ = circuit.synthesize(net, FieldModulus(args.modulus), args.seed)
    circuit.write_circuit(circ, args.out)
    print(f"inputs={len(net.inputs)} outputs={len(net.outputs)} "
          f"edges={len(net.edges)} modulus={args.modulus}")
    bound = circuit.failure_bound(net.depth, len(net.outputs), circ.threshold, circ.modulus)
    print(f"failure_bound={bound:.3e}")
    return _print_result("ok", len(circ.coefficients))


def _cmd_verify_ss(args):
    circ = circuit.read_circuit(args.circuit)
    report = circuit.validate_scheme(circ, args.budget, args.seed)
    print(f"recover_checks={report.recover_checks} "
          f"privacy_checks={report.privacy_checks} mode={report.mode}")
    return _print_result(
        report.verdict, report.recover_checks + report.privacy_checks, report.witness
    )


def _cmd_share(args):
    circ = circuit.read_circuit(args.circuit)
    values = circuit.share(circ, args.secret, args.seed)
    circuit.write_shares(circ, values, args.out)
    print(f"shares={len(values)}")
    return _print_result("ok", len(values))


def _cmd_reconstruct(args):
    circ = circuit.read_circuit(args.circuit)
    entries = circuit.read_shares(args.shares, circ)
    t = circ.threshold
    if len(entries) < t:
        raise ShareCircuitError(f"need at least t = {t} shares, got {len(entries)}")
    T, y_T = zip(*sorted(entries)[:t])
    secret = circuit.reconstruct(circ, T, y_T)
    print(f"secret={secret}")
    return _print_result("ok", t)


def _cmd_entropy_verify(args):
    circ = circuit.read_circuit(args.circuit)
    t = circ.threshold
    dist = infocheck.enumerate_distribution(circ)
    n = dist.variable_count - 1
    # Entropies are memoised, so the lines below recompute none the verifier used.
    defn = infocheck.verify_threshold_definition(dist, t, args.tol)
    h_s = infocheck.entropy(dist, [0])
    print(f"H(S)={h_s:.9f}")
    for size in (t, t - 1):
        for T in itertools.combinations(range(1, n + 1), size):
            h = infocheck.cond_entropy(dist, [0], T) if T else h_s
            print(f"H(S|Y_{{{','.join(map(str, T))}}})={h:.9f}")
    print(f"threshold_definition={defn.verdict}")
    if defn.verdict == "proved":
        bounds = infocheck.verify_entropy_bounds(dist, t, args.tol)
        print(f"entropy_bounds={bounds.verdict}")
        residual = infocheck.han_check(dist, range(1, n + 1)) if n >= 2 else 0.0
        print(f"han_residual={residual:.9f}")
        if bounds.verdict == "refuted":
            return _print_result(bounds.verdict, bounds.subsets_checked, bounds.witness)
    return _print_result(defn.verdict, defn.subsets_checked, defn.witness)


def _cmd_lambda(args):
    print(ackermann.lam(args.d, args.n))
    return 0


def _cmd_alpha(args):
    print(ackermann.alpha(args.m, args.n))
    return 0


def _cmd_bench(args):
    sizes = [int(s) for s in args.sizes.split(",")]
    # sc-depth2's edge ratio divides by log2 n, which is 0 at n = 1
    least = 2 if args.builder == "sc-depth2" else 1
    if min(sizes) < least:
        raise ShareCircuitError(f"{args.builder} needs sizes >= {least}, got {min(sizes)}")
    writer = csv.writer(sys.stdout)
    writer.writerow(["builder", "n", "m", "edges", "ratio"])
    for n in sizes:
        if args.builder == "sc-depth2":
            m = n
            net = superconcentrator.build_sc_depth2(n, m, args.seed, args.budget)
            denom = m * math.log2(m) * math.log2(n)
        else:  # sc-depth2-linear, the only other choice
            m = math.ceil(n**2.5)
            net = superconcentrator.build_sc_depth2_linear(n, m, 0.5, args.seed, args.budget)
            denom = m
        writer.writerow([args.builder, n, m, len(net.edges), f"{len(net.edges) / denom:.4f}"])
    return 0


_SEED = ("--seed", {"type": int, "default": DEFAULT_SEED})
_BUDGET = ("--budget", {"type": int, "default": DEFAULT_BUDGET})
_REQUIRED_INT = {"type": int, "required": True}
_REQUIRED = {"required": True}

# Command name -> (handler, argument specs); each spec is the (name or flag,
# add_argument keywords) of one argument, in the order help lists them.
COMMANDS = {
    "gen-concentrator": (_cmd_gen_concentrator, [
        ("--m", {**_REQUIRED_INT, "help": "input count"}),
        ("--n", {**_REQUIRED_INT, "help": "output count"}),
        ("--k", {**_REQUIRED_INT, "help": "capacity"}),
        ("--degree", {"type": int, "default": None}), _SEED, _BUDGET, ("--out", {"default": None}),
    ]),
    "gen-sc": (_cmd_gen_sc, [
        ("--inputs", _REQUIRED_INT), ("--outputs", _REQUIRED_INT),
        ("--depth", {"default": "auto"}), ("--epsilon", {"type": float, "default": 0.5}),
        _SEED, _BUDGET, ("--out", _REQUIRED),
    ]),
    "verify-graph": (_cmd_verify_graph, [
        ("file", {}), ("--property", {**_REQUIRED, "help": "sc | concentrator:<k> | partial:<p>,<q>"}),
        _BUDGET, _SEED,
    ]),
    "synth-ss": (_cmd_synth_ss, [
        ("--graph", _REQUIRED), ("--t", _REQUIRED_INT),
        ("--modulus", {"type": int, "default": DEFAULT_PRIME}), _SEED, ("--out", _REQUIRED),
    ]),
    "verify-ss": (_cmd_verify_ss, [("--circuit", _REQUIRED), _BUDGET, _SEED]),
    "share": (_cmd_share, [
        ("--circuit", _REQUIRED), ("--secret", _REQUIRED_INT), _SEED, ("--out", _REQUIRED),
    ]),
    "reconstruct": (_cmd_reconstruct, [("--circuit", _REQUIRED), ("--shares", _REQUIRED)]),
    "entropy-verify": (_cmd_entropy_verify, [
        ("--circuit", _REQUIRED), ("--tol", {
            "type": float, "default": 1e-9,
            "help": "tolerance of each entropy comparison, in base-q units; a proved verdict "
                    "holds only up to it, and at >= 1, H(S) of a uniform secret, every "
                    "recovery and privacy check passes"}),
    ]),
    "lambda": (_cmd_lambda, [("d", {"type": int}), ("n", {"type": int})]),
    "alpha": (_cmd_alpha, [("m", {"type": int}), ("n", {"type": int})]),
    "bench": (_cmd_bench, [
        ("--builder", {"default": "sc-depth2", "choices": ["sc-depth2", "sc-depth2-linear"]}),
        ("--sizes", {"default": "8,16,32,64"}), _SEED, ("--budget", {"type": int, "default": 500}),
    ]),
}


def build_parser():
    """The parser of every command."""
    parser = argparse.ArgumentParser(
        prog="sharecircuit",
        description="Threshold secret-sharing circuits from superconcentrator-like graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, specs) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ShareCircuitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
