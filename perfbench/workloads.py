"""The four benchmark workloads. Each drives the public CLI in-process, one
closed-loop client, and checks every output it gets back.

A workload builds its inputs in ``setup`` and then runs numbered operations;
set-up draws its inputs from ``(seed, draw)`` and operation ``i`` draws
everything it needs from ``(seed, i)``, so a run is a pure function of the
workload seed and the operation count. Why each
workload exists, and which layer it loads, is in NOTES.md.
"""

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter

from sharecircuit import network, superconcentrator
from sharecircuit.cli import main
from sharecircuit.field import DEFAULT_PRIME

RESULT_RE = re.compile(r"^RESULT verdict=(\S+) checked=(\d+) witness=(\S+)$", re.M)
SECRET_RE = re.compile(r"^secret=(\d+)$", re.M)
# Exit codes the CLI documents for each verdict; 1 means a usage or I/O error.
EXIT_CODE = {"proved": 0, "sampled_pass": 0, "ok": 0, "refuted": 2}


class CheckFailed(Exception):
    """An output of the program is not what the workload expects."""


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


class Runner:
    """Runs CLI commands in-process, checks their exit code against their
    RESULT line, and folds the sha256 of every artifact they write into one
    digest."""

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.digest = hashlib.sha256()
        self.artifacts = 0

    def path(self, name):
        return str(self.workdir / name)

    def record(self, path):
        data = Path(path).read_bytes()
        self.digest.update(f"{Path(path).name}:{hashlib.sha256(data).hexdigest()}\n".encode())
        self.artifacts += 1

    def call(self, *argv):
        """Returns (verdict, checked, stdout, seconds) of one command."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        seconds = perf_counter() - t0
        text = out.getvalue()
        found = RESULT_RE.findall(text)
        expect(len(found) == 1, f"{argv[0]}: exit {code}, no RESULT line; {err.getvalue()!r}")
        verdict, checked, _ = found[0]
        expect(code == EXIT_CODE.get(verdict), f"{argv[0]}: exit {code} with verdict {verdict}")
        expect(not err.getvalue(), f"{argv[0]}: wrote to stderr {err.getvalue()!r}")
        if "--out" in argv:
            self.record(argv[argv.index("--out") + 1])
        return verdict, int(checked), text, seconds


def _op_rng(name, seed, i):
    return random.Random(f"{name}:{seed}:{i}")


def _write_subset(runner, shares_path, coalition, out_name):
    """Keep only the coalition's shares, so that `reconstruct` (which uses the
    first t entries of its file) reconstructs from that coalition."""
    with open(shares_path) as fh:
        doc = json.load(fh)
    keep = set(coalition)
    doc["shares"] = [e for e in doc["shares"] if e[0] in keep]
    path = runner.path(out_name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _deal(runner, circ, secret, share_seed, coalition):
    """share, then reconstruct from `coalition`; returns the two CLI times."""
    shares = runner.path("shares.json")
    _, _, _, share_s = runner.call(
        "share", "--circuit", circ, "--secret", secret, "--seed", share_seed, "--out", shares)
    subset = _write_subset(runner, shares, coalition, "subset.json")
    _, _, text, reconstruct_s = runner.call(
        "reconstruct", "--circuit", circ, "--shares", subset)
    got = SECRET_RE.findall(text)
    expect(got == [str(secret)], f"reconstruct returned {got}, dealt {secret}")
    return share_s, reconstruct_s


class Workload:
    """`setup(draw)` builds the inputs from `(seed, draw)`; the operations use
    those of the last set-up. `op(i)` runs operation i and returns
    (work units done, {stage: CLI seconds})."""

    name = ""
    unit = ""  # what one work unit is
    trace_ops = 1  # operations in a traced run; fixed so counts repeat

    def __init__(self, runner, seed):
        self.runner = runner
        self.seed = seed

    def setup_rng(self, draw):
        return random.Random(f"{self.name}:{self.seed}:setup{draw}")

    def setup(self, draw=0):
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError


class GraphVerify(Workload):
    """Exhaustive verify-graph sweeps over one seeded graph of each property."""

    name = "graph-verify"
    unit = "subset pairs"
    trace_ops = 10
    SC_N = 5  # build_sc_depth2(5, 5): 251 pairs
    PARTIAL = (6, 6, 1.0)  # build_partial_sc_depth2(n, m, r): 262 pairs
    CONC = (12, 8, 4)  # (m, n, k) concentrator: 495 subsets

    def setup(self, draw=0):
        r, rng = self.runner, self.setup_rng(draw)
        n = self.SC_N
        r.call("gen-sc", "--inputs", n, "--outputs", n, "--depth", 2,
               "--seed", rng.randrange(2**31), "--out", r.path("sc.json"))
        pn, pm, pr = self.PARTIAL
        p, q = superconcentrator.partial_sc_guarantee(pn, pr)
        net = superconcentrator.build_partial_sc_depth2(pn, pm, pr, rng.randrange(2**31))
        network.write_network(net, r.path("partial.json"))
        r.record(r.path("partial.json"))
        cm, cn, ck = self.CONC
        r.call("gen-concentrator", "--m", cm, "--n", cn, "--k", ck,
               "--seed", rng.randrange(2**31), "--out", r.path("conc.json"))
        self.family = [
            ("sc.json", "sc", sum(comb(n, k) ** 2 for k in range(1, n + 1))),
            ("partial.json", f"partial:{p},{q}",
             sum(comb(pn, k) * comb(pm, k) for k in range(max(q, 1), p + 1))),
            ("conc.json", f"concentrator:{ck}", comb(cm, ck)),
        ]

    def op(self, i):
        stages = {}
        pairs = 0
        for name, prop, total in self.family:
            verdict, checked, _, seconds = self.runner.call(
                "verify-graph", self.runner.path(name), "--property", prop)
            expect(verdict == "proved" and checked == total,
                   f"{prop} on {name}: {verdict} after {checked}, want proved after {total}")
            stages[prop.split(":")[0]] = seconds
            pairs += total
        return pairs, stages


class SchemeVerify(Workload):
    """Exhaustive verify-ss over ell = t circuits on the default prime."""

    name = "scheme-verify"
    unit = "coalitions"
    trace_ops = 10
    SIZES = ((3, 16), (4, 12), (5, 10))  # (t, n): 680 / 715 / 462 coalitions

    def setup(self, draw=0):
        r, rng = self.runner, self.setup_rng(draw)
        self.circuits = []
        for t, n in self.SIZES:
            graph, circ = r.path(f"g{t}_{n}.json"), r.path(f"c{t}_{n}.json")
            r.call("gen-sc", "--inputs", t, "--outputs", n,
                   "--seed", rng.randrange(2**31), "--out", graph)
            r.call("synth-ss", "--graph", graph, "--t", t,
                   "--seed", rng.randrange(2**31), "--out", circ)
            self.circuits.append((circ, f"t{t}", comb(n, t) + comb(n, t - 1)))

    def op(self, i):
        stages = {}
        coalitions = 0
        for circ, tag, total in self.circuits:
            verdict, checked, _, seconds = self.runner.call("verify-ss", "--circuit", circ)
            expect(verdict == "proved" and checked == total,
                   f"verify-ss {tag}: {verdict} after {checked}, want proved after {total}")
            stages[tag] = seconds
            coalitions += total
        return coalitions, stages


class Deal(Workload):
    """share -> reconstruct against one t = n_in circuit."""

    name = "deal"
    unit = "share+reconstruct operations"
    trace_ops = 40
    T, N, BUDGET = 16, 64, 100

    def setup(self, draw=0):
        r, rng = self.runner, self.setup_rng(draw)
        graph, self.circ = r.path("graph.json"), r.path("circuit.json")
        r.call("gen-sc", "--inputs", self.T, "--outputs", self.N, "--budget", self.BUDGET,
               "--seed", rng.randrange(2**31), "--out", graph)
        r.call("synth-ss", "--graph", graph, "--t", self.T,
               "--seed", rng.randrange(2**31), "--out", self.circ)

    def op(self, i):
        rng = _op_rng(self.name, self.seed, i)
        secret = rng.randrange(DEFAULT_PRIME)
        coalition = rng.sample(range(self.N), self.T)
        share_s, reconstruct_s = _deal(
            self.runner, self.circ, secret, rng.randrange(2**31), coalition)
        return 1, {"share": share_s, "reconstruct": reconstruct_s}


class Pipeline(Workload):
    """One pass of gen-sc -> verify-graph -> synth-ss -> verify-ss -> share ->
    reconstruct, then synth-ss --modulus and entropy-verify on a small
    circuit. Every pass draws its own seeds."""

    name = "pipeline"
    unit = "pipeline passes"
    trace_ops = 10
    T, M, BUDGET = 8, 32, 200
    SMALL_T, SMALL_N, SMALL_Q = 3, 6, 7

    def setup(self, draw=0):
        r = self.runner
        self.small_graph = r.path("small_graph.json")
        r.call("gen-sc", "--inputs", self.SMALL_T, "--outputs", self.SMALL_N,
               "--out", self.small_graph)

    def op(self, i):
        r, rng = self.runner, _op_rng(self.name, self.seed, i)
        t, b = self.T, self.BUDGET
        seed = rng.randrange(2**31)
        graph, circ, small = r.path("sc.json"), r.path("circuit.json"), r.path("small.json")
        stages = {}
        _, _, _, stages["gen_sc"] = r.call(
            "gen-sc", "--inputs", t, "--outputs", self.M, "--budget", b,
            "--seed", seed, "--out", graph)
        verdict, checked, _, stages["verify_graph"] = r.call(
            "verify-graph", graph, "--property", "sc", "--budget", b, "--seed", seed)
        want = (b // t) * t
        expect(verdict == "sampled_pass" and checked == want,
               f"verify-graph: {verdict} after {checked}, want sampled_pass after {want}")
        _, _, _, stages["synth_ss"] = r.call(
            "synth-ss", "--graph", graph, "--t", t, "--seed", seed, "--out", circ)
        verdict, checked, _, stages["verify_ss"] = r.call(
            "verify-ss", "--circuit", circ, "--budget", b, "--seed", seed)
        want = 2 * (b // 2)
        expect(verdict == "sampled_pass" and checked == want,
               f"verify-ss: {verdict} after {checked}, want sampled_pass after {want}")
        stages["share"], stages["reconstruct"] = _deal(
            r, circ, rng.randrange(DEFAULT_PRIME), seed, rng.sample(range(self.M), t))
        _, _, _, stages["small_synth_ss"] = r.call(
            "synth-ss", "--graph", self.small_graph, "--t", self.SMALL_T,
            "--modulus", self.SMALL_Q, "--seed", seed, "--out", small)
        rank_verdict, _, _, stages["small_verify_ss"] = r.call("verify-ss", "--circuit", small)
        entropy_verdict, _, _, stages["entropy_verify"] = r.call(
            "entropy-verify", "--circuit", small)
        # Criterion 2: the rank and entropy oracles agree; a refuted draw over
        # a small field is a correct output when both refute it.
        expect(rank_verdict == entropy_verdict,
               f"verify-ss says {rank_verdict}, entropy-verify says {entropy_verdict}")
        return 1, stages


WORKLOADS = {w.name: w for w in (GraphVerify, SchemeVerify, Deal, Pipeline)}
