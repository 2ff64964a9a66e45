import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pytest

from sharecircuit import cli, concentrator
from sharecircuit.circuit import LinearCircuit, write_circuit
from sharecircuit.cli import COMMANDS, build_parser, main
from sharecircuit.field import FieldModulus
from sharecircuit.network import MAX_SIZE, complete_bipartite, write_network
from sharecircuit.superconcentrator import build_partial_sc_depth2, build_sc_depth2

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
RESULT_RE = re.compile(r"^RESULT verdict=(\S+) checked=\d+ witness=\S+$", re.M)
# Exit codes the CLI documents for each verdict.
EXIT_CODE = {"proved": 0, "sampled_pass": 0, "ok": 0, "refuted": 2}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lambda_and_alpha(capsys):
    code, out, _ = run(capsys, "lambda", "4", "16")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "alpha", "32768", "256")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "alpha", "256", "256")
    assert code == 0 and out.strip() == "3"


def test_gen_sc_and_verify_graph(capsys, tmp_path):
    path = tmp_path / "sc.json"
    code, out, _ = run(capsys, "gen-sc", "--inputs", "3", "--outputs", "6",
                       "--out", str(path))
    assert code == 0
    assert "RESULT verdict=ok" in out
    code, out, _ = run(capsys, "verify-graph", str(path), "--property", "sc")
    assert code == 0
    assert "RESULT verdict=proved" in out


def test_gen_sc_reruns_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen-sc", "--inputs", "5", "--outputs", "8", "--seed", "3",
        "--out", str(a))
    run(capsys, "gen-sc", "--inputs", "5", "--outputs", "8", "--seed", "3",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# The first line and the sha256 of gen-sc's output, seed 1, for the graphs
# the benchmark's workloads build (perfbench/workloads.py): a builder change
# that moves one fails here.
BENCHMARK_GRAPHS = [
    (("--inputs", "8", "--outputs", "32", "--budget", "200"),
     "target_depth=4 built_depth=1 edges=256 row=complete",
     "a792b8c50004713c841e91aed349c18f7f46e9dc181b6b439a2c90f6ede69521"),
    (("--inputs", "16", "--outputs", "64", "--budget", "100"),
     "target_depth=4 built_depth=2 edges=928 row=funnel",
     "20785ef5f19e0c0c2e13c14e150908fbcc4788c86c110a0ea1f9cba26cb50426"),
    (("--inputs", "5", "--outputs", "10"),
     "target_depth=4 built_depth=1 edges=50 row=complete",
     "76565d029df60fbd097ef7876a0a08f61733512cdbe2901e7559021f6bf29f30"),
    (("--inputs", "3", "--outputs", "6"),
     "target_depth=4 built_depth=1 edges=18 row=complete",
     "00a2161656ed0114134ddb6160c946e36628f85ef7385aac5f7acef0dcb13c73"),
    (("--inputs", "5", "--outputs", "5", "--depth", "2"),
     "target_depth=2 built_depth=1 edges=25 row=complete",
     "af88a5a0b0173c7470cd5eca668e667b13c3256c60fe7f73a094258ad5c4b2f3"),
]


@pytest.mark.parametrize("args, line, digest", BENCHMARK_GRAPHS,
                         ids=["pipeline", "deal", "scheme-verify", "small", "graph-verify"])
def test_gen_sc_benchmark_graphs_are_pinned(capsys, tmp_path, args, line, digest):
    path = tmp_path / "sc.json"
    code, out, _ = run(capsys, "gen-sc", *args, "--seed", "1", "--out", str(path))
    assert code == 0 and out.splitlines()[0] == line
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# (t, outputs, modulus or None for the default prime, synth-ss seeds): the
# scheme-verify workload's shapes, and small fields where most draws refute.
VERIFY_SS_CORPUS = [
    (3, 16, None, range(3)), (4, 12, None, range(3)), (5, 10, None, range(3)),
    (3, 6, 7, range(10)), (2, 6, 5, range(10)), (2, 4, 3, range(6)), (4, 6, 11, range(6)),
]
# sha256 over "stdout|exit code" of every verify-ss run on that corpus, each
# circuit exhaustive and at --budget 40, in corpus order.
VERIFY_SS_DIGEST = "596b1f3516f62090df1f70f8405f2f3fbc5400d0b3ad778439b6daf0d156188d"


def test_verify_ss_output_is_pinned(capsys, tmp_path):
    # Any change to the sweeps that moves a verdict, a witness or a count of
    # checks moves this digest.
    digest, verdicts = hashlib.sha256(), set()
    graph, circ = tmp_path / "g.json", tmp_path / "c.json"
    for t, n, modulus, seeds in VERIFY_SS_CORPUS:
        run(capsys, "gen-sc", "--inputs", str(t), "--outputs", str(n), "--seed", "1",
            "--out", str(graph))
        field = () if modulus is None else ("--modulus", str(modulus))
        for seed in seeds:
            code, _, _ = run(capsys, "synth-ss", "--graph", str(graph), "--t", str(t), *field,
                             "--seed", str(seed), "--out", str(circ))
            assert code == 0
            for budget in ((), ("--budget", "40")):
                code, out, err = run(capsys, "verify-ss", "--circuit", str(circ), *budget)
                verdict = RESULT_RE.search(out)[1]
                assert not err and code == EXIT_CODE[verdict]
                stage = "recovery" if "privacy_checks=0" in out else "privacy"
                verdicts.add((verdict, bool(budget), stage if verdict == "refuted" else None))
                digest.update(f"{out}|{code}\n".encode())
    # Proofs, and refutations at both stages, in both modes.
    assert verdicts == {("proved", False, None), ("sampled_pass", True, None)} | {
        ("refuted", sampled, stage) for sampled in (False, True)
        for stage in ("recovery", "privacy")}
    assert digest.hexdigest() == VERIFY_SS_DIGEST


# (graph, properties, budgets): each graph made by a command's argument list,
# or written from a builder's network, and each property verified
# exhaustively and at each budget. The graphs are the depth-1 complete
# graphs of gen-sc, depth-2 unions, depth-2 partial graphs and
# gen-concentrator's graphs. `sc` and `partial:5,0` on a partial graph
# with a 4-vertex middle, and `concentrator:4` on a degree-2 concentrator,
# refute. A sampled sweep draws max(1, budget // sizes) pairs per size, so on
# the partial graphs the low budget makes fewer checks than the graph has
# inputs and the high one more.
VERIFY_GRAPH_CORPUS = [
    (("gen-sc", "--inputs", "2", "--outputs", "4"), ("sc", "partial:2,1", "concentrator:2"),
     (1, 12)),
    (("gen-sc", "--inputs", "3", "--outputs", "6"), ("sc", "partial:3,1", "concentrator:3"),
     (2, 12)),
    (("gen-sc", "--inputs", "4", "--outputs", "8"), ("sc", "partial:4,2", "concentrator:3"),
     (2, 24)),
    (lambda: build_sc_depth2(5, 5, 1), ("sc", "partial:5,3", "concentrator:5"), (2, 40)),
    (lambda: build_sc_depth2(5, 7, 1), ("sc", "partial:5,2"), (2, 40)),
    (lambda: build_partial_sc_depth2(6, 6, 1.0, 3), ("partial:6,4", "sc"), (3, 24)),
    (lambda: build_partial_sc_depth2(6, 6, 2.0, 0), ("partial:3,0", "partial:5,0", "sc"),
     (3, 24)),
    (lambda: build_partial_sc_depth2(9, 9, 1.5, 1), ("partial:6,4",), (3, 40)),
    (("gen-concentrator", "--m", "12", "--n", "8", "--k", "4"),
     ("concentrator:4", "concentrator:6", "partial:3,1"), (2, 40)),
    (("gen-concentrator", "--m", "10", "--n", "6", "--k", "2", "--degree", "2", "--seed", "4"),
     ("concentrator:2", "concentrator:4", "partial:4,1"), (2, 40)),
]
# sha256 over "stdout|exit code" of every verify-graph run on that corpus, in
# corpus order: exhaustive, then at each budget.
VERIFY_GRAPH_DIGEST = "05c87ab18580a5f39ca5a50f848e27d1db52b667f95db955c06886093cc92154"


def test_verify_graph_output_is_pinned(capsys, tmp_path):
    # The path-matrix certificate only skips the flow queries of pairs it
    # proves, so which pairs it is offered moves no verdict, witness or count
    # of checks; any change to the sweeps that does moves this digest.
    digest, verdicts = hashlib.sha256(), set()
    graph = tmp_path / "g.json"
    for source, properties, budgets in VERIFY_GRAPH_CORPUS:
        if callable(source):
            write_network(source(), graph)
        else:
            code, _, _ = run(capsys, *source, "--out", str(graph))
            assert code == 0
        for prop in properties:
            for budget in [()] + [("--budget", str(b)) for b in budgets]:
                code, out, err = run(capsys, "verify-graph", str(graph), "--property", prop,
                                     *budget)
                verdict = RESULT_RE.search(out)[1]
                assert not err and code == EXIT_CODE[verdict]
                verdicts.add((prop.split(":")[0], verdict, bool(budget)))
                digest.update(f"{out}|{code}\n".encode())
    # Each property is proved exhaustively, passes its samples, and is
    # refuted in both modes.
    assert verdicts >= {(prop, verdict, sampled) for prop in ("sc", "partial", "concentrator")
                        for verdict, sampled in (("proved", False), ("sampled_pass", True),
                                                 ("refuted", False), ("refuted", True))}
    assert digest.hexdigest() == VERIFY_GRAPH_DIGEST


def test_every_proved_corpus_circuit_deals_and_reconstructs(capsys, tmp_path):
    # Each circuit that verify-ss proves gives its secret back from the
    # first t shares and from the last t. The nine over the default prime
    # prove; every small-field draw is refuted.
    graph, circ, shares = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "s.json"
    proved = 0
    for t, n, modulus, seeds in VERIFY_SS_CORPUS:
        run(capsys, "gen-sc", "--inputs", str(t), "--outputs", str(n), "--seed", "1",
            "--out", str(graph))
        field = () if modulus is None else ("--modulus", str(modulus))
        for seed in seeds:
            run(capsys, "synth-ss", "--graph", str(graph), "--t", str(t), *field,
                "--seed", str(seed), "--out", str(circ))
            if run(capsys, "verify-ss", "--circuit", str(circ))[0]:
                continue
            proved += 1
            secret = (seed * 7919 + n) % (modulus or 2**61 - 1)
            code, _, _ = run(capsys, "share", "--circuit", str(circ), "--secret", str(secret),
                             "--seed", str(seed), "--out", str(shares))
            assert code == 0
            doc = json.loads(shares.read_text())
            last = tmp_path / "last.json"
            last.write_text(json.dumps(dict(doc, shares=doc["shares"][-t:])))
            for path in (shares, last):
                code, out, _ = run(capsys, "reconstruct", "--circuit", str(circ),
                                   "--shares", str(path))
                assert code == 0 and f"secret={secret}\n" in out, (t, n, modulus, seed)
    assert proved == 9


# (t, outputs, modulus or None for the default prime, synth-ss seeds): circuits
# that deal and reconstruct, and GF(7) ones on which some coalitions are
# singular.
DEAL_CORPUS = [
    (3, 8, None, range(2)), (4, 12, None, range(1)), (2, 4, 7, range(4)), (3, 6, 7, range(3)),
]
DEAL_SEED = 20261020
# sha256 over every share file's bytes and every reconstruct's
# "stdout|stderr|exit code" on that corpus, in corpus order.
DEAL_DIGEST = "d4b61410394180c58867c20f9627080d5bd5528968a1298da55324129c3eadb9"


def faulty_share_docs(doc, t, n):
    """Copies of a share document that reconstruct must refuse."""
    p, entries = doc["modulus"], doc["shares"]
    (i, y), (j, z) = entries[:2]
    return [
        {"shares": entries},
        dict(doc, modulus=float(p)),
        dict(doc, modulus=p + 1),  # not a prime
        dict(doc, modulus=101 if p != 101 else 103),  # a prime, but another field
        dict(doc, modulus=True),
        dict(doc, shares=entries[: t - 1]),
        dict(doc, shares=[[i, y], [i, y], *entries[1:]]),
        dict(doc, shares=[[i, y], [i, z], *entries[1:]]),
        dict(doc, shares=[*entries, [n, 0]]),
        dict(doc, shares=[[-1, 0], *entries]),
        dict(doc, shares=[[True, y], *entries[1:]]),
        dict(doc, shares=[[i, p], *entries[1:]]),
        dict(doc, shares=[[i, -1], *entries[1:]]),
        dict(doc, shares=[[i, float(y)], *entries[1:]]),
        dict(doc, shares=[[i, y, 0], *entries[1:]]),
        dict(doc, shares=[i, *entries[1:]]),
        dict(doc, shares={str(i): y}),
    ]


def test_deal_path_output_is_pinned(capsys, tmp_path):
    # Every share file's bytes, and every reconstruct's output on coalitions
    # of exactly t shares, of more and of all n, each listed in shuffled
    # order. A faulty share file is pinned only to exit 1 with an error line.
    rng = random.Random(DEAL_SEED)
    digest, outcomes = hashlib.sha256(), set()
    graph, circ, shares, part = (tmp_path / f"{name}.json" for name in "gcsT")
    for t, n, modulus, seeds in DEAL_CORPUS:
        run(capsys, "gen-sc", "--inputs", str(t), "--outputs", str(n), "--seed", "1",
            "--out", str(graph))
        field = () if modulus is None else ("--modulus", str(modulus))
        for seed in seeds:
            code, _, _ = run(capsys, "synth-ss", "--graph", str(graph), "--t", str(t), *field,
                             "--seed", str(seed), "--out", str(circ))
            assert code == 0
            for secret in (0, rng.randrange(modulus or 2**61 - 1)):
                code, _, _ = run(capsys, "share", "--circuit", str(circ), "--secret",
                                 str(secret), "--seed", str(rng.randrange(100)),
                                 "--out", str(shares))
                assert code == 0
                digest.update(shares.read_bytes())
                doc = json.loads(shares.read_text())
                coalitions = [rng.sample(doc["shares"], t) for _ in range(3)]
                coalitions += [rng.sample(doc["shares"], rng.randint(t + 1, n)) for _ in range(2)]
                coalitions.append(rng.sample(doc["shares"], n))
                for entries in coalitions:
                    part.write_text(json.dumps(dict(doc, shares=entries)))
                    code, out, err = run(capsys, "reconstruct", "--circuit", str(circ),
                                         "--shares", str(part))
                    assert (code, bool(err)) in {(0, False), (1, True)}, (out, err)
                    outcomes.add(code)
                    digest.update(f"{out}|{err}|{code}\n".encode())
                for bad in faulty_share_docs(doc, t, n):
                    part.write_text(json.dumps(bad))
                    code, out, err = run(capsys, "reconstruct", "--circuit", str(circ),
                                         "--shares", str(part))
                    assert (code, out) == (1, "") and err.startswith("error:"), (bad, err)
    # Some coalitions reconstruct and some are singular.
    assert outcomes == {0, 1}
    assert digest.hexdigest() == DEAL_DIGEST


def write_wide_circuit(path):
    """A GF(7) circuit file on K_{3,3} whose rows are (1, 1, 0), (1, 2, 0)
    and (1, 3, 0), with threshold 2: three inputs, one of them unused. Its
    two-share coalitions would recover and its single shares leak nothing,
    but no two shares determine the third input."""
    rows = [(1, 1, 0), (1, 2, 0), (1, 3, 0)]
    doc = {"vertex_count": 6, "inputs": [0, 1, 2], "outputs": [3, 4, 5],
           "edges": [[u, v] for u in range(3) for v in range(3, 6)],
           "modulus": 7, "threshold": 2, "secret_input": 0,
           "coefficients": [rows[v][u] for u in range(3) for v in range(3)]}
    path.write_text(json.dumps(doc))


def test_a_circuit_whose_threshold_is_not_its_input_count_is_refused(capsys, tmp_path):
    wide, shares = tmp_path / "wide.json", tmp_path / "s.json"
    write_wide_circuit(wide)
    shares.write_text(json.dumps({"modulus": 7, "shares": [[0, 1], [1, 2], [2, 3]]}))
    out_path = tmp_path / "out.json"
    for argv in (("verify-ss", "--circuit", str(wide)),
                 ("share", "--circuit", str(wide), "--secret", "3", "--out", str(out_path)),
                 ("reconstruct", "--circuit", str(wide), "--shares", str(shares))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and not out_path.exists(), argv
        assert err == "error: threshold must equal the input count 3, got 2\n", argv


def test_synth_ss_refuses_a_t_other_than_the_input_count(capsys, tmp_path):
    graph, circ = tmp_path / "g.json", tmp_path / "c.json"
    run(capsys, "gen-sc", "--inputs", "2", "--outputs", "4", "--out", str(graph))
    for t in ("1", "3", "0"):
        code, out, err = run(capsys, "synth-ss", "--graph", str(graph), "--t", t,
                             "--out", str(circ))
        assert (code, out) == (1, "") and not circ.exists(), t
        assert err.startswith(f"error: --t {t} must equal the graph's input count 2"), err
    assert run(capsys, "synth-ss", "--graph", str(graph), "--t", "2", "--out", str(circ))[0] == 0


# The smallest strong pseudoprime to the 13 Miller-Rabin bases 2..41.
PSEUDOPRIME = "3317044064679887385961981"
# A side that would allocate gigabytes; the builders refuse it first.
TOO_LARGE = str(10**9)


@pytest.mark.parametrize("argv", [
    ("synth-ss", "--graph", "{graph}", "--t", "2", "--modulus", PSEUDOPRIME, "--out", "{out}"),
    ("verify-ss", "--circuit", "{pseudoprime}"),
    ("lambda", "800", "5"),
    ("lambda", str(10**9), str(2**40)),
    ("gen-sc", "--inputs", "5", "--outputs", "6", "--epsilon", "1e300", "--out", "{out}"),
    ("synth-ss", "--graph", "{graph}", "--t", "1", "--out", "{out}"),
    ("verify-ss", "--circuit", "{wide}"),
    ("share", "--circuit", "{wide}", "--secret", "1", "--out", "{out}"),
    ("reconstruct", "--circuit", "{wide}", "--shares", "{shares}"),
    ("verify-graph", "{huge}", "--property", "sc"),
    ("gen-concentrator", "--m", TOO_LARGE, "--n", "8", "--k", "4", "--out", "{out}"),
    ("gen-sc", "--inputs", "3", "--outputs", TOO_LARGE, "--out", "{out}"),
], ids=["composite-modulus", "composite-modulus-file", "lambda-deep", "lambda-huge",
        "gen-sc-overflow", "synth-ss-t", "verify-ss-wide",
        "share-wide", "reconstruct-wide",
        "vertex-count-huge", "gen-concentrator-huge", "gen-sc-huge"])
def test_no_input_ends_in_a_traceback(capsys, tmp_path, argv):
    paths = {name: tmp_path / f"{name}.json"
             for name in ("graph", "out", "wide", "pseudoprime", "shares", "huge")}
    run(capsys, "gen-sc", "--inputs", "2", "--outputs", "3", "--out", str(paths["graph"]))
    run(capsys, "synth-ss", "--graph", str(paths["graph"]), "--t", "2",
        "--out", str(paths["pseudoprime"]))
    run(capsys, "share", "--circuit", str(paths["pseudoprime"]), "--secret", "1",
        "--out", str(paths["shares"]))
    doc = json.loads(paths["pseudoprime"].read_text())
    paths["pseudoprime"].write_text(json.dumps(dict(doc, modulus=int(PSEUDOPRIME))))
    write_wide_circuit(paths["wide"])
    paths["huge"].write_text(json.dumps(
        {"vertex_count": 10**10, "edges": [], "inputs": [0], "outputs": [1]}))
    composite = PSEUDOPRIME in argv or "{pseudoprime}" in argv
    too_large = "{huge}" in argv or argv[0] != "lambda" and TOO_LARGE in argv
    argv = [a.format(**paths) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2) and "Traceback" not in err, (code, err)
    if code == 1:
        assert err.startswith("error:") and "RESULT" not in out
    if composite:
        assert code == 1 and f"is at least {PSEUDOPRIME}" in err
    if "1e300" in argv:
        assert code == 0 and "built_depth=1 edges=30 row=complete" in out
    if too_large:
        assert code == 1 and "exceed the maximum of" in err, err
    if argv[0] == "lambda":
        assert code == 0 and out.strip() in ("2", "3")


@pytest.mark.parametrize("args", [
    ("--depth", "0"), ("--depth", "1.5"), ("--depth", "-3"),
    ("--epsilon", "nan"), ("--epsilon", "inf"), ("--epsilon", "0"), ("--epsilon", "-1"),
])
def test_gen_sc_rejects_bad_depth_and_epsilon(capsys, tmp_path, args):
    path = tmp_path / "sc.json"
    code, out, err = run(capsys, "gen-sc", "--inputs", "8", "--outputs", "32", *args,
                         "--out", str(path))
    assert code == 1 and err.startswith("error:"), args
    assert "RESULT" not in out and not path.exists()


def test_gen_sc_depth_limits(capsys, tmp_path):
    path = tmp_path / "sc.json"
    # K_{n,m} is the depth-1 row for every n, so depth 1 is enough and depth
    # 0 is not.
    for n, m in ((3, 6), (8, 32)):
        code, out, _ = run(capsys, "gen-sc", "--inputs", str(n), "--outputs", str(m),
                           "--depth", "1", "--out", str(path))
        assert code == 0 and f"built_depth=1 edges={n * m} row=complete" in out
        code, _, err = run(capsys, "gen-sc", "--inputs", str(n), "--outputs", str(m),
                           "--depth", "0", "--out", str(path))
        assert code == 1 and err.startswith("error:")
    # A depth far past every useful one is counted at once: K_{8,12} and
    # deal's depth-2 funnel are the picks there.
    for n, m, row in ((8, 12, "built_depth=1 edges=96 row=complete"),
                      (16, 64, "built_depth=2 edges=928 row=funnel")):
        code, out, _ = run(capsys, "gen-sc", "--inputs", str(n), "--outputs", str(m),
                           "--depth", str(10**9), "--budget", "50", "--out", str(path))
        assert code == 0 and f"target_depth={10**9} {row}\n" in out


def test_verify_graph_refuted_exit_code(capsys, tmp_path):
    path = tmp_path / "matching.json"
    doc = {"vertex_count": 4, "inputs": [0, 1], "outputs": [2, 3],
           "edges": [[0, 2], [1, 3]]}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-graph", str(path), "--property", "sc")
    assert code == 2
    assert "RESULT verdict=refuted" in out
    assert "witness=" in out and "witness=none" not in out


def test_verify_graph_path_longer_than_recursion_limit(capsys, tmp_path):
    # The split graph of a 700-vertex path has one 1,401-arc augmenting path.
    n = 700
    path = tmp_path / "path.json"
    doc = {"vertex_count": n, "inputs": [0], "outputs": [n - 1],
           "edges": [[v, v + 1] for v in range(n - 1)]}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-graph", str(path), "--property", "sc")
    assert code == 0
    assert "RESULT verdict=proved" in out


def test_gen_concentrator_roundtrip(capsys, tmp_path):
    path = tmp_path / "conc.json"
    code, out, _ = run(capsys, "gen-concentrator", "--m", "8", "--n", "6",
                       "--k", "3", "--out", str(path))
    assert code == 0 and "RESULT verdict=proved" in out
    code, out, _ = run(capsys, "verify-graph", str(path),
                       "--property", "concentrator:3")
    assert code == 0 and "RESULT verdict=proved" in out
    # asking for more capacity than built may fail, but must not crash
    code, out, _ = run(capsys, "verify-graph", str(path),
                       "--property", "concentrator:6")
    assert code in (0, 2)


def test_gen_concentrator_samples_only_where_the_search_runs_past_its_budget(
        capsys, tmp_path, monkeypatch):
    # The Hall search proves README's concentrator in 65 nodes.
    code, out, _ = run(capsys, "gen-concentrator", "--m", "64", "--n", "32", "--k", "8",
                       "--budget", "2000")
    assert code == 0 and out.endswith("RESULT verdict=proved checked=65 witness=none\n")
    # At budget 0 the search still visits up to SEARCH_NODES nodes, and
    # refutes every draw of a graph that no degree-1 graph with 12 inputs
    # and 8 outputs can be, a 4-concentrator.
    path = tmp_path / "conc.json"
    argv = ["gen-concentrator", "--m", "12", "--n", "8", "--k", "4", "--degree", "1"]
    code, out, err = run(capsys, *argv, "--budget", "0")
    assert (code, out) == (1, "") and "no (12, 8, 4)-concentrator found" in err
    # With no nodes of its own the search gives up at once, and draws are
    # retried until one passes its own sampled sweep.
    monkeypatch.setattr(concentrator, "SEARCH_NODES", 0)
    code, out, _ = run(capsys, *argv, "--budget", "0", "--out", str(path))
    assert code == 0 and out.endswith("RESULT verdict=sampled_pass checked=1 witness=none\n")
    code, out, _ = run(capsys, "verify-graph", str(path), "--property", "concentrator:4")
    assert code == 2 and out.endswith("RESULT verdict=refuted checked=1 witness=((0,1,2,3),)\n")
    # Within its budget the search refutes every draw.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: no (12, 8, 4)-concentrator found in 32 attempts\n"


def test_full_secret_sharing_pipeline(capsys, tmp_path):
    graph = tmp_path / "g.json"
    circ = tmp_path / "c.json"
    shares = tmp_path / "s.json"
    run(capsys, "gen-sc", "--inputs", "2", "--outputs", "4", "--out", str(graph))
    code, out, _ = run(capsys, "synth-ss", "--graph", str(graph), "--t", "2",
                       "--out", str(circ))
    assert code == 0 and "failure_bound=" in out
    code, out, _ = run(capsys, "verify-ss", "--circuit", str(circ))
    assert code == 0 and "mode=exhaustive" in out
    code, out, _ = run(capsys, "share", "--circuit", str(circ),
                       "--secret", "424242", "--out", str(shares))
    assert code == 0
    code, out, _ = run(capsys, "reconstruct", "--circuit", str(circ),
                       "--shares", str(shares))
    assert code == 0
    assert "secret=424242" in out


def test_entropy_verify(capsys, tmp_path):
    graph = tmp_path / "g.json"
    circ = tmp_path / "c.json"
    run(capsys, "gen-sc", "--inputs", "2", "--outputs", "3", "--out", str(graph))
    # seed 0 over GF(3) is a known valid (2,3) instance
    run(capsys, "synth-ss", "--graph", str(graph), "--t", "2",
        "--modulus", "3", "--seed", "0", "--out", str(circ))
    code, out, _ = run(capsys, "entropy-verify", "--circuit", str(circ))
    assert code == 0
    assert "H(S)=1.000000000" in out
    assert "threshold_definition=proved" in out
    assert "entropy_bounds=proved" in out
    assert "han_residual=" in out


def test_entropy_verify_reports_bounds_refuted_where_the_definition_holds(capsys, tmp_path):
    # Every share of an all-zero circuit is 0, so H(S | Y_T) = H(S) = 1 for
    # every T: within --tol 1 of the definition's 0 and H(S), but
    # H(Y_{1,2,3}) = 0 falls short of t H(S) - tol = 2.
    net = complete_bipartite(3, 5)
    circ = tmp_path / "zero.json"
    write_circuit(LinearCircuit(net, FieldModulus(7), (0,) * len(net.edges)), circ)
    code, out, _ = run(capsys, "entropy-verify", "--circuit", str(circ), "--tol", "1")
    assert code == 2
    assert out.splitlines()[-4:] == [
        "threshold_definition=proved", "entropy_bounds=refuted", "han_residual=0.000000000",
        "RESULT verdict=refuted checked=1 witness=((1,2,3),)"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
def test_entropy_verify_refuses_a_tolerance_outside_zero_to_inf(capsys, tmp_path, tol):
    # Over GF(3) at seed 1 the (2, 3) circuit is refuted at the default
    # tolerance; NaN and inf would prove it, and a negative tolerance would
    # refute another coalition.
    graph, circ = tmp_path / "g.json", tmp_path / "c.json"
    run(capsys, "gen-sc", "--inputs", "2", "--outputs", "3", "--out", str(graph))
    run(capsys, "synth-ss", "--graph", str(graph), "--t", "2",
        "--modulus", "3", "--seed", "1", "--out", str(circ))
    code, out, _ = run(capsys, "entropy-verify", "--circuit", str(circ))
    assert code == 2 and "RESULT verdict=refuted checked=2 witness=((1,3),)" in out
    code, out, err = run(capsys, "entropy-verify", "--circuit", str(circ), f"--tol={tol}")
    assert (code, out) == (1, "") and err.startswith("error: need a tolerance 0 <= tol < inf")


@pytest.mark.parametrize("argv, form", [
    (("verify-graph", "{graph}", "--property", "partial:1"), "partial:<p>,<q>"),
    (("verify-graph", "{graph}", "--property", "partial:1,x"), "partial:<p>,<q>"),
    (("verify-graph", "{graph}", "--property", "partial:1,1,1"), "partial:<p>,<q>"),
    (("verify-graph", "{graph}", "--property", "concentrator:x"), "concentrator:<k>"),
    (("verify-graph", "{graph}", "--property", "concentrator:"), "concentrator:<k>"),
    (("gen-sc", "--inputs", "2", "--outputs", "3", "--depth", "x", "--out", "{out}"),
     "--depth auto|<int>"),
])
def test_malformed_property_or_depth_names_the_expected_form(capsys, tmp_path, argv, form):
    graph, out_path = tmp_path / "g.json", tmp_path / "out.json"
    run(capsys, "gen-sc", "--inputs", "2", "--outputs", "3", "--out", str(graph))
    argv = [a.format(graph=graph, out=out_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and "RESULT" not in out and not out_path.exists()
    assert err.startswith("error:") and form in err and "Traceback" not in err


def test_share_refuses_a_secret_outside_the_field(capsys, tmp_path):
    # Over the default prime p, -1 and p + 1 once reconstructed as p - 1 and 1.
    circ, _ = shared_circuit(capsys, tmp_path)
    out_path = tmp_path / "out.json"
    for secret in ("-1", "2305843009213693951", "2305843009213693952"):
        code, out, err = run(capsys, "share", "--circuit", str(circ), "--secret", secret,
                             "--out", str(out_path))
        assert (code, out) == (1, "") and not out_path.exists(), secret
        assert err == ("error: the secret must be an integer in [0, 2305843009213693951), "
                       f"got {secret}\n")


@pytest.mark.parametrize("argv", [
    ("verify-ss", "--circuit", "{circ}", "--budget", "-7"),
    ("gen-sc", "--inputs", "8", "--outputs", "32", "--budget", "-5", "--out", "{out}"),
    ("gen-sc", "--inputs", "3", "--outputs", "6", "--budget", "-1", "--out", "{out}"),
    ("verify-graph", "{graph}", "--property", "sc", "--budget", "-1"),
    ("gen-concentrator", "--m", "12", "--n", "8", "--k", "4", "--budget", "-3",
     "--out", "{out}"),
], ids=["verify-ss", "gen-sc", "gen-sc-complete-bipartite", "verify-graph", "gen-concentrator"])
def test_negative_budget_is_an_error(capsys, tmp_path, argv):
    # Each once ran a sampled sweep, or none, and exited 0; budget 0 is legal.
    graph, circ, out_path = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "out.json"
    run(capsys, "gen-sc", "--inputs", "3", "--outputs", "16", "--out", str(graph))
    run(capsys, "synth-ss", "--graph", str(graph), "--t", "3", "--out", str(circ))
    assert run(capsys, "verify-ss", "--circuit", str(circ))[0] == 0
    argv = [a.format(graph=graph, circ=circ, out=out_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and not out_path.exists()
    assert err.startswith("error: need a budget >= 0, got -")
    budget = argv.index("--budget") + 1
    assert run(capsys, *argv[:budget], "0", *argv[budget + 1:])[0] in (0, 2)


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--builder", "sc-depth2",
                       "--sizes", "8,16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["builder", "n", "m", "edges", "ratio"]
    assert len(lines) == 3
    code, out, _ = run(capsys, "bench", "--builder", "sc-depth2-linear",
                       "--sizes", "2,3", "--budget", "50")
    assert code == 0
    assert out.splitlines() == ["builder,n,m,edges,ratio", "sc-depth2-linear,2,6,24,4.0000",
                                "sc-depth2-linear,3,16,114,7.1250"]
    # The depth-3 builder and the recursion at the least m their
    # preconditions admit: 5 * log2(5)^2.5 and 5 * lambda_3(5)^1.5.
    for builder, row in (("sc-depth3-linear", "5,42,536,12.7619"),
                         ("sc-general", "5,15,145,9.6667")):
        code, out, _ = run(capsys, "bench", "--builder", builder, "--sizes", "5",
                           "--budget", "50")
        assert code == 0 and out.splitlines()[1] == f"{builder},{row}"


def test_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "verify-graph", str(tmp_path / "missing.json"),
                       "--property", "sc")
    assert code == 1 and "error:" in err
    graph = tmp_path / "g.json"
    run(capsys, "gen-sc", "--inputs", "2", "--outputs", "3", "--out", str(graph))
    code, _, err = run(capsys, "verify-graph", str(graph),
                       "--property", "nonsense")
    assert code == 1 and "error:" in err
    for k in ("-1", "3"):
        code, _, err = run(capsys, "verify-graph", str(graph),
                           "--property", f"concentrator:{k}")
        assert code == 1 and "error:" in err and "Traceback" not in err


def test_verify_graph_refuses_a_negative_slack(capsys, tmp_path):
    # partial:-1,-1 once swept no size at all and printed verdict=proved.
    graph = tmp_path / "k35.json"
    write_network(complete_bipartite(3, 5), graph)
    for prop in ("partial:-1,-1", "partial:2,-1"):
        code, out, err = run(capsys, "verify-graph", str(graph), "--property", prop)
        assert (code, out) == (1, "") and err.startswith("error: partial_sc("), (prop, err)
        assert "need 0 <= slack" in err and "Traceback" not in err, (prop, err)


def test_verify_graph_refuses_a_negative_vertex_count(capsys, tmp_path):
    # A negative count was once reported as "graph contains a directed cycle".
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertex_count": -3, "edges": [], "inputs": [], "outputs": []}))
    code, out, err = run(capsys, "verify-graph", str(graph), "--property", "sc")
    assert (code, out) == (1, "")
    assert err == "error: vertex_count must be at least 0, got -3\n", err


def shared_circuit(capsys, tmp_path):
    """A (2, 4) circuit over the default prime, and its share file."""
    graph, circ, shares = (tmp_path / f"{name}.json" for name in ("g", "c", "s"))
    run(capsys, "gen-sc", "--inputs", "2", "--outputs", "4", "--out", str(graph))
    run(capsys, "synth-ss", "--graph", str(graph), "--t", "2", "--out", str(circ))
    run(capsys, "share", "--circuit", str(circ), "--secret", "5", "--out", str(shares))
    return circ, shares


def test_malformed_input_files_are_errors(capsys, tmp_path):
    circ, shares = shared_circuit(capsys, tmp_path)
    graph = tmp_path / "g.json"
    a_list = tmp_path / "list.json"
    a_list.write_text("[1, 2]")
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    names = itertools.count()

    def edited(path, *keys, value=None):
        """A copy of the JSON file at path, with doc[keys...] set to value,
        or deleted when value is None."""
        doc = json.loads(path.read_text())
        *parents, last = keys
        target = doc
        for key in parents:
            target = target[key]
        if value is None:
            del target[last]
        else:
            target[last] = value
        out = tmp_path / f"edited{next(names)}.json"
        out.write_text(json.dumps(doc))
        return str(out)

    # A reader that truncated these would read another, valid graph or
    # share file: 2.9 as 2, false as 0, "1" as 1.
    not_integers = [(("edges", 0, 1), 2.9), (("edges", 0, 0), False), (("edges", 0, 1), "1"),
                    (("inputs", 0), 0.0), (("vertex_count",), True)]
    bad_shares = [(("shares", 0, 1), 2.9), (("shares", 1, 0), True), (("shares", 1, 0), "1"),
                  (("shares", 0), [0, 1, 2])]
    typed = [("verify-graph", edited(graph, *keys, value=value), "--property", "sc")
             for keys, value in not_integers]
    typed += [("verify-ss", "--circuit", edited(circ, *keys, value=value))
              for keys, value in not_integers]
    typed += [("reconstruct", "--circuit", str(circ), "--shares",
               edited(shares, *keys, value=value)) for keys, value in bad_shares]
    # Share values that are no field elements: taken as they are, value + p
    # still gives the dealt secret and -5 gives another one, with exit 0.
    doc = json.loads(shares.read_text())
    p, (index, value) = doc["modulus"], doc["shares"][0]
    out_of_field = {("reconstruct", "--circuit", str(circ), "--shares",
                     edited(shares, "shares", 0, 1, value=bad)): [index, bad]
                    for bad in (value + p, -5)}
    # Edges that are not [tail, head] pairs, in a graph and a circuit file.
    misshapen = {}
    for bad in ([0], [0, 1, 2], 7):
        misshapen[("verify-graph", edited(graph, "edges", 0, value=bad), "--property", "sc")] = bad
        misshapen[("verify-ss", "--circuit", edited(circ, "edges", 0, value=bad))] = bad
    too_deep = [("verify-graph", str(nested), "--property", "sc"),
                ("verify-ss", "--circuit", str(nested)),
                ("reconstruct", "--circuit", str(circ), "--shares", str(nested))]
    cases = [
        ("verify-ss", "--circuit", edited(circ, "coefficients")),
        ("verify-graph", str(a_list), "--property", "sc"),
        ("verify-ss", "--circuit", str(a_list)),
        ("reconstruct", "--circuit", str(circ), "--shares", edited(shares, "shares")),
        ("bench", "--sizes", "1"),
        ("bench", "--builder", "sc-depth2-linear", "--sizes", "0"),
        ("bench", "--builder", "sc-general", "--sizes", "1"),
        *typed,
        *too_deep,
        *out_of_field,
        *misshapen,
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:"), (argv, err)
        assert "RESULT" not in out and "secret=" not in out, argv
        if argv in typed:
            assert "integer" in err, (argv, err)
        if argv in too_deep:
            assert "nested too deeply" in err, (argv, err)
        if argv in out_of_field:
            entry = out_of_field[argv]
            assert f"share values must lie in [0, modulus) = [0, {p}), got {entry}" in err, err
        if argv in misshapen:
            assert f"edges must be [tail, head] pairs, got {misshapen[argv]}" in err, err


@pytest.mark.parametrize("bad", ["x", None, 2.5, -5, 10**30, True],
                         ids=["string", "null", "float", "negative", "too_large", "bool"])
def test_coefficients_outside_the_field_are_errors(capsys, tmp_path, bad):
    circ, _ = shared_circuit(capsys, tmp_path)
    doc = json.loads(circ.read_text())
    doc["coefficients"][0] = bad
    circ.write_text(json.dumps(doc))
    for argv in (("verify-ss", "--circuit", str(circ)),
                 ("share", "--circuit", str(circ), "--secret", "5",
                  "--out", str(tmp_path / "out.json"))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:") and "coefficients" in err, argv
        assert "RESULT" not in out, argv


def test_error_lines_quote_a_nested_value_briefly(capsys, tmp_path):
    # A 500-deep list where a vertex, an edge, a coefficient or a share
    # belongs once came back quoted in full: 1 KB of brackets on Python 3.11
    # and 20 KB on 3.13.
    circ, shares = shared_circuit(capsys, tmp_path)
    graph = tmp_path / "g.json"
    nested = []
    for _ in range(499):
        nested = [nested]
    cases = []
    for path, field, argv in (
        (graph, "edges", ("verify-graph", "{}", "--property", "sc")),
        (graph, "inputs", ("verify-graph", "{}", "--property", "sc")),
        (graph, "outputs", ("verify-graph", "{}", "--property", "sc")),
        (circ, "coefficients", ("verify-ss", "--circuit", "{}")),
        (shares, "shares", ("reconstruct", "--circuit", str(circ), "--shares", "{}")),
    ):
        doc = json.loads(path.read_text())
        doc[field][0] = nested
        edited = tmp_path / f"nested_{field}.json"
        edited.write_text(json.dumps(doc))
        cases.append([a.format(edited) for a in argv])
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error:"), (argv, err[:300])
        assert err.count("\n") == 1 and len(err.encode()) < 200, (argv, len(err), err[:300])
        assert "[[[" in err, (argv, err)


def test_error_lines_quote_a_huge_integer_briefly(capsys, tmp_path):
    # A modulus, a vertex or an edge end of 4,001 digits once came back in
    # full: a 4 KB error line.
    circ, _ = shared_circuit(capsys, tmp_path)
    graph = tmp_path / "g.json"
    huge = 10**4000 + 1
    for path, keys, argv in (
        (circ, ("modulus",), ("verify-ss", "--circuit", "{}")),
        (graph, ("inputs", 0), ("verify-graph", "{}", "--property", "sc")),
        (graph, ("edges", 0, 1), ("verify-graph", "{}", "--property", "sc")),
    ):
        doc = json.loads(path.read_text())
        *parents, last = keys
        target = doc
        for key in parents:
            target = target[key]
        target[last] = huge
        edited = tmp_path / f"huge_{keys[0]}.json"
        edited.write_text(json.dumps(doc))
        code, out, err = run(capsys, *[a.format(edited) for a in argv])
        assert (code, out) == (1, "") and err.startswith("error:"), (argv, err[:300])
        assert err.count("\n") == 1 and len(err.encode()) < 200, (argv, len(err), err[:300])
        assert "100000" in err, (argv, err)


@pytest.mark.parametrize("field, value, error", [
    ("modulus", 103, "share file modulus 103 differs from the circuit's 101"),
    ("modulus", 100, "share file modulus 100 differs from the circuit's 101"),
    ("shares", 2, "need at least t = 3 shares, got 2"),
], ids=["another_modulus", "not_prime", "too_few"])
def test_reconstruct_refuses_a_share_file_it_cannot_use(capsys, tmp_path, field, value, error):
    # A (3, 5) circuit over GF(101), whose shares are valid over GF(103) too;
    # `value` is the share file's modulus or the number of shares it keeps.
    graph, circ, shares = (tmp_path / f"{name}.json" for name in ("g", "c", "s"))
    run(capsys, "gen-sc", "--inputs", "3", "--outputs", "5", "--out", str(graph))
    run(capsys, "synth-ss", "--graph", str(graph), "--t", "3", "--modulus", "101",
        "--out", str(circ))
    run(capsys, "share", "--circuit", str(circ), "--secret", "5", "--out", str(shares))
    doc = json.loads(shares.read_text())
    doc[field] = doc["shares"][:value] if field == "shares" else value
    shares.write_text(json.dumps(doc))
    code, out, err = run(capsys, "reconstruct", "--circuit", str(circ),
                         "--shares", str(shares))
    assert (code, out, err) == (1, "", f"error: {error}\n")


NOT_AN_OUTPUT = "share index {} is not an output of the circuit, whose 4 outputs are indexed [0, 4)"


@pytest.mark.parametrize("entries, error", [
    ([(0, 0), (0, 0), (1, 0)], "share index 0 is listed twice"),
    ([(0, 1), (0, 0), (1, 0), (2, 0)], "share index 0 is listed twice"),
    ([(0, 0), (9, 0)], NOT_AN_OUTPUT.format(9)),
    ([(-1, 0), (0, 0)], NOT_AN_OUTPUT.format(-1)),
    ([(0, 0), (1, 0), (4, 0)], NOT_AN_OUTPUT.format(4)),
], ids=["repeated", "repeated_with_another_value", "out_of_range", "negative", "unused_out_of_range"])
def test_reconstruct_rejects_bad_share_indices(capsys, tmp_path, entries, error):
    # Each entry is (index, offset): the share dealt at that index, or 0,
    # plus offset. The repeated and out-of-range indices were once reported
    # as "row indices must be strictly increasing" or "row index 9 out of
    # range [0, 4)", and an index past the first t shares was not read.
    circ, shares = shared_circuit(capsys, tmp_path)
    doc = json.loads(shares.read_text())
    p, dealt = doc["modulus"], dict(doc["shares"])
    doc["shares"] = [[i, (dealt.get(i, 0) + offset) % p] for i, offset in entries]
    shares.write_text(json.dumps(doc))
    code, out, err = run(capsys, "reconstruct", "--circuit", str(circ),
                         "--shares", str(shares))
    assert (code, out, err) == (1, "", f"error: {error}\n")


def readme_commands():
    """The argument lists of the `sharecircuit` lines in the README's CLI
    block, in order."""
    text = README.read_text()
    block = text[text.index("## CLI"):]
    block = block[block.index("```sh\n") + len("```sh\n"):]
    block = block[:block.index("```")]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("sharecircuit ")]


def test_readme_walkthrough(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    verdicts = {}
    for argv in readme_commands():
        code, out, err = run(capsys, *argv)
        found = RESULT_RE.findall(out)
        # lambda, alpha and bench print no RESULT line.
        verdict = found[0] if found else "ok"
        assert len(found) <= 1 and not err, (argv, out, err)
        assert code == EXIT_CODE[verdict], (argv, code, out)
        if argv[0] == "reconstruct":
            assert "secret=424242" in out
        verdicts[(argv[0], argv[-1])] = verdict
    assert verdicts[("verify-ss", "circ.json")] == "proved"
    assert verdicts[("gen-concentrator", "conc.json")] == "proved"
    assert ("reconstruct", "shares.json") in verdicts
    small = verdicts[("verify-ss", "small.json")]
    assert small == verdicts[("entropy-verify", "small.json")]


def usage_errors(name, specs):
    """Argument lists that stop `name` in argparse: -h, a missing required
    argument, a bad int and an unrecognized extra argument after the
    required ones."""
    required = [(flag, kwargs) for flag, kwargs in specs
                if kwargs.get("required") or not flag.startswith("-")]
    filled = []
    for flag, kwargs in required:
        value = "1" if kwargs.get("type") is int else "x"
        filled += [value] if flag[0] != "-" else [flag, value]
    cases = [[name, "-h"], [name, *filled, "--bogus"]]
    if required:
        cases.append([name])
    ints = [flag for flag, kwargs in specs if kwargs.get("type") is int]
    if ints:
        cases.append([name, "x"] if ints[0][0] != "-" else [name, ints[0], "x"])
    return cases


def benchmark_argvs(tmp_path, monkeypatch):
    """The argument lists that one set-up and one operation of every
    benchmark workload pass to the CLI."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    seen = []

    def recording_main(argv):
        seen.append(argv)
        return main(argv)

    monkeypatch.setattr(workloads, "main", recording_main)
    for name, workload in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        wl = workload(workloads.Runner(tmp_path / name), 1)
        wl.setup()
        wl.op(0)
    return seen


def test_main_builds_every_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)

    def parsers_built(*argv, cold=True):
        # An earlier test may have warmed the memo; a cold count clears it.
        if cold:
            cli._parser.cache_clear()
        built.clear()
        try:
            main(list(argv))
        except SystemExit:
            pass
        capsys.readouterr()
        return len(built)

    calls = [("lambda", "4", "16"), ("gen-sc", "-h"), ("share", "--bogus"), ("-h",),
             ("nope",), ()]
    # A first call builds the top-level parser and one per command.
    for argv in calls:
        assert parsers_built(*argv) == 1 + len(COMMANDS), argv
    # Every later call, of any command, reuses them.
    for argv in calls:
        assert parsers_built(*argv, cold=False) == 0, argv


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [["-h"], [], ["nope"], ["--bogus"]] + [
    argv for name, (_, specs) in COMMANDS.items() for argv in usage_errors(name, specs)
], ids=" ".join)
def test_usage_errors_stop_in_argparse(capsys, argv):
    """Help exits 0 with stdout only; every other usage error exits 2 with
    stderr only."""
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out = capsys.readouterr()
    want = (0, True, False) if "-h" in argv else (2, False, True)
    assert (stop.value.code, bool(out.out), bool(out.err)) == want


def test_reused_parsers_answer_as_fresh_ones(capsys, tmp_path, monkeypatch):
    """Cold (memo cleared before every call) and warm (every parser built
    beforehand and reused through the pass, after failures and successes),
    in forward and in reversed order, main prints and returns the same for
    usage errors and for the benchmark's calls."""
    argvs = [["-h"], [], ["nope"], ["--bogus"]]
    argvs += [argv for name, (_, specs) in COMMANDS.items() for argv in usage_errors(name, specs)]
    argvs += benchmark_argvs(tmp_path, monkeypatch)
    capsys.readouterr()
    for order in (argvs, argvs[::-1]):
        cold = []
        for argv in order:
            cli._parser.cache_clear()
            cold.append(outcome(capsys, argv))
        cli._parser()
        warm = [outcome(capsys, argv) for argv in order]
        for argv, a, b in zip(order, cold, warm):
            assert a == b, argv
    assert {code for code, _, _ in cold} == {0, 2}
    # The parser names the command argument `command`, not a metavar.
    errs = {tuple(argv): err for argv, (_, _, err) in zip(order, cold)}
    assert "required: command\n" in errs[()]
    assert "argument command: invalid choice: 'nope'" in errs[("nope",)]


def test_every_spec_has_an_immutable_default_and_a_plain_store_action():
    # What makes a parser safe to reuse: no parse can change a default.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMANDS)
    for name, parser in sub.choices.items():
        for action in parser._actions:
            assert type(action) in (argparse._StoreAction, argparse._HelpAction), (name, action)
            assert type(action.default) in (type(None), int, float, str), (name, action)


# Counts the parsers that one shell-like call of main builds.
COUNT_PARSERS = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from sharecircuit.cli import main
try:
    main()
except SystemExit:
    pass
print("parsers", len(built))
"""


@pytest.mark.parametrize("argv", [["lambda", "4", "16"], ["-h"]], ids=["one-command", "help"])
def test_a_fresh_process_builds_the_parsers_of_its_call(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", COUNT_PARSERS, *argv], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == f"parsers {1 + len(COMMANDS)}"


def test_the_module_runs_as_a_script():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "sharecircuit.cli", "lambda", "4", "16"],
                          env=env, capture_output=True, text=True, check=True)
    assert (done.stdout, done.stderr) == ("3\n", "")


# Standard modules that the library does without, so that no CLI process
# pays to import them: dataclasses (which imports inspect), fractions (which
# imports decimal), and csv, which only `bench` imports, when it runs.
UNUSED_MODULES = {"dataclasses", "inspect", "fractions", "decimal", "csv"}


def test_importing_the_cli_loads_no_unused_standard_module():
    # Modules the interpreter loaded before the import do not count.
    code = ("import sys; before = set(sys.modules); import sharecircuit.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "sharecircuit.cli" in loaded and not loaded & UNUSED_MODULES, loaded & UNUSED_MODULES


# A seeded fuzz of every command, in one process through main: boundary
# argument values, and graph, circuit and share files mutated from valid
# ones. Every call must end in exit code 0, 1 or 2, with no traceback, and
# an exit code 1 with an `error:` line.
FUZZ_SEED = 20261020
# The values each argument draws from when it is not left valid.
BOUNDARY = ["0", "-1", str(2**63), str(10**30), "nan", "inf", "1e300", "x", ""]
DRAWS_PER_COMMAND = 100
# Wrong types for a field; None is JSON null.
WRONG_TYPES = ["x", True, 2.5, None, {}]
OUT_OF_RANGE = [-1, 2**63, 10**30]
# List depths: one that every supported Python's json reads, one that none does.
DEPTHS = (500, 10**4)


def valid_files(capsys):
    """A small graph, a circuit over the default prime on it, its share file
    and a circuit over GF(3), small enough to enumerate, in the working
    directory."""
    for argv in (
        ("gen-sc", "--inputs", "3", "--outputs", "5", "--out", "graph.json"),
        ("synth-ss", "--graph", "graph.json", "--t", "3", "--out", "circuit.json"),
        ("share", "--circuit", "circuit.json", "--secret", "5", "--out", "shares.json"),
        ("gen-sc", "--inputs", "2", "--outputs", "3", "--out", "small_graph.json"),
        ("synth-ss", "--graph", "small_graph.json", "--t", "2", "--modulus", "3",
         "--seed", "0", "--out", "small.json"),
    ):
        assert outcome(capsys, argv)[0] == 0, argv


def mutations(doc):
    """Documents that differ from doc in one place: a field dropped, of the
    wrong type, out of range or a list nested DEPTHS deep, a list's first
    entry of the wrong type or out of range, a first edge or share of the
    wrong length, and a vertex count above MAX_SIZE. Deep nesting is
    written as text, since json.dumps cannot encode it."""
    for key, value in doc.items():
        yield json.dumps({k: v for k, v in doc.items() if k != key})
        for bad in WRONG_TYPES + (OUT_OF_RANGE if type(value) is int else []):
            yield json.dumps({**doc, key: bad})
        for depth in DEPTHS:
            yield json.dumps({**doc, key: "DEEP"}).replace('"DEEP"', "[" * depth + "]" * depth)
        if type(value) is list and value:
            first = value[0]
            bads = WRONG_TYPES + OUT_OF_RANGE
            if type(first) is list:
                bads = bads + [first[:1], first + first[:1], []]
            for bad in bads:
                yield json.dumps({**doc, key: [bad, *value[1:]]})
    if "vertex_count" in doc:
        yield json.dumps({**doc, "vertex_count": MAX_SIZE + 1})


# Each command's valid arguments, in order; a file argument names one of
# the valid files, which the draws also replace by mutated ones.
VALID = {
    "gen-concentrator": ["--m", "8", "--n", "6", "--k", "3", "--degree", "3", "--seed", "1",
                         "--budget", "50", "--out", "out.json"],
    "gen-sc": ["--inputs", "3", "--outputs", "5", "--depth", "2", "--epsilon", "0.5",
               "--seed", "1", "--budget", "50", "--out", "out.json"],
    "verify-graph": ["graph.json", "--property", "sc", "--budget", "50", "--seed", "1"],
    "synth-ss": ["--graph", "graph.json", "--t", "3", "--modulus", "7", "--seed", "1",
                 "--out", "out.json"],
    "verify-ss": ["--circuit", "circuit.json", "--budget", "50", "--seed", "1"],
    "share": ["--circuit", "circuit.json", "--secret", "5", "--seed", "1", "--out", "out.json"],
    "reconstruct": ["--circuit", "circuit.json", "--shares", "shares.json"],
    "entropy-verify": ["--circuit", "small.json", "--tol", "1e-9"],
    "lambda": ["4", "16"],
    "alpha": ["32768", "256"],
    "bench": ["--builder", "sc-depth2", "--sizes", "2,3", "--seed", "1", "--budget", "50"],
}

# (command, the kind of file it reads) for each file argument in VALID.
READERS = [("verify-graph", "graph"), ("synth-ss", "graph"), ("verify-ss", "circuit"),
           ("share", "circuit"), ("reconstruct", "circuit"), ("reconstruct", "shares"),
           ("entropy-verify", "small")]


def drawn_argvs(rng, files):
    """DRAWS_PER_COMMAND argument lists per command: each value is kept with
    probability 2/3, else replaced by a boundary value or, for a file, by a
    mutated file of its kind and, for a property, by a property whose
    integers are boundary values."""
    for name, argv in VALID.items():
        values = [i for i, a in enumerate(argv) if not a.startswith("--")]
        for _ in range(DRAWS_PER_COMMAND):
            drawn = [name, *argv]
            for i in values:
                if rng.random() < 2 / 3:
                    continue
                kind = argv[i].removesuffix(".json")
                value = rng.choice(BOUNDARY)
                if kind in files and rng.random() < 0.5:
                    value = rng.choice(files[kind])
                elif argv[i - 1] == "--property" and rng.random() < 0.5:
                    value = rng.choice([f"concentrator:{value}",
                                        f"partial:{value},{rng.choice(BOUNDARY)}"])
                drawn[i + 1] = value
            yield drawn


def test_no_fuzzed_call_ends_in_a_traceback(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    valid_files(capsys)
    files, argvs = {}, []
    for kind in ("graph", "circuit", "shares", "small"):
        doc = json.loads((tmp_path / f"{kind}.json").read_text())
        files[kind] = []
        for i, text in enumerate(mutations(doc)):
            path = tmp_path / f"{kind}_{i}.json"
            path.write_text(text)
            files[kind].append(path.name)
    # Every mutated file once, through each command that reads its kind.
    for name, kind in READERS:
        argv = [name, *VALID[name]]
        slot = argv.index(f"{kind}.json")
        argvs += [[*argv[:slot], path, *argv[slot + 1:]] for path in files[kind]]
    argvs += drawn_argvs(random.Random(FUZZ_SEED), files)
    assert {argv[0] for argv in argvs} == set(COMMANDS)

    failures, codes = [], set()
    for argv in argvs:
        try:
            code, out, err = outcome(capsys, argv)
        except Exception:  # every exception that escapes main is a failure to report
            failures.append((argv, traceback.format_exc()))
            continue
        codes.add(code)
        if code not in (0, 1, 2) or "Traceback" in err or code == 1 and not err.startswith("error:"):
            failures.append((argv, code, err))
    elapsed = time.perf_counter() - start
    assert not failures, failures[:10]
    # Successes, input errors and usage errors or refutations all occur.
    assert codes == {0, 1, 2}
    # Well under a second here; the bound leaves room for a loaded machine.
    assert elapsed < 30, elapsed
