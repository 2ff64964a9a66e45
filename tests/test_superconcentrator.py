import hashlib
import json
import math

import pytest

from sharecircuit.cli import main
from sharecircuit import concentrator, network
from sharecircuit.errors import InvalidArguments, PreconditionViolation
from sharecircuit.network import (
    VerificationReport,
    complete_bipartite,
    network_to_dict,
    verify_partial_sc,
    verify_superconcentrator,
)
from sharecircuit.superconcentrator import (
    _complete_row,
    _fewest_wires,
    _funnel_row,
    _middle,
    _union_row,
    build_partial_sc_depth2,
    build_sc,
    build_sc_depth2,
    build_sc_depth2_linear,
    build_sc_depth3_linear,
    build_sc_general,
    partial_sc_guarantee,
    recommended_depth,
    sc_row,
)


def test_partial_sc_guarantee_examples():
    assert partial_sc_guarantee(9, 1.5) == (6, 4)
    assert partial_sc_guarantee(12, 1) == (12, 8)
    assert partial_sc_guarantee(12, 2) == (6, 4)


def test_partial_sc_depth2_proved():
    net = build_partial_sc_depth2(9, 9, 1.5, rng_seed=1)
    assert net.depth == 2
    p, q = partial_sc_guarantee(9, 1.5)
    report = verify_partial_sc(net, p, q)
    assert report.verdict == "proved"


def test_partial_sc_depth2_middle_layer_size():
    # middle layer has ceil(4n / (3r)) vertices
    net = build_partial_sc_depth2(12, 12, 2, rng_seed=0)
    assert net.vertex_count - 12 - 12 == math.ceil(4 * 12 / (3 * 2))


def test_partial_sc_depth2_precondition():
    with pytest.raises(InvalidArguments):
        build_partial_sc_depth2(6, 6, 3)


def test_sc_depth2_base_case_small_n():
    for n in (1, 2, 4):
        net = build_sc_depth2(n, n + 3)
        assert net.depth == 1
        assert len(net.edges) == n * (n + 3)
        assert verify_superconcentrator(net).verdict == "proved"


def test_sc_depth2_square_proved():
    net = build_sc_depth2(8, 8, rng_seed=1)
    report = verify_superconcentrator(net)
    assert report.verdict == "proved"
    assert report.subsets_checked == sum(
        math.comb(8, k) ** 2 for k in range(1, 9)
    )


def test_sc_depth2_unbalanced_proved():
    net = build_sc_depth2(4, 16, rng_seed=1)
    report = verify_superconcentrator(net)
    assert report.verdict == "proved"


def test_sc_depth2_deterministic():
    a = build_sc_depth2(8, 8, rng_seed=7)
    b = build_sc_depth2(8, 8, rng_seed=7)
    assert sorted(a.edges) == sorted(b.edges)
    c = build_sc_depth2(8, 8, rng_seed=8)
    assert sorted(a.edges) != sorted(c.edges)


def test_sc_depth2_argument_errors():
    with pytest.raises(InvalidArguments):
        build_sc_depth2(0, 4)
    with pytest.raises(InvalidArguments):
        build_sc_depth2(5, 4)


def test_sc_depth2_linear_proved():
    # m >= n^(2+eps) with eps = 1: n = 3, m = 27
    net = build_sc_depth2_linear(3, 81, 1.0, rng_seed=1)
    assert net.depth == 2
    report = verify_superconcentrator(net)
    assert report.verdict == "proved"


def test_sc_depth2_linear_precondition():
    with pytest.raises(PreconditionViolation):
        build_sc_depth2_linear(3, 8, 1.0)
    with pytest.raises(InvalidArguments):
        build_sc_depth2_linear(3, 81, 0)


def test_sc_depth3_linear_proved():
    net = build_sc_depth3_linear(4, 23, 0.5, rng_seed=1)
    assert net.depth <= 3
    report = verify_superconcentrator(net)
    assert report.verdict == "proved"


def test_sc_depth3_linear_delegates_when_very_wide():
    # m >= n^3 falls back to the depth-2 construction
    net = build_sc_depth3_linear(3, 27, 0.5, rng_seed=1)
    assert net.depth <= 2
    assert verify_superconcentrator(net).verdict == "proved"


def test_sc_depth3_linear_precondition():
    with pytest.raises(PreconditionViolation):
        build_sc_depth3_linear(4, 5, 0.5)


def test_sc_general_proved():
    net = build_sc_general(5, 15, 3, 0.5, rng_seed=1)
    assert net.depth <= 4
    report = verify_superconcentrator(net)
    assert report.verdict == "proved"


def test_sc_general_preconditions():
    with pytest.raises(InvalidArguments):
        build_sc_general(5, 100, 2, 0.5)
    with pytest.raises(InvalidArguments):
        build_sc_general(5, 100, 3, 0)
    with pytest.raises(PreconditionViolation):
        build_sc_general(5, 5, 3, 0.5)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0, -1])
@pytest.mark.parametrize("build", [
    lambda eps: build_sc(10, 20, 3, eps),
    lambda eps: build_sc_depth2_linear(1, 10, eps),
    lambda eps: build_sc_depth3_linear(2, 40, eps),
    lambda eps: build_sc_general(2, 10, 3, eps),
], ids=["table", "depth2-linear", "depth3-linear", "recursion"])
def test_every_builder_refuses_an_epsilon_that_is_not_finite_and_positive(build, epsilon):
    # NaN compares false both ways: it once passed `epsilon <= 0`, and the
    # depth-3 builder built a graph at n = 2, m = 40.
    with pytest.raises(InvalidArguments, match="epsilon must be positive and finite"):
        build(epsilon)


def test_recommended_depth_examples():
    assert recommended_depth(32768, 256) == 4
    assert recommended_depth(256, 256) == 6
    with pytest.raises(InvalidArguments):
        recommended_depth(10, 20)


def test_recommended_depth_shrinks_for_wide_graphs():
    n = 256
    assert recommended_depth(n**4, n) <= recommended_depth(n, n)


def gen_sc(tmp_path, capsys, n, m, depth):
    """The bytes `gen-sc` writes for (n, m) at --depth, seed 1, budget 200."""
    out = tmp_path / f"sc-{n}-{m}-{depth}.json"
    code = main(["gen-sc", "--inputs", str(n), "--outputs", str(m), "--depth", str(depth),
                 "--seed", "1", "--budget", "200", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("n, m", [(8, 182), (16, 1024)])
def test_auto_caps_the_depth_at_alpha_plus_3_and_builds_no_larger_than_depth_2(
        tmp_path, capsys, n, m):
    # The abstract's depth-2 regime, m >= n^2.5: auto builds the graph of
    # --depth alpha(m, n) + 3, which has no more edges than depth 2's. At
    # (8, 182) that is K_{8,182} at every depth; at (16, 1024) a depth-3
    # funnel of 9,128 edges against the depth-2 funnel's 9,232.
    auto = gen_sc(tmp_path, capsys, n, m, "auto")
    assert auto == gen_sc(tmp_path, capsys, n, m, recommended_depth(m, n))
    assert len(json.loads(auto)["edges"]) <= _fewest_wires(n, m, 2, 0.5)[0]
    if n == 8:
        assert auto == gen_sc(tmp_path, capsys, n, m, 2)


def test_depths_past_the_chosen_rows_build_its_graph(tmp_path, capsys):
    # Deal's (16, 64): the depth-2 funnel of 928 edges stays the pick at
    # every depth past 2, and a depth of 10^9 is counted at once.
    want = gen_sc(tmp_path, capsys, 16, 64, 2)
    assert len(json.loads(want)["edges"]) == 928
    for depth in (3, 4, 7, 10**9):
        assert gen_sc(tmp_path, capsys, 16, 64, depth) == want


def test_build_sc_table_on_a_grid():
    # Built depth stays within max_depth, more depth never adds an edge, and
    # more depth that saves no edge builds the same graph: ties go to the
    # lower depth.
    eps = 0.5
    for n in (3, 5, 8):
        for m in (n, 4 * n, 10 * n, 20 * n, math.ceil(n**2.5)):
            nets = {d: build_sc(n, m, d, eps, rng_seed=1, budget=50) for d in range(1, 7)}
            for d, net in nets.items():
                assert net.depth <= d, (n, m, d)
                if d > 1:
                    assert len(net.edges) <= len(nets[d - 1].edges), (n, m, d)
                    if len(net.edges) == len(nets[d - 1].edges):
                        assert net == nets[d - 1], (n, m, d)


def rows_within(n, m, depth, epsilon=0.5):
    """Every row of build_sc's table onto (n, m) within `depth`, counted
    apart from `_fewest_wires`: K_{n,m}, the union for n > 4, and the
    funnel of each such row onto the middle layer at one depth less."""
    rows = [_complete_row(n, m)]
    if n > 4 and depth >= 2:
        rows.append(_union_row(n, m))
    mid = _middle(n, m, epsilon)
    if depth >= 2 and mid < m:
        rows += [_funnel_row(inner, n, mid, m) for inner in rows_within(n, mid, depth - 1)]
    return rows


# (n, m, max_depth) for the choice's tests; None is --depth auto.
CHOICE_GRID = [(5, 10, 2), (8, 32, 3), (8, 32, 4), (16, 64, None), (8, 182, 2),
               (16, 1024, 2), (32, 512, 3), (12, 64, 2), (15, 523, 3)]


@pytest.mark.parametrize("n, m, depth", CHOICE_GRID)
def test_build_sc_builds_the_row_with_the_fewest_edges(monkeypatch, n, m, depth):
    # Every row is counted without drawing it: each count is the edge count
    # and each depth the depth of the graph that row draws, and build_sc
    # draws the least row, K_{n,m} among them. A draw's edge count does not
    # depend on its verdict, so every draw is taken as proved here.
    monkeypatch.setattr(concentrator, "_hall_search",
                        lambda net, k, budget: VerificationReport("c", "proved", 1))
    depth = depth or recommended_depth(m, n)
    rows = rows_within(n, m, depth)
    assert len(rows) >= 3 and rows[0][:3] == (n * m, 1, "complete")
    for edges, row_depth, name, build in rows:
        net = build(1, 50)
        assert (len(net.edges), net.depth) == (edges, row_depth) and row_depth <= depth, name
    chosen = _fewest_wires(n, m, depth, 0.5)
    # The first of the least (edges, depth) in the table's order
    assert chosen[:3] == min(rows, key=lambda row: row[:2])[:3]
    assert sc_row(n, m, depth, 0.5) == chosen[2]
    assert all(chosen[0] <= edges for edges, *_ in rows)
    assert len(build_sc(n, m, depth, 0.5, 1, 50).edges) == chosen[0]


@pytest.mark.parametrize("n, m", [(5, 10), (5, 12), (6, 12), (5, 16)])
def test_every_row_the_choice_can_return_is_a_superconcentrator(n, m):
    # The choice skips the linear-size preconditions, so each row must be a
    # superconcentrator wherever it can be chosen: the union, the funnel of
    # K_{n,mid}, and the funnels of each depth-2 row, proved exhaustively by
    # their precondition-free row builders.
    rows = rows_within(n, m, 3)
    assert [name for _, _, name, _ in rows] == ["complete", "union"] + ["funnel"] * 3
    for seed in (0, 1):
        for _, _, name, build in rows[1:]:
            assert verify_superconcentrator(build(seed, 200)).verdict == "proved", (name, seed)


def test_each_step_of_the_gen_sc_graph_is_built_as_one_network(monkeypatch):
    # Every Network sorts itself once, when it is built. Deal's gen-sc graph
    # takes K_{16,26}, one draw of its bottom concentrator and the funnel:
    # 3. Its edges keep their build order, which a graph file does not show
    # (it sorts them) but the path matrix's weights follow.
    built = []

    def counting(net):
        built.append(net)
        return order(net)

    order = network.topological_order
    monkeypatch.setattr(network, "topological_order", counting)
    net = build_sc(16, 64, 4, 0.5, 1, 100)
    assert len(built) == 3 and built[-1] is net
    assert (hashlib.sha256(json.dumps(net.edges).encode()).hexdigest()
            == "697ced22a23d89c5c5c973390c765cfa44e9e63129c34c22013ed41b0b16493b")


def test_a_power_that_overflows_fails_the_precondition():
    # m >= n^(2+eps) and its kin are compared in floats; at eps = 1e300 the
    # power overflows, which reads as a precondition that fails, and each
    # builder refuses. build_sc reads no precondition: its middle layer
    # (m/n)^(1/(1+eps)) is 1.0 there, so no funnel shrinks and K_{n,m} wins.
    huge = 1e300
    for depth in (1, 2, 4, 9):
        assert build_sc(5, 6, depth, huge, rng_seed=1) == complete_bipartite(5, 6)
        assert sc_row(16, 64, depth, huge) == "complete"
    for build in (lambda: build_sc_depth2_linear(5, 10**6, huge),
                  lambda: build_sc_depth3_linear(5, 10**6, huge),
                  lambda: build_sc_general(5, 10**6, 3, huge)):
        with pytest.raises(PreconditionViolation):
            build()


# sha256 over the serialized graphs at seeds 0-2, budget 200, for each row of
# build_sc's table, for each public builder and for gen-concentrator: a
# refactor of the builders must leave every one of these bytes as it is.
BUILDER_CASES = {
    "complete-bipartite": lambda seed: build_sc(3, 7, 1, 0.5, seed, 200),
    "funnel": lambda seed: build_sc(12, 64, 2, 0.5, seed, 200),
    "depth2-linear": lambda seed: build_sc_depth2_linear(5, 56, 0.5, seed, 200),
    "depth3-linear": lambda seed: build_sc_depth3_linear(5, 50, 0.5, seed, 200),
    "depth3-linear-at-n-cubed": lambda seed: build_sc_depth3_linear(5, 125, 1.5, seed, 200),
    "recursion": lambda seed: build_sc_general(8, 32, 3, 0.5, seed, 200),
    "depth2-union": lambda seed: build_sc_depth2(8, 8, seed, 200),
    "partial-depth2": lambda seed: build_partial_sc_depth2(9, 9, 1.5, seed, 200),
}
BUILDER_DIGESTS = {
    "complete-bipartite": "4fcd68a2eca51dbb19553f4b4100dcba9b6d61d4cd19a0ef748969f45a255d38",
    "funnel": "46296ec02546b5b08faea68d756f3a15302cd72821076da65107b583910781fa",
    "depth2-linear": "339e009d0078d018cf75d152f478b352be0ca3fc787168e37c2d702e98ec1746",
    "depth3-linear": "d0c4c930eb88d3b3ec697cdb3c27f15d7421c855afb7009eb98006fc3c4502ca",
    "depth3-linear-at-n-cubed": "eb3973a9be73a36e27fb7deb7b4d7893970ba6a33062b7ca4db5a2101ffe78a7",
    "recursion": "82be034ec7a8c44366f3126c7c832e92a17cca4fe107de9cf825c603e47cee76",
    "depth2-union": "bdf22d8a84564b357d7fd8fc4d4c729e24571126ade0a5cd03ee402f0ca62f9f",
    "partial-depth2": "4b4e02444e5addf7f8ed5b8ee5b75769f95b242f427aa8eb6590574ab15c69ee",
    "gen-concentrator": "2a8b81303ae13173c5bba36f3f639719a801d44021393dbad6c9c1f7174c798f",
}


@pytest.mark.parametrize("case", sorted(BUILDER_DIGESTS))
def test_every_builder_is_pinned(tmp_path, capsys, case):
    digest = hashlib.sha256()
    for seed in range(3):
        if case == "gen-concentrator":
            out = tmp_path / f"conc-{seed}.json"
            assert main(["gen-concentrator", "--m", "12", "--n", "8", "--k", "4",
                         "--seed", str(seed), "--budget", "200", "--out", str(out)]) == 0
            capsys.readouterr()
            digest.update(out.read_bytes())
        else:
            digest.update(json.dumps(network_to_dict(BUILDER_CASES[case](seed))).encode())
    assert digest.hexdigest() == BUILDER_DIGESTS[case]
