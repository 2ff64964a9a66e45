import hashlib
import json
import math

import pytest

from sharecircuit.cli import main
from sharecircuit import network
from sharecircuit.errors import InvalidArguments, PreconditionViolation
from sharecircuit.network import (
    network_to_dict,
    verify_partial_sc,
    verify_superconcentrator,
)
from sharecircuit.superconcentrator import (
    build_partial_sc_depth2,
    build_sc,
    build_sc_depth2,
    build_sc_depth2_linear,
    build_sc_depth3_linear,
    build_sc_general,
    partial_sc_guarantee,
    recommended_depth,
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
def test_auto_builds_the_depth2_graph_when_m_is_at_least_n_to_the_2_5(tmp_path, capsys, n, m):
    # The abstract's depth-2 regime: auto must not build deeper or larger.
    assert gen_sc(tmp_path, capsys, n, m, "auto") == gen_sc(tmp_path, capsys, n, m, 2)


def test_depths_past_the_first_recursion_build_its_graph(tmp_path, capsys):
    # lambda_3(8) = 2 < lambda_4(8) = 3: the depth-4 recursion stays the pick.
    want = gen_sc(tmp_path, capsys, 8, 32, 4)
    assert len(json.loads(want)["edges"]) == 760
    for depth in (5, 6, 7):
        assert gen_sc(tmp_path, capsys, 8, 32, depth) == want


def test_build_sc_table_on_a_grid():
    # Built depth stays within max_depth, and more depth never changes a
    # graph that a linear row (2: m >= n^(2+eps), 3: m >= n*log2(n)^(2+eps))
    # already built.
    eps = 0.5
    for n in (3, 5, 8):
        for m in (n, 4 * n, 10 * n, 20 * n, math.ceil(n**2.5)):
            nets = {d: build_sc(n, m, d, eps, rng_seed=1, budget=50)
                    for d in range(1 if n <= 4 else 2, 7)}
            for d, net in nets.items():
                assert net.depth <= d, (n, m, d)
            if n > 4 and m >= n ** (2 + eps):
                assert all(net == nets[2] for net in nets.values()), (n, m)
            elif n > 4 and m >= n * math.log2(n) ** (2 + eps):
                assert all(nets[d] == nets[3] for d in range(3, 7)), (n, m)


def test_each_step_of_the_gen_sc_graph_is_built_as_one_network(monkeypatch):
    # Every Network sorts itself once, when it is built. The pipeline's
    # gen-sc graph takes 7 concentrator draws (one a retry), 4 funnels, 1
    # bipartite block and the union: 13. Its edges keep their build order,
    # which a graph file does not show (it sorts them) but the path
    # matrix's weights follow.
    built = []

    def counting(net):
        built.append(net)
        return order(net)

    order = network.topological_order
    monkeypatch.setattr(network, "topological_order", counting)
    net = build_sc(8, 32, 4, 0.5, 1, 200)
    assert len(built) == 13 and built[-1] is net
    assert (hashlib.sha256(json.dumps(net.edges).encode()).hexdigest()
            == "3a27d1479bf4cd85f2c37a6511b18fee6596359ddb4654f767eca607325c5d64")


def test_a_power_that_overflows_fails_the_precondition():
    # m >= n^(2+eps) and its kin are compared in floats; at eps = 1e300 the
    # power overflows, which reads as a precondition that fails, so build_sc
    # falls through to the depth-2 union, and each builder refuses.
    huge = 1e300
    for depth in (2, 4, 9):
        assert build_sc(5, 6, depth, huge, rng_seed=1) == build_sc_depth2(5, 6, 1)
    for build in (lambda: build_sc_depth2_linear(5, 10**6, huge),
                  lambda: build_sc_depth3_linear(5, 10**6, huge),
                  lambda: build_sc_general(5, 10**6, 3, huge)):
        with pytest.raises(PreconditionViolation):
            build()


# sha256 over the serialized graphs at seeds 0-2, budget 200, for each row of
# build_sc's table, for build_partial_sc_depth2 and for gen-concentrator: a
# refactor of the builders must leave every one of these bytes as it is.
BUILDER_CASES = {
    "complete-bipartite": lambda seed: build_sc(3, 7, 1, 0.5, seed, 200),
    "depth2-linear": lambda seed: build_sc(5, 56, 2, 0.5, seed, 200),
    "depth3-linear": lambda seed: build_sc(5, 50, 3, 0.5, seed, 200),
    "depth3-linear-at-n-cubed": lambda seed: build_sc(5, 125, 3, 1.5, seed, 200),
    "recursion": lambda seed: build_sc(8, 32, 4, 0.5, seed, 200),
    "depth2-union": lambda seed: build_sc(8, 8, 2, 0.5, seed, 200),
    "partial-depth2": lambda seed: build_partial_sc_depth2(9, 9, 1.5, seed, 200),
}
BUILDER_DIGESTS = {
    "complete-bipartite": "4fcd68a2eca51dbb19553f4b4100dcba9b6d61d4cd19a0ef748969f45a255d38",
    "depth2-linear": "339e009d0078d018cf75d152f478b352be0ca3fc787168e37c2d702e98ec1746",
    "depth3-linear": "d0c4c930eb88d3b3ec697cdb3c27f15d7421c855afb7009eb98006fc3c4502ca",
    "depth3-linear-at-n-cubed": "eb3973a9be73a36e27fb7deb7b4d7893970ba6a33062b7ca4db5a2101ffe78a7",
    "recursion": "4530d12139e4c8baad54d57c243cc8913832b3fb0fbd39e52d0989be509447fe",
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
