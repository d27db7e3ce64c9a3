import random
import tracemalloc

import pytest

from klcograph import (
    BudgetExceededError,
    Graph,
    OracleBudget,
    PartitionSequence,
    box_cograph_dimension,
    build_cotree,
    complement,
    conjugate,
    disjoint_union,
    evaluate_cotree,
    is_kl_colourable,
    is_kl_colourable_exhaustive,
    kappa_at,
    kappa_hat,
    kappa_hat_oracle,
    oracle,
    random_cotree,
)
from klcograph.cli import main

from helpers import (
    EXAMPLE_7,
    complete_graph,
    cycle_graph,
    empty_graph,
    l_copies_of_k_clique,
    path_graph,
    random_graph,
)


def test_chromatic_number_small_cases():
    # chi is entry 0 of the kappa sequence
    assert kappa_at(kappa_hat_oracle(empty_graph(4)), 0) == 1
    assert kappa_at(kappa_hat_oracle(complete_graph(5)), 0) == 5
    assert kappa_at(kappa_hat_oracle(cycle_graph(5)), 0) == 3
    assert kappa_at(kappa_hat_oracle(cycle_graph(6)), 0) == 2
    assert kappa_at(kappa_hat_oracle(path_graph(4)), 0) == 2


def test_kappa_oracle_worked_example():
    assert kappa_hat_oracle(EXAMPLE_7) == (3, 3, 1)
    assert kappa_hat_oracle(complement(EXAMPLE_7)) == (3, 2, 2)


def test_kappa_sum_differs_from_n_outside_cographs():
    assert kappa_hat_oracle(path_graph(4)) == (2, 1)
    assert kappa_hat_oracle(cycle_graph(5)) == (3, 2, 1)


def test_oracle_matches_cotree_calculus_on_cographs():
    rng = random.Random(20)
    for _ in range(60):
        t = random_cotree(rng.randint(1, 10), rng)
        g = evaluate_cotree(t)
        assert kappa_hat_oracle(g) == kappa_hat(t)


def test_conjugacy_on_random_general_graphs():
    rng = random.Random(21)
    for _ in range(60):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        assert conjugate(kappa_hat_oracle(g)) == kappa_hat_oracle(complement(g))


def test_lambda_oracle_matches_exhaustive_partition_search():
    # entry k is the least l with a (k,l)-colouring; just past the end it is 0
    rng = random.Random(26)
    for _ in range(60):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        seq = kappa_hat_oracle(complement(g))
        for k in range(len(seq) + 1):
            least = next(l for l in range(g.n + 1) if is_kl_colourable_exhaustive(g, k, l))
            assert least == kappa_at(seq, k)


def _brute_maximal_cliques(adj, mask):
    """Every subset of ``mask`` through its lowest vertex that is a clique
    of the masks ``adj`` and has no common neighbour left in ``mask``."""
    low = mask & -mask
    others = mask & ~low
    rest = [1 << v for v in range(others.bit_length()) if others >> v & 1]
    found = []
    for pick in range(1 << len(rest)):
        s = low | sum(bit for i, bit in enumerate(rest) if pick >> i & 1)
        members = [v for v in range(s.bit_length()) if s >> v & 1]
        if all(s & ~(1 << v) & ~adj[v] == 0 for v in members):
            common = mask & ~s
            for v in members:
                common &= adj[v]
            if common == 0:
                found.append(s)
    return found


def test_maximal_cliques_match_brute_force():
    # every mask of each graph, and of its complement: the cliques and the
    # independent sets that the engine branches on
    rng = random.Random(27)
    graphs = [random_graph(rng.randint(1, 8), rng.random(), rng) for _ in range(24)]
    graphs += [empty_graph(8), complete_graph(8), cycle_graph(7)]
    for g in graphs:
        eng = oracle._engine(g, oracle.DEFAULT_BUDGET)
        for side in (eng.adj, eng.co):
            for mask in range(1, 1 << g.n):
                got = oracle._maximal_cliques(side, mask)
                assert len(set(got)) == len(got), (list(g.edges()), mask)
                assert sorted(got) == sorted(_brute_maximal_cliques(side, mask)), (list(g.edges()), mask)


def test_small_masks_are_never_enumerated(monkeypatch):
    # a mask of at most three vertices is read off its edge count
    rng = random.Random(31)
    graphs = [random_graph(n, p, rng) for n in range(4, 13) for p in (0.25, 0.5, 0.75)]
    want = [(kappa_hat_oracle(g), box_cograph_dimension(g)) for g in graphs]
    enumerate_cliques = oracle._maximal_cliques
    sizes = []

    def counted(adj, mask):
        sizes.append(mask.bit_count())
        return enumerate_cliques(adj, mask)

    monkeypatch.setattr(oracle, "_maximal_cliques", counted)
    assert [(kappa_hat_oracle(g), box_cograph_dimension(g)) for g in graphs] == want
    assert sizes and min(sizes) >= 4


def test_maximal_cliques_on_a_complete_multipartite_graph():
    # K_{3,3,3,3}, beyond the brute-force sweep: a clique through vertex 0
    # takes one vertex from each other part, and its independent set is its part
    g = Graph.from_edges(12, [(u, v) for u in range(12) for v in range(u + 1, 12) if u // 3 != v // 3])
    eng = oracle._engine(g, oracle.DEFAULT_BUDGET)
    full = (1 << 12) - 1
    cliques = oracle._maximal_cliques(eng.adj, full)
    assert len(set(cliques)) == len(cliques) == 27
    assert sorted(cliques) == sorted(_brute_maximal_cliques(eng.adj, full))
    assert oracle._maximal_cliques(eng.co, full) == [0b111]
    assert kappa_hat_oracle(g) == kappa_hat(build_cotree(g)) == (4, 4, 4)
    assert box_cograph_dimension(g) == (4, 3)


def test_oracle_at_the_sizes_the_cli_serves():
    # the CLI runs the oracle up to its default budget of 12 vertices
    rng = random.Random(28)
    densities = [i / 10 for i in range(1, 10)]
    for n in range(9, 13):
        for p in densities + densities:
            g = random_graph(n, p, rng)
            assert conjugate(kappa_hat_oracle(g)) == kappa_hat_oracle(complement(g))
    # and the second route at its limit of 8 vertices: entry k is the least l
    for p in densities:
        g = random_graph(8, p, rng)
        seq = kappa_hat_oracle(complement(g))
        for k in range(len(seq) + 1):
            least = kappa_at(seq, k)
            assert is_kl_colourable_exhaustive(g, k, least)
            assert least == 0 or not is_kl_colourable_exhaustive(g, k, least - 1)


# kappa_hat_oracle of G(n, p) and of its complement, n = 9..12, drawn in this
# order from random.Random(29) with the densities below, each n in turn
_PINNED_AT_CLI_SIZES = [
    ((2, 2, 1, 1, 1, 1, 1), (7, 2)),
    ((3, 2, 2, 1), (4, 3, 1)),
    ((4, 2, 1, 1), (4, 2, 1, 1)),
    ((3, 3, 2), (3, 3, 2)),
    ((4, 2, 1, 1), (4, 2, 1, 1)),
    ((5, 2, 1), (3, 2, 1, 1, 1)),
    ((3, 2, 2, 1, 1), (5, 3, 1)),
    ((4, 2, 2, 1), (4, 3, 1, 1)),
    ((4, 2, 2, 1, 1), (5, 3, 1, 1)),
    ((4, 3, 1, 1), (4, 2, 2, 1)),
    ((4, 3, 1, 1), (4, 2, 2, 1)),
    ((7, 2, 1), (3, 2, 1, 1, 1, 1, 1)),
    ((3, 2, 2, 1, 1, 1, 1), (7, 3, 1)),
    ((4, 3, 1, 1, 1), (5, 2, 2, 1)),
    ((4, 3, 2, 1), (4, 3, 2, 1)),
    ((4, 3, 2, 1, 1), (5, 3, 2, 1)),
    ((4, 3, 1, 1, 1), (5, 2, 2, 1)),
    ((6, 4, 1), (3, 2, 2, 2, 1, 1)),
    ((3, 2, 2, 1, 1, 1), (6, 3, 1)),
    ((4, 3, 2, 1, 1, 1), (6, 3, 2, 1)),
    ((4, 3, 2, 1), (4, 3, 2, 1)),
    ((4, 3, 2, 1, 1), (5, 3, 2, 1)),
    ((5, 3, 2, 1), (4, 3, 2, 1, 1)),
    ((5, 4, 2), (3, 3, 2, 2, 1)),
]


def test_oracle_pinned_on_non_cographs_at_the_cli_sizes():
    # conjugacy alone would keep a fault that both engines share
    rng = random.Random(29)
    graphs = [
        random_graph(n, p, rng)
        for n in range(9, 13)
        for p in (0.25, 0.35, 0.45, 0.55, 0.65, 0.75)
    ]
    got = [(kappa_hat_oracle(g), kappa_hat_oracle(complement(g))) for g in graphs]
    assert got == _PINNED_AT_CLI_SIZES


def test_kappa_oracle_matches_exhaustive_partition_search():
    # entry l is the least k with a (k,l)-colouring; past the end it is 0
    rng = random.Random(30)
    for n in range(1, 9):
        for p in (0.2, 0.35, 0.5, 0.65, 0.8):
            g = random_graph(n, p, rng)
            seq = kappa_hat_oracle(g)
            for l in range(n + 1):
                least = next(k for k in range(n + 1) if is_kl_colourable_exhaustive(g, k, l))
                assert least == kappa_at(seq, l), (list(g.edges()), l)


def test_colourability_routes_agree():
    rng = random.Random(22)
    for _ in range(60):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        seq = kappa_hat_oracle(g)
        for k in range(4):
            for l in range(4):
                assert is_kl_colourable(seq, k, l) == is_kl_colourable_exhaustive(g, k, l)


def test_kappa_oracle_monotone_in_l():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng.randint(1, 8), 0.5, rng)
        seq = kappa_hat_oracle(g)
        values = [kappa_at(seq, l) for l in range(g.n + 1)]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 0


def test_budget_enforced():
    with pytest.raises(ValueError, match="max_vertices must be at least 1"):
        OracleBudget(max_vertices=0)
    with pytest.raises(BudgetExceededError):
        kappa_hat_oracle(empty_graph(13), OracleBudget(max_vertices=12))
    with pytest.raises(BudgetExceededError):
        is_kl_colourable_exhaustive(empty_graph(9), 1, 1)
    # raising the budget lifts the limit, and the sparse extremes stay cheap
    budget = OracleBudget(max_vertices=13)
    seq = kappa_hat_oracle(empty_graph(13), budget)
    assert kappa_at(seq, 0) == 1
    assert seq == PartitionSequence.constant(1, 13)
    lam = kappa_hat_oracle(complement(complete_graph(13)), budget)
    assert lam == PartitionSequence.constant(1, 13)


def test_exhaustive_search_allocates_at_most_n_parts():
    # at most n parts are non-empty, so a huge k or l needs no more slots
    g = cycle_graph(5)
    tracemalloc.start()
    try:
        assert is_kl_colourable_exhaustive(g, 10**7, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert is_kl_colourable_exhaustive(g, 10**7, 0)
    assert not is_kl_colourable_exhaustive(g, 2, 0)
    assert is_kl_colourable_exhaustive(g, 0, 10**7)


def test_negative_parameters_raise_value_error():
    g = cycle_graph(5)
    seq = kappa_hat_oracle(g)
    for call in (
        lambda: is_kl_colourable(seq, 1, -1),
        lambda: is_kl_colourable(seq, -1, 1),
        lambda: is_kl_colourable_exhaustive(g, -1, 3),
        lambda: is_kl_colourable_exhaustive(g, 3, -1),
    ):
        with pytest.raises(ValueError, match="k and l must be natural numbers"):
            call()


def test_clique_enumeration_limit(monkeypatch, capsys, tmp_path):
    # the octahedron K_{2,2,2} has four maximal cliques through vertex 0
    monkeypatch.setattr(oracle, "_MAX_CLIQUES_ENUMERATED", 3)
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if u // 2 != v // 2]
    g = Graph.from_edges(6, edges)
    with pytest.raises(BudgetExceededError, match="maximal clique enumeration limit hit"):
        kappa_hat_oracle(g)
    p = tmp_path / "octahedron.txt"
    p.write_text("6\n" + "".join(f"{u} {v}\n" for u, v in edges))
    assert main(["kappa", str(p), "--oracle"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "maximal clique enumeration limit hit" in err


def test_box_cograph_base_and_closure():
    assert box_cograph_dimension(complete_graph(1)) == (1, 1)
    assert box_cograph_dimension(complete_graph(4)) == (4, 1)
    assert box_cograph_dimension(empty_graph(4)) == (1, 4)
    assert box_cograph_dimension(l_copies_of_k_clique(2, 3)) == (3, 2)
    assert box_cograph_dimension(cycle_graph(4)) == (2, 2)


def test_box_cograph_non_members():
    assert box_cograph_dimension(path_graph(4)) is None  # not even a cograph
    assert box_cograph_dimension(path_graph(3)) is None
    assert box_cograph_dimension(empty_graph(0)) is None  # no vertex, no box
    # K2 union K1: union parts have different chromatic numbers
    assert box_cograph_dimension(disjoint_union(complete_graph(2), complete_graph(1))) is None


def test_box_cograph_unions_of_three_or_more_components():
    # a union is a member iff every component is one, all with one chi
    for k in range(1, 13):
        for l in range(1, 12 // k + 1):
            assert box_cograph_dimension(l_copies_of_k_clique(l, k)) == (k, l)
    c4 = cycle_graph(4)
    members = disjoint_union(disjoint_union(c4, complete_graph(2)), c4)
    assert box_cograph_dimension(members) == (2, 5)
    for g in (
        disjoint_union(l_copies_of_k_clique(5, 2), complete_graph(1)),  # chi 2, 2, ..., 1
        disjoint_union(l_copies_of_k_clique(2, 2), path_graph(3)),  # P3 is no member
    ):
        assert box_cograph_dimension(g) is None
        assert box_cograph_dimension(complement(g)) is None


def test_box_cograph_closed_under_complement():
    rng = random.Random(24)
    for _ in range(40):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        dim = box_cograph_dimension(g)
        cdim = box_cograph_dimension(complement(g))
        if dim is None:
            assert cdim is None
        else:
            assert cdim == (dim[1], dim[0])


def test_box_cograph_dimension_is_chi_theta():
    g = l_copies_of_k_clique(3, 2)
    assert box_cograph_dimension(g) == (2, 3)
    assert box_cograph_dimension(g) != (3, 2)


def test_box_cograph_members_have_constant_kappa():
    rng = random.Random(25)
    for _ in range(60):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        dim = box_cograph_dimension(g)
        if dim is not None:
            k, l = dim
            assert kappa_hat_oracle(g) == (k,) * l
