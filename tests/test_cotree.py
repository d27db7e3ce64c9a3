import json
import math
import pickle
import random

import pytest

from klcograph import (
    Cotree,
    CotreeNode,
    Graph,
    P4Witness,
    build_cotree,
    build_ferrers,
    check_cotree,
    complement_cotree,
    cotree_from_json,
    cotree_from_text,
    cotree_to_json,
    cotree_to_text,
    complement,
    deep_alternating_cotree,
    evaluate_cotree,
    induced_subgraph,
    kappa_hat,
    kappa_hat_naive,
    lambda_hat,
    parse_edge_list,
    random_cotree,
    validate_ferrers_against_cotree,
)
from klcograph import cotree
from klcograph.cotree import _components

from helpers import (
    _doubling_ratio,
    build_cotree_reference,
    complete_graph,
    cycle_graph,
    empty_graph,
    flip_pair,
    has_induced_p4,
    has_induced_p4_through,
    l_copies_of_k_clique,
    nonisomorphic_graphs,
    path_graph,
    postorder,
    random_cotree_reference,
    random_graph,
    subcotree,
)


def test_single_vertex():
    t = build_cotree(empty_graph(1))
    assert isinstance(t, Cotree)
    assert cotree_to_text(t) == "0"


def test_complete_graph_is_one_join():
    t = build_cotree(complete_graph(4))
    assert cotree_to_text(t) == "1(0,1,2,3)"


def test_empty_graph_is_one_union():
    t = build_cotree(empty_graph(3))
    assert cotree_to_text(t) == "0(0,1,2)"


def test_canonical_child_order_by_size_then_min_vertex():
    # K2 union K1 union K1: singletons first, then the pair
    g = build_cotree(
        evaluate_cotree(cotree_from_text("0(1(2,3),0,1)"))
    )
    assert cotree_to_text(g) == "0(0,1,1(2,3))"


def test_p4_detected_with_valid_witness():
    w = build_cotree(path_graph(4))
    assert isinstance(w, P4Witness)
    assert w.holds_in(path_graph(4))
    assert w.vertices() == (0, 1, 2, 3)
    assert not P4Witness(0, 1, 2, 0).holds_in(path_graph(4))  # a repeated vertex


def test_build_cotree_finds_a_p4_on_cycles():
    for n in (5, 6, 7):
        g = cycle_graph(n)
        w = build_cotree(g)
        assert isinstance(w, P4Witness) and w.holds_in(g)


def test_build_cotree_on_cographs_and_the_empty_graph():
    for g in (empty_graph(1), complete_graph(5),
              evaluate_cotree(deep_alternating_cotree(60, 1))):
        assert isinstance(build_cotree(g), Cotree)
    with pytest.raises(ValueError, match="at least one vertex"):
        build_cotree(Graph.from_edges(0, []))


def test_witness_exactly_when_brute_force_finds_a_p4():
    rng = random.Random(11)
    with_p4 = 0
    for _ in range(400):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        out = build_cotree(g)
        if has_induced_p4(g):
            with_p4 += 1
            assert isinstance(out, P4Witness) and out.holds_in(g)
        else:
            assert isinstance(out, Cotree)
    assert 100 < with_p4 < 350


def _near_cograph(g, rng, kind):
    """Flip one pair u < v of the cograph g so that an induced P4 runs through it.

    As in the graph-query benchmark's generator, bit 0 of ``kind`` is the
    parity of n - 1 - v and bit 1 that of v - u; on the deep family these
    decide the labels that u and v hang from.  Flips without a P4 through
    the pair leave a cograph, which is checked on the way.
    """
    n = g.n
    gap = 2 - (kind >> 1)  # smallest v - u of the asked parity
    for _ in range(200):
        v = rng.randrange(gap + 1, n)
        v -= (n - 1 - v - kind) % 2
        u = v - gap - 2 * rng.randrange((v - gap) // 2 + 1)
        h = flip_pair(g, u, v)
        if has_induced_p4_through(h, u, v):
            return h, (u, v)
        assert isinstance(build_cotree(h), Cotree)
    raise AssertionError("no pair flip produced an induced P4")


@pytest.mark.parametrize("kind", range(4))
def test_near_cograph_witness_runs_through_the_flipped_pair(kind):
    # Any 4-set without both flipped vertices induces what it induced in the
    # cograph, so every P4 of a near-cograph contains both of them.
    rng = random.Random(100 + kind)
    for n in (40, 97, 200):
        bases = [
            deep_alternating_cotree(n, 0),
            deep_alternating_cotree(n, 1),
            random_cotree(n, rng, max_children=rng.choice((2, 4, 8, 16))),
        ]
        for base in bases:
            g, (u, v) = _near_cograph(evaluate_cotree(base), rng, kind)
            assert (n - 1 - v) % 2 == kind & 1 and (v - u) % 2 == kind >> 1
            w = build_cotree(g)
            assert isinstance(w, P4Witness) and w.holds_in(g)
            assert {u, v} <= set(w.vertices())


def _base_cotree(kind, n, arg):
    seed = 1300 + n
    return deep_alternating_cotree(n, arg) if kind == "deep" else random_cotree(n, seed, arg)


def test_recognition_output_is_pinned():
    # A cograph's canonical cotree is unique; which P4 a near-cograph
    # reports is the decomposition's choice.
    for (kind, n, arg), text in (
        (("deep", 21, 0), "0(20,1(19,0(18,1(17,0(16,1(15,0(14,1(13,0(12,1(11,0(10,1(9,0(8,"
         "1(7,0(6,1(5,0(4,1(3,0(2,1(0,1))))))))))))))))))))"),
        (("deep", 40, 1), "1(39,0(38,1(37,0(36,1(35,0(34,1(33,0(32,1(31,0(30,1(29,0(28,"
         "1(27,0(26,1(25,0(24,1(23,0(22,1(21,0(20,1(19,0(18,1(17,0(16,1(15,0(14,1(13,"
         "0(12,1(11,0(10,1(9,0(8,1(7,0(6,1(5,0(4,1(3,0(2,1(0,1)))))))))))))))))))))))))))"
         "))))))))))))"),
        (("random", 32, 4), "0(1(4,5,0(0,1(3,0(1,2)))),1(6,0(12,1(10,11),1(7,8,9))),1(13,"
         "0(1(16,0(14,15),0(17,20,21,1(18,19))),1(0(22,23,24),0(27,1(25,26),1(31,"
         "0(28,29,30)))))))"),
        (("random", 48, 8), "1(0(1(10,11,12,13),1(8,9,0(0,1,6,7,1(2,3),1(4,5)))),0(14,17,"
         "29,1(15,16),1(0(27,28),0(18,24,1(22,23),1(25,26),1(19,20,21)))),0(47,"
         "1(0(30,31),0(32,33)),1(0(44,45,46),0(40,43,1(41,42)),0(1(34,35),"
         "1(36,37,38,39)))))"),
    ):
        g = evaluate_cotree(_base_cotree(kind, n, arg))
        assert cotree_to_text(build_cotree(g)) == text
    for (kind, n, arg, flip), pair, p4 in (
        (("deep", 24, 0, 0), (1, 17), (0, 2, 1, 17)),
        (("deep", 37, 1, 1), (5, 25), (0, 6, 5, 25)),
        (("random", 45, 4, 2), (1, 8), (1, 5, 0, 8)),
        (("random", 60, 16, 3), (11, 52), (5, 11, 52, 45)),
    ):
        g, flipped = _near_cograph(
            evaluate_cotree(_base_cotree(kind, n, arg)), random.Random(1300 + n), flip
        )
        assert flipped == pair
        assert build_cotree(g).vertices() == p4


def _lists_or_p4(out):
    return out.vertices() if isinstance(out, P4Witness) else (out.codes, out.counts, out.bigs)


def test_build_cotree_matches_the_one_search_per_set_reference():
    # Every part that the degree buckets give is one the reference's search
    # finds, so the lists, and the P4 of a prime set, are the same.
    rng = random.Random(33)
    graphs = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
    graphs += [random_graph(n, rng.random(), rng) for n in range(9, 61)]
    for n in (2, 3, 7, 30, 64, 150, 300):
        bases = [random_cotree(n, rng, max_children) for max_children in (2, 3, 5, 16)]
        bases += [deep_alternating_cotree(n, top) for top in (0, 1)]
        for base in bases:
            perm = list(range(n))
            rng.shuffle(perm)
            edges = evaluate_cotree(base).edges()
            g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
            graphs.append(g)
            for flips in range(1, 4):
                h = g
                for _ in range(flips):
                    h = flip_pair(h, *rng.sample(range(n), 2))
                graphs.append(h)
    graphs += [Graph(g.n, tuple(set(a) for a in g.adj)) for g in graphs[::5]]
    cographs = 0
    for g in graphs:
        out = _lists_or_p4(build_cotree(g))
        assert out == _lists_or_p4(build_cotree_reference(g)), list(g.edges())
        cographs += isinstance(out[0], list)
    assert (len(graphs), cographs) == (514, 235)


def test_degree_buckets_leave_few_component_searches(monkeypatch):
    # A vertex isolated or universal in its set is a part of its own, and one
    # of the other kind proves the rest one part, so the deep family, and
    # edgeless and complete graphs, are split with no search at all.
    calls = []

    def counted(g, vertices, co=0):
        calls.append(len(vertices))
        return _components(g, vertices, co)

    deep = [deep_alternating_cotree(n, top) for n in (2, 3, 64, 512) for top in (0, 1)]
    graphs = [evaluate_cotree(t) for t in deep] + [empty_graph(50), complete_graph(50)]
    graphs.append(complement(l_copies_of_k_clique(3, 2)))  # K_{2,2,2}
    graphs += [evaluate_cotree(random_cotree(200, seed)) for seed in (0, 1, 2)]
    wants = [_lists_or_p4(build_cotree(g)) for g in graphs]
    monkeypatch.setattr(cotree, "_components", counted)
    searches = []
    for g, want in zip(graphs, wants):
        calls.clear()
        assert _lists_or_p4(build_cotree(g)) == want
        searches.append(len(calls))
    # K_{2,2,2}: two searches at its root, the first finding it connected,
    # and each co-component is a pair of isolated vertices.  The random
    # cotrees split the rest of their 127, 133 and 134 internal nodes off
    # degree buckets.
    assert searches == [0] * 10 + [2, 37, 42, 43]


def _reference_components(g, s):
    """Components of G[s] by merging the parts at the ends of each edge."""
    part = {v: frozenset([v]) for v in s}
    for u in s:
        for v in g.adj[u] & s:
            if part[u] is not part[v]:
                merged = part[u] | part[v]
                for w in merged:
                    part[w] = merged
    return set(part.values())


def test_one_search_finds_components_of_a_graph_and_its_complement():
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(1, 12)
        g = random_graph(n, rng.random(), rng)
        co = complement(g)
        s = {v for v in range(n) if rng.random() < 0.8}
        parts, co_parts = ({frozenset(p) for p in _components(g, s, c)} for c in (0, 1))
        assert parts == _reference_components(g, s)
        assert co_parts == {frozenset(p) for p in _components(co, s)}
        assert co_parts == _reference_components(co, s)


def test_recognition_of_plain_set_adjacency_matches_frozensets():
    # Graph(...) accepts any sets as adjacency; the search calls set methods
    # on its own sets only, so a plain-set graph is recognized alike.
    rng = random.Random(14)
    graphs = [random_graph(rng.randint(1, 14), rng.random(), rng) for _ in range(100)]
    for n in (20, 41, 60):
        for base in (deep_alternating_cotree(n, n % 2), random_cotree(n, rng, 8)):
            g = evaluate_cotree(base)
            graphs += [g, _near_cograph(g, rng, rng.randrange(4))[0]]
    for g in graphs:
        plain = Graph(g.n, tuple(set(a) for a in g.adj))
        out, plain_out = build_cotree(g), build_cotree(plain)
        if isinstance(out, P4Witness):
            assert plain_out == out
        else:
            assert cotree_to_text(plain_out) == cotree_to_text(out)


def test_p4_free_random_graphs_round_trip():
    rng = random.Random(2)
    built_count = 0
    for _ in range(300):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        out = build_cotree(g)
        if isinstance(out, P4Witness):
            assert out.holds_in(g)
        else:
            check_cotree(out)
            assert evaluate_cotree(out) == g
            built_count += 1
    assert built_count > 20


def test_evaluate_build_round_trip_on_generated_cographs():
    rng = random.Random(3)
    for _ in range(100):
        t = random_cotree(rng.randint(1, 40), rng)
        g = evaluate_cotree(t)
        rebuilt = build_cotree(g)
        assert isinstance(rebuilt, Cotree)
        assert evaluate_cotree(rebuilt) == g


def test_round_trip_on_wide_and_deep_cographs():
    # Wide nodes and long paths make the component searches test the
    # vertices not yet reached against a whole frontier at once.
    rng = random.Random(12)
    trees = [
        random_cotree(rng.randint(50, 200), rng, max_children=rng.choice((4, 8, 16)))
        for _ in range(40)
    ]
    trees += [deep_alternating_cotree(n, top) for n in (150, 151) for top in (0, 1)]
    for t in trees:
        g = evaluate_cotree(t)
        rebuilt = build_cotree(g)
        assert isinstance(rebuilt, Cotree)
        assert evaluate_cotree(rebuilt) == g


def test_build_is_deterministic_canonical():
    rng = random.Random(4)
    for _ in range(30):
        t = random_cotree(rng.randint(2, 20), rng)
        g = evaluate_cotree(t)
        a = build_cotree(g)
        b = build_cotree(g)
        assert cotree_to_text(a) == cotree_to_text(b)


def test_cotree_alternation_invariant():
    rng = random.Random(5)
    for _ in range(30):
        g = evaluate_cotree(random_cotree(rng.randint(1, 25), rng))
        t = build_cotree(g)
        for node in postorder(t.root):
            for child in node.children:
                if child.children:
                    assert child.label != node.label


def test_complement_cotree_flips_graph():
    rng = random.Random(7)
    for _ in range(30):
        t = random_cotree(rng.randint(1, 20), rng)
        assert evaluate_cotree(complement_cotree(t)) == complement(
            evaluate_cotree(t)
        )


def test_text_and_json_round_trips():
    rng = random.Random(8)
    for _ in range(30):
        t = random_cotree(rng.randint(1, 20), rng)
        canon = build_cotree(evaluate_cotree(t))
        from_text = cotree_from_text(cotree_to_text(canon))
        from_json = cotree_from_json(cotree_to_json(canon))
        assert cotree_to_text(from_text) == cotree_to_text(canon)
        assert cotree_to_text(from_json) == cotree_to_text(canon)
        # every producer gives its leaves the one empty tuple, not a list each
        deep = deep_alternating_cotree(t.n)
        for tree in (t, deep, canon, from_text, from_json, complement_cotree(t)):
            assert all(x.children == () for x in postorder(tree.root) if not x.children)
    # named vertices: the text form carries ids, so it reads back the same graph
    for g in (
        Graph.from_edges(3, [(0, 1)], ["2", "0", "1"]),
        induced_subgraph(path_graph(6), {2, 3, 5}),
    ):
        t = build_cotree(g)
        back = evaluate_cotree(cotree_from_text(cotree_to_text(t)))
        assert sorted(back.edges()) == sorted(g.edges())
    # names that JSON must escape: the writer quotes them as json.dumps does
    names = ['say "hi"', "C:\\tmp", "two\nlines \u00e9\u4e2d"]
    t = build_cotree(Graph.from_edges(3, [(0, 1)], names))
    leaf = [{"vertex": v, "name": names[v]} for v in range(3)]
    expected = {"label": 0, "children": [leaf[2], {"label": 1, "children": leaf[:2]}]}
    assert cotree_to_json(t) == json.dumps(expected)
    # and the reader takes them back as the tree's labels
    assert cotree_to_json(cotree_from_json(cotree_to_json(t))) == cotree_to_json(t)
    for bad in (
        '{"label": 1}',
        "[1, 2]",
        "3",
        '{"label": 1, "children": 5}',
        '{"label": 1, "children": [{"vertex": 0}, 7]}',
        '{"label": "x", "children": [{"vertex": 0}, {"vertex": 1}]}',
        '{"label": 0, "children": [{"vertex": null}, {"vertex": 1}]}',
        '{"vertex": [0]}',
        "{",
        '{"label": 0, "children": [{"vertex": 0.9}, {"vertex": 1}]}',
        '{"label": true, "children": [{"vertex": 0}, {"vertex": 1}]}',
        '{"label": 1, "children": [{"vertex": 1e0}, {"vertex": 0}]}',
        '{"vertex": 0, "name": NaN}',
        '{"vertex": 0, "name": -Infinity}',
    ):
        with pytest.raises(ValueError):
            cotree_from_json(bad)
    # a leaf with children or a label is neither a leaf nor an internal node
    for bad in (
        '{"vertex": 0, "children": [1]}',
        '{"vertex": 0, "label": 1}',
        '{"label": 1, "children": [{"vertex": 0}, {"vertex": 1, "children": []}]}',
        '{"label": 1, "children": [{"vertex": 0, "label": 0}, {"vertex": 1}]}',
    ):
        with pytest.raises(ValueError, match="needs a vertex, or a label and a children list"):
            cotree_from_json(bad)


def test_json_round_trip_keeps_the_vertex_names():
    g = parse_edge_list("0 1\n1 2\n2 3\n3 0\n4 5\n")
    t = build_cotree(induced_subgraph(g, [1, 2, 4, 5]))
    back = cotree_from_json(cotree_to_json(t))
    assert back.labels == t.labels == ("1", "2", "4", "5")
    assert back == t and evaluate_cotree(back).labels == t.labels
    # labels take no part in equality, as for Graph
    assert Cotree._of(t.codes, t.counts, t.bigs, t.n) == t
    # the names become labels only when every leaf has a string name
    for leaves in (
        '{"vertex": 0}, {"vertex": 1, "name": "b"}',
        '{"vertex": 0, "name": "a"}, {"vertex": 1, "name": 7}',
    ):
        assert cotree_from_json('{"label": 0, "children": [%s]}' % leaves).labels is None
    both = '{"label": 0, "children": [{"vertex": 1, "name": "b"}, {"vertex": 0, "name": "a"}]}'
    assert cotree_from_json(both).labels == ("a", "b")
    # an unlabelled tree's names are its vertex numbers: it stays unlabelled
    assert cotree_from_json(cotree_to_json(random_cotree(5, 1))).labels is None


def test_json_reader_matches_json_loads():
    from klcograph.cotree import _json_loads

    for text in (
        '{"a": [], "b": {}, "c": [[], {"d": null}], "e": "x\\"\\u00e9\\n"}',
        ' [0, -1, 2.5, -3e-2, 1E+3, true, false, null, ""] ',
        "[[[[7]]]]",
        "{}",
        "12",
        "[1e5, 2E-3, -4.5e+2, 0e0, -0, -0.0, 1.5E10]",
        r'["\\", "\/", "\b\f\n\r\t", "\ud83d\ude00", "\u0000"]',
        '{"": [[], {}, [{}], {"x": []}]}',
        "[[], [[]], {}, [{}]]",
    ):
        assert _json_loads(text) == json.loads(text)
        assert repr(_json_loads(text)) == repr(json.loads(text))
    for bad in ("", "[1,]", "[1 2]", '{"a" 1}', "{1: 2}", "[01]", "[1]]", "nul", "[NaN]",
                "Infinity", "[-Infinity]", '{"a": Infinity}', "[-]", "[1.]", r'"\x"'):
        with pytest.raises(ValueError):
            _json_loads(bad)


def test_deep_tree_does_not_hit_recursion_limit():
    t = deep_alternating_cotree(5000)
    assert sorted(x.vertex for x in postorder(t.root) if not x.children) == list(range(5000))
    text = cotree_to_text(t)
    assert cotree_to_text(cotree_from_text(text)) == text
    assert cotree_to_json(t).count('"vertex"') == 5000
    encoded = cotree_to_json(t)
    assert cotree_to_json(cotree_from_json(encoded)) == encoded


def test_lists_at_depth_ten_to_the_five():
    # the readers, writers, engines and the view each keep an explicit stack
    n = 10**5
    t = deep_alternating_cotree(n)
    back = cotree_from_text(cotree_to_text(t))
    assert back == t
    kappa = kappa_hat(back)
    assert sum(kappa) == n and kappa_hat(complement_cotree(t)) == lambda_hat(t)
    assert validate_ferrers_against_cotree(t, build_ferrers(t))
    node, depth = t.root, 0
    while node.children:
        assert node.size == n - depth and not node.children[1].children
        node, depth = node.children[0], depth + 1
    assert (depth, node.vertex) == (n - 1, 0)
    # the lists pickle at any depth; the weak reference to the view does not go along
    assert pickle.loads(pickle.dumps(t)) == t
    # JSON nests two levels per cotree level, past what json.loads can read
    deep = deep_alternating_cotree(10**4, 1)
    assert cotree_from_json(cotree_to_json(deep)) == deep


def test_folded_walks_at_depth():
    # the reference walks share one bottom-up fold with an explicit stack
    for top in (0, 1):
        t = deep_alternating_cotree(5000, top)
        text = cotree_to_text(t)
        assert cotree_to_text(complement_cotree(complement_cotree(t))) == text
        assert kappa_hat_naive(t) == kappa_hat(t)
        assert kappa_hat_naive(complement_cotree(t)) == lambda_hat(t)
        assert validate_ferrers_against_cotree(t, build_ferrers(t))


def _repeats_a_label(t):
    return any(
        c.label == x.label
        for x in postorder(t.root)
        if x.children
        for c in x.children
        if c.children
    )


def test_check_cotree_rejects_repeated_labels_in_cotree():
    inner = CotreeNode(label=1, children=[CotreeNode(vertex=0), CotreeNode(vertex=1)])
    root = CotreeNode(label=1, children=[inner, CotreeNode(vertex=2)])
    t = Cotree(root, 3)  # the constructor allows the repeat: it is K3 all the same
    view = t.root
    assert (view.size, t.bigs[-1], view.children[0].size) == (3, 0, 2)
    assert kappa_hat(t) == kappa_hat(build_cotree(complete_graph(3)))
    with pytest.raises(ValueError, match="repeats parent label"):
        check_cotree(t)
    # merged induced subtrees, as a benchmark check builds them: each one
    # constructs, answers as the canonical cotree of its graph does, and is
    # rejected by check_cotree and by both readers
    rng = random.Random(17)
    repeating = 0
    for _ in range(40):
        whole = random_cotree(rng.randint(8, 60), rng, max_children=rng.choice((2, 4, 8)))
        sub = subcotree(whole.root, rng.sample(range(whole.n), rng.randint(2, whole.n)))
        canonical = build_cotree(evaluate_cotree(sub))
        assert kappa_hat(sub) == kappa_hat_naive(sub) == kappa_hat(canonical)
        assert lambda_hat(sub) == lambda_hat(canonical)
        assert validate_ferrers_against_cotree(sub, build_ferrers(sub))
        if _repeats_a_label(sub):
            repeating += 1
            for check in (
                check_cotree,
                lambda x: cotree_from_text(cotree_to_text(x)),
                lambda x: cotree_from_json(cotree_to_json(x)),
            ):
                with pytest.raises(ValueError, match="repeats parent label"):
                    check(sub)
        else:
            check_cotree(sub)
    assert repeating >= 10


def test_bool_labels_are_rejected():
    # True == 1 passes a membership test in (0, 1), but a bool is no label
    for top in (True, False, 2):
        with pytest.raises(ValueError):
            deep_alternating_cotree(4, top)
    for label in (True, 2, None, -1, 1.0):
        root = CotreeNode(label=label, children=[CotreeNode(vertex=0), CotreeNode(vertex=1)])
        with pytest.raises(ValueError, match="0/1 label"):
            Cotree(root, 2)
    # nor is a bool or a float a vertex id
    for vertex in (True, 1.0):
        root = CotreeNode(label=0, children=[CotreeNode(vertex=0), CotreeNode(vertex=vertex)])
        with pytest.raises(ValueError, match="bad leaf vertex"):
            Cotree(root, 2)


def _leaf_count(node):
    return sum(1 for x in postorder(node) if not x.children)


def _first_largest(node):
    sizes = [_leaf_count(c) for c in node.children]
    return sizes.index(max(sizes)) if sizes else 0


def _node(label, *children):
    """An internal node over children given as nodes or as leaf vertex ids."""
    return CotreeNode(label=label, children=[
        c if isinstance(c, CotreeNode) else CotreeNode(vertex=c) for c in children
    ])


def test_constructor_sets_sizes_of_hand_built_trees_and_checks_n():
    # a caterpillar whose spine is the second child, as no producer builds it
    spine = CotreeNode(vertex=0)
    for v in range(1, 6):
        spine = CotreeNode(label=v % 2, children=[CotreeNode(vertex=v), spine])
    below = CotreeNode(label=0, children=[spine, CotreeNode(vertex=8)])
    wide = CotreeNode(label=1, children=[CotreeNode(vertex=6), CotreeNode(vertex=7), below])
    t = Cotree(wide, 9)
    for node, big in zip(postorder(t.root), t.bigs):
        assert node.size == _leaf_count(node)
        assert big == _first_largest(node)
    assert t.root.size == 9
    assert [big for big, count in zip(t.bigs, t.counts) if count] == [0, 1, 1, 1, 1, 0, 2]
    # ties go to the first largest child: sizes 2, 3, 3 give 1, and 1, 1 give 0
    pair = CotreeNode(label=1, children=[CotreeNode(vertex=0), CotreeNode(vertex=1)])
    three = [CotreeNode(label=1, children=[CotreeNode(vertex=v) for v in vs])
             for vs in ((2, 3, 4), (5, 6, 7))]
    tied = Cotree(CotreeNode(label=0, children=[pair, *three]), 8)
    # the root comes last in postorder, and pair third, after its two leaves
    assert (tied.bigs[-1], tied.bigs[2]) == (1, 0)
    check_cotree(t)
    for n in (-1, 0, 8, 10, 10**12):  # no n-sized table is allocated for 10**12
        with pytest.raises(ValueError):
            Cotree(wide, n)
    # malformed trees, each of which would give a wrong answer or a traceback
    # in an engine or a writer; a one-child node writes 0(0), which the text
    # reader rejects
    for root, n, labels, message in (
        (_node(0, 0, 1, _node(1)), 2, None, "fewer than 2 children"),
        (_node(0, 0, _node(1, 1)), 2, None, "fewer than 2 children"),
        (_node(0, 0, 1, 1), 3, None, "bad leaf vertex 1"),
        (_node(0, 0, -1), 2, None, "bad leaf vertex -1"),
        (_node(0, 0, 2), 2, None, "bad leaf vertex 2"),
        (_node(1, 0, _node(0, 1, 2)), 3, ("a", "b"), "2 labels for n = 3"),
        (_node(1, 0, _node(0, 1, 2)), 3, ("a", "b", "c", "d"), "4 labels for n = 3"),
        # a leaf given children: its children's leaves are not the root's
        (_node(1, 0, CotreeNode(vertex=1, children=[CotreeNode(vertex=2)])), 3, None,
         "leaves do not cover"),
    ):
        with pytest.raises(ValueError, match=message):
            Cotree(root, n, labels)
    t = Cotree(_node(1, 0, _node(0, 1, 2)), 3, ("a", "b", "c"))
    assert '"name": "c"' in cotree_to_json(t)


def test_random_cotree_output_is_pinned():
    for (n, seed, max_children), text in (
        ((9, 4, 4), "0(1(0,1),1(2,0(1(3,4),5)),1(6,7,8))"),
        (
            (24, 2026, 4),
            "0(1(0(0,1),2,0(3,4),0(1(0(5,6,7),0(8,9,1(10,11)),12),1(0(13,14,15),16)))"
            ",1(17,18,19,20),1(21,0(22,23)))",
        ),
        ((17, 7, 16), "1(0,0(1,2,1(3,4),5,6,7,8,1(9,10)),0(11,12),0(1(0(13,14),15),16))"),
    ):
        t = random_cotree(n, seed, max_children)
        assert cotree_to_text(t) == text
        for node, big in zip(postorder(t.root), t.bigs):
            assert (node.size, big) == (_leaf_count(node), _first_largest(node))


def _sample_branches(t):
    """(more than 5 cuts, drawn from a pool) for each internal node of ``t``:
    ``sample(range(1, size), cuts)`` draws from a pool of the size - 1 cuts
    while that list is smaller than a set of that many cuts."""
    found, sizes = set(), []
    for count in t.counts:
        size = sum(sizes[-count:]) if count else 1
        del sizes[len(sizes) - count:]
        sizes.append(size)
        if count:
            cuts = count - 1
            setsize = 21 if cuts <= 5 else 21 + 4 ** math.ceil(math.log(cuts * 3, 4))
            found.add((cuts > 5, size - 1 <= setsize))
    return found


def _draws_as_the_reference(n, seed, max_children):
    """Whether ``random_cotree`` gives the reference's lists, for an int seed
    also when given it as an int, and leaves the generator in the
    reference's state; a bool, so that a failure names its case instead of
    comparing long lists."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    reference_rng = random.Random()
    reference_rng.setstate(rng.getstate())
    trees = [
        random_cotree(n, rng, max_children),
        random_cotree_reference(n, reference_rng, max_children),
    ]
    if rng is not seed:
        trees += [random_cotree(n, seed, max_children), random_cotree_reference(n, seed, max_children)]
    lists = {(tuple(t.codes), tuple(t.counts), tuple(t.bigs), t.n) for t in trees}
    return len(lists) == 1 and rng.getstate() == reference_rng.getstate()


def test_random_cotree_makes_the_reference_draws():
    # the same lists and the same generator state as randint and sample
    # give, on both of sample's branches, with at most and more than 5 cuts
    branches = set()
    shared = random.Random(99)
    for n in (1, 2, 3, 5, 21, 22, 23, 24, 200, 1000):
        for max_children in (2, 3, 4, 6, 7, 8, 16, 64):
            for seed in (0, 1, 2026, 2**40 + 3):
                assert _draws_as_the_reference(n, seed, max_children), (n, seed, max_children)
                branches |= _sample_branches(random_cotree(n, seed, max_children))
            # one generator through consecutive calls
            assert _draws_as_the_reference(n, shared, max_children), (n, "shared", max_children)
    assert branches == {(False, True), (False, False), (True, True), (True, False)}


def test_generator_arguments_are_checked_before_any_draw():
    # unchecked, max_children 1 met randrange's empty range at n = 5 and
    # none at n = 1, a float passed with a DeprecationWarning, and True as n
    # gave a tree whose n was True
    bad = ((5, 1), (1, 1), (5, 4.0), (3.0, 4), (True, 4), (0, 4), (-2, 4), (5, True))
    for n, max_children in bad:
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(ValueError, match="must be an int of at least"):
            random_cotree(n, rng, max_children)
        assert rng.getstate() == state
    for n in (True, 0, 2.0):
        with pytest.raises(ValueError, match="n must be an int of at least 1"):
            deep_alternating_cotree(n)
    assert random_cotree(1, 0, 2).n == deep_alternating_cotree(1).n == 1


def test_build_cotree_is_linear_on_edgeless_graphs():
    # The root splits into n singleton components, one search each; a search
    # that rescanned the emptied slots of the unreached set for its start
    # vertex would make this quadratic (a ratio near 4).
    ratio = _doubling_ratio(build_cotree, empty_graph(2**14), empty_graph(2**15))
    assert ratio <= 2.8, f"build_cotree on edgeless graphs, 2^14 -> 2^15: ratio {ratio:.2f}"
