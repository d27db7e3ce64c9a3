import random

import pytest

from klcograph import (
    Cotree,
    P4Witness,
    build_cotree,
    check_cotree,
    complement_cotree,
    cotree_from_json,
    cotree_from_text,
    cotree_to_json,
    cotree_to_text,
    complement,
    evaluate_cotree,
    find_p4,
    random_cotree,
)
from klcograph.cotree import leaves_of, postorder

from helpers import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
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


def test_find_p4_on_cycles():
    for n in (5, 6, 7):
        g = cycle_graph(n)
        assert find_p4(g).holds_in(g)


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
                if not child.is_leaf:
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
        assert cotree_to_text(cotree_from_text(cotree_to_text(canon))) == cotree_to_text(canon)
        assert cotree_to_text(cotree_from_json(cotree_to_json(canon))) == cotree_to_text(canon)
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
    ):
        with pytest.raises(ValueError):
            cotree_from_json(bad)


def test_deep_tree_does_not_hit_recursion_limit():
    from klcograph import deep_alternating_cotree

    t = deep_alternating_cotree(5000)
    assert sorted(leaves_of(t.root)) == list(range(5000))
    text = cotree_to_text(t)
    assert cotree_to_text(cotree_from_text(text)) == text
    assert cotree_to_json(t).count('"vertex"') == 5000


def test_check_cotree_rejects_repeated_labels_in_cotree():
    from klcograph import CotreeNode
    from klcograph.cotree import _fill_sizes

    inner = CotreeNode(label=1, children=[CotreeNode(vertex=0), CotreeNode(vertex=1)])
    root = CotreeNode(label=1, children=[inner, CotreeNode(vertex=2)])
    _fill_sizes(root)
    with pytest.raises(ValueError):
        check_cotree(Cotree(root, 3))
