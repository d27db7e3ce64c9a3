import random
from xml.etree import ElementTree

import pytest

from klcograph import (
    BoxCertificate,
    Cotree,
    CotreeNode,
    Graph,
    KLColouring,
    build_cotree,
    build_ferrers,
    build_ferrers_naive,
    complement_cotree,
    conjugate,
    deep_alternating_cotree,
    evaluate_cotree,
    kappa_hat,
    kappa_hat_naive,
    lambda_hat,
    random_cotree,
    read_colouring,
    read_obstruction,
    render_ascii,
    render_svg,
    validate_colouring,
    validate_ferrers,
    validate_ferrers_against_cotree,
    verify_box_cograph,
)
from klcograph.sequences import is_kl_colourable, kappa_at

from helpers import complete_graph, l_copies_of_k_clique, wide_and_tied_cotrees


def test_single_vertex_representation():
    t = build_cotree(complete_graph(1))
    f = build_ferrers(t)
    assert f.rows == ((0,),)
    assert f.columns == ((0,),)


def test_clique_is_one_column():
    t = build_cotree(complete_graph(4))
    f = build_ferrers(t)
    assert f.shape == (1, 1, 1, 1)
    assert len(f.columns) == 1


def test_union_of_cliques_shape():
    t = build_cotree(l_copies_of_k_clique(2, 3))
    f = build_ferrers(t)
    assert f.shape == (2, 2, 2)
    assert [len(c) for c in f.columns] == [3, 3]
    assert f.columns == tuple(zip(*f.rows))


def test_shape_matches_lambda_and_columns_match_kappa():
    from klcograph.sequences import PartitionSequence

    rng = random.Random(40)
    for _ in range(100):
        t = random_cotree(rng.randint(1, 60), rng)
        f = build_ferrers(t)
        assert f.shape == lambda_hat(t)
        heights = PartitionSequence([len(c) for c in f.columns])
        assert heights == kappa_hat(t)
        assert conjugate(heights) == f.shape


def test_naive_and_fast_agree_cell_for_cell():
    rng = random.Random(41)
    trees = [random_cotree(rng.randint(1, 80), rng) for _ in range(150)]
    trees += wide_and_tied_cotrees(46, 150)
    trees += [
        deep_alternating_cotree(n, top)
        for n in (1, 2, 3, 4, 5, 8, 13, 31, 64, 100, 127, 200)
        for top in (0, 1)
    ]
    trees += [complement_cotree(t) for t in trees[:100]]
    for t in trees:
        assert build_ferrers_naive(t).rows == build_ferrers(t).rows


def _spec_tree(spec) -> Cotree:
    """Cotree(root, n) of a nested spec: an int is a leaf, (label, *children)
    an internal node."""
    leaves = []

    def node(s):
        if isinstance(s, int):
            leaves.append(s)
            return CotreeNode(vertex=s)
        return CotreeNode(label=s[0], children=[node(c) for c in s[1:]])

    root = node(spec)
    return Cotree(root, len(leaves))


# The engines' leaf steps, on trees where the run order shows.
ENGINE_PATH_SPECS = (
    # nodes whose children are all leaves: n = 1, 2, K_n and its complement,
    # and such nodes below the root
    0,
    (0, 0, 1),
    (1, 0, 1),
    (1, 0, 1, 2, 3, 4),
    (0, 0, 1, 2, 3, 4),
    (0, (1, 0, 1, 2), (1, 3, 4), 5),
    # leaf children on both sides of the largest child, beside siblings that
    # have size-1 columns themselves: every size-1 column of the root ties
    # in the one run, in child order
    (0, 0, (1, (0, 1, 2, 3), 4), 5, (1, (0, 6, 7, 8, 9, 10), 11), 12,
     (1, (0, 13, 14), 15), 16),
    # the same with the largest child first, and last
    (0, (1, (0, 0, 1, 2, 3, 4), 5), 6, (1, (0, 7, 8), 9), 10),
    (0, 0, (1, (0, 1, 2), 3), 4, (1, (0, 5, 6, 7, 8), 9)),
    # a 1-node whose leaves join a first run of count 3: kappa [2,2,2]
    # becomes [4,2,2], and the first of three equal columns grows
    (1, (0, (1, 0, 1), (1, 2, 3), (1, 4, 5)), 6, 7),
    (1, 6, (0, (1, 0, 1), (1, 2, 3), (1, 4, 5)), (0, 7, 8), 9),
)


def test_engine_leaf_steps_match_the_references():
    for spec in ENGINE_PATH_SPECS:
        t = _spec_tree(spec)
        # the complement swaps every label, so each step runs under both
        for tree in (t, complement_cotree(t)):
            assert kappa_hat(tree) == kappa_hat_naive(tree), spec
            f = build_ferrers(tree)
            assert f.rows == build_ferrers_naive(tree).rows, spec
            assert validate_ferrers_against_cotree(tree, f), spec


def test_validators_accept_built_representations():
    rng = random.Random(42)
    for _ in range(80):
        t = random_cotree(rng.randint(1, 40), rng)
        f = build_ferrers(t)
        assert validate_ferrers(evaluate_cotree(t), f)
        assert validate_ferrers_against_cotree(t, f)


def test_validator_rejects_swapped_cells():
    t = build_cotree(l_copies_of_k_clique(2, 2))
    f = build_ferrers(t)
    g = evaluate_cotree(t)
    rows = [list(r) for r in f.rows]
    # swap two cells from different cliques into the same column
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    broken = type(f)(tuple(tuple(r) for r in rows), f.labels)
    assert not validate_ferrers(g, broken)
    assert not validate_ferrers_against_cotree(t, broken)
    # an empty row under the two isolated vertices of 2K1
    t = build_cotree(l_copies_of_k_clique(2, 1))
    empty_row = type(f)(((0, 1), ()))
    assert not validate_ferrers(evaluate_cotree(t), empty_row)
    assert not validate_ferrers_against_cotree(t, empty_row)


def test_tree_validator_rejects_each_fault():
    # 2K2, the cotree 0(1(0,1),1(2,3)): its diagram has rows {0,2}, {1,3}
    t = build_cotree(l_copies_of_k_clique(2, 2))
    built = build_ferrers(t)
    assert validate_ferrers_against_cotree(t, built)
    for rows in (
        ((0, 2), (0, 3)),  # a cell repeated
        ((0, 2), (1, 4)),  # the vertex set is not 0..3
        # 0, 1 share a row below the root: that 1-node's row crosses its join,
        # and the root meets a crossing lower down
        ((0, 1), (2, 3)),
    ):
        f = type(built)(rows)
        assert not validate_ferrers(evaluate_cotree(t), f)
        assert not validate_ferrers_against_cotree(t, f)


def test_read_colouring_valid_whenever_feasible():
    rng = random.Random(43)
    for _ in range(50):
        t = random_cotree(rng.randint(1, 30), rng)
        g = evaluate_cotree(t)
        f = build_ferrers(t)
        kh = kappa_hat(t)
        for l in range(len(kh) + 1):
            k = kappa_at(kh, l)
            col = read_colouring(f, k, l)
            assert validate_colouring(g, col, k, l)


def test_read_obstruction_valid_whenever_infeasible():
    rng = random.Random(44)
    for _ in range(50):
        t = random_cotree(rng.randint(2, 30), rng)
        g = evaluate_cotree(t)
        f = build_ferrers(t)
        kh = kappa_hat(t)
        for k in range(3):
            for l in range(3):
                if is_kl_colourable(kh, k, l):
                    continue
                cert = read_obstruction(f, k, l)
                assert isinstance(cert, BoxCertificate)
                assert verify_box_cograph(g, cert)


def _column_colouring(f, k, l):
    """read_colouring as first written, on f.columns."""
    tall = [c for c in f.columns if len(c) > k]
    if len(tall) > l:
        return None
    rows = [frozenset(row[len(tall):]) for row in f.rows[:k]]
    return KLColouring(
        tuple(r for r in rows if r), tuple(frozenset(c) for c in tall)
    )


def _column_obstruction(f, k, l):
    """read_obstruction as first written, on f.columns."""
    cols = f.columns
    if sum(1 for c in cols if len(c) > k) <= l:
        return None
    vertices = frozenset(v for c in cols[: l + 1] for v in c[: k + 1])
    return BoxCertificate(vertices, k + 1, l + 1)


def test_read_offs_match_column_formulas():
    rng = random.Random(47)
    trees = [random_cotree(rng.randint(1, 60), rng) for _ in range(60)]
    trees += wide_and_tied_cotrees(48, 60)
    for t in trees:
        f = build_ferrers(t)
        for k in range(5):
            for l in range(5):
                colouring = _column_colouring(f, k, l)
                obstruction = _column_obstruction(f, k, l)
                assert (colouring is None) != (obstruction is None)
                if colouring is not None:
                    assert read_colouring(f, k, l) == colouring
                else:
                    assert read_obstruction(f, k, l) == obstruction


def test_preconditions_are_complementary():
    rng = random.Random(45)
    for _ in range(30):
        t = random_cotree(rng.randint(1, 20), rng)
        f = build_ferrers(t)
        kh = kappa_hat(t)
        for k in range(4):
            for l in range(4):
                if is_kl_colourable(kh, k, l):
                    read_colouring(f, k, l)
                    with pytest.raises(ValueError):
                        read_obstruction(f, k, l)
                else:
                    read_obstruction(f, k, l)
                    with pytest.raises(ValueError):
                        read_colouring(f, k, l)


def test_read_offs_reject_negative_parameters():
    f = build_ferrers(build_cotree(l_copies_of_k_clique(2, 2)))
    kappa = conjugate(f.shape)
    for k, l in ((-1, 0), (0, -1), (-1, -1)):
        for read in (read_colouring, read_obstruction):
            with pytest.raises(ValueError, match="natural numbers"):
                read(f, k, l)
        with pytest.raises(ValueError, match="k and l must be natural numbers"):
            is_kl_colourable(kappa, k, l)


def test_render_ascii_lists_labels_row_major():
    t = build_cotree(l_copies_of_k_clique(2, 2))
    text = render_ascii(build_ferrers(t))
    lines = text.splitlines()
    assert len(lines) == 2
    assert all(len(line.split()) == 2 for line in lines)


def test_render_svg_well_formed():
    t = build_cotree(complete_graph(3))
    svg = render_svg(build_ferrers(t))
    assert svg.startswith("<?xml")
    assert svg.count("<circle") == 3
    assert "</svg>" in svg


def test_render_svg_escapes_labels():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], labels=["a&b", "<c>", "d>e"])
    svg = render_svg(build_ferrers(build_cotree(g)))
    assert "a&amp;b" in svg and "&lt;c&gt;" in svg and "d&gt;e" in svg
    root = ElementTree.fromstring(svg.encode())
    texts = sorted(e.text for e in root.iter("{http://www.w3.org/2000/svg}text"))
    assert texts == ["<c>", "a&b", "d>e"]
