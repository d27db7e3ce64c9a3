import random

from hypothesis import given, seed, settings
import pytest

from klcograph import (
    BoxCertificate,
    KLColouring,
    box_cograph_dimension,
    box_cograph_failure,
    build_cotree,
    build_ferrers,
    certify_non_colourable,
    complement_cotree,
    cotree_from_text,
    deep_alternating_cotree,
    evaluate_cotree,
    induced_subgraph,
    is_kl_colourable,
    kappa_at,
    kappa_hat,
    kappa_hat_oracle,
    random_cotree,
    read_obstruction,
    validate_colouring,
    verify_box_cograph,
)
from klcograph.sequences import PartitionSequence

from helpers import complete_graph, cotrees, l_copies_of_k_clique, path_graph


def test_certificate_size_enforced():
    with pytest.raises(ValueError):
        BoxCertificate(frozenset({0, 1, 2}), 2, 2)
    # four entries, two distinct vertices
    with pytest.raises(ValueError):
        BoxCertificate([0, 0, 1, 1], 2, 2)
    assert BoxCertificate([1, 0], 2, 1).vertices == frozenset({0, 1})
    for k, l in ((0, 1), (1, 0), (-1, -1)):
        with pytest.raises(ValueError):
            BoxCertificate(frozenset(), k, l)


def test_certify_rejects_negative_parameters():
    t = build_cotree(l_copies_of_k_clique(2, 2))
    for k, l in ((-1, 0), (0, -1), (-1, 5)):
        with pytest.raises(ValueError, match="natural numbers"):
            certify_non_colourable(t, k, l)


def test_find_box_cograph_in_union_of_cliques():
    g = l_copies_of_k_clique(2, 3)
    t = build_cotree(g)
    cert = read_obstruction(build_ferrers(t), 2, 1)
    assert cert.vertices == frozenset(range(6))
    assert verify_box_cograph(g, cert)


def test_find_box_cograph_requires_obstruction_to_exist():
    t = build_cotree(complete_graph(3))
    with pytest.raises(ValueError):
        read_obstruction(build_ferrers(t), 3, 0)


def test_failure_reason_codes():
    g = l_copies_of_k_clique(2, 2)
    out_of_range = BoxCertificate(frozenset({0, 99}), 2, 1)
    assert box_cograph_failure(g, out_of_range) == "vertices-out-of-range"
    # K2 + one vertex of the other K2: kappa is (2, 1), not constant
    lopsided = BoxCertificate(frozenset({0, 1, 2}), 3, 1)
    assert box_cograph_failure(g, lopsided) == "kappa-not-constant"
    good = BoxCertificate(frozenset(range(4)), 2, 2)
    assert box_cograph_failure(g, good) is None
    # a P4's four vertices claimed as a 2 x 2 box
    assert box_cograph_failure(path_graph(4), good) == "not-a-cograph"


def test_certify_returns_colouring_or_certificate_exhaustively():
    rng = random.Random(30)
    for _ in range(50):
        t = random_cotree(rng.randint(1, 10), rng)
        g = evaluate_cotree(t)
        kh = kappa_hat(t)
        for k in range(4):
            for l in range(4):
                result = certify_non_colourable(t, k, l)
                if is_kl_colourable(kh, k, l):
                    assert isinstance(result, KLColouring)
                    assert validate_colouring(g, result, k, l)
                else:
                    assert isinstance(result, BoxCertificate)
                    assert result.k == k + 1 and result.l == l + 1
                    assert len(result.vertices) == (k + 1) * (l + 1)
                    assert verify_box_cograph(g, result)
                    # vertex-minimal: without any one vertex the rest is
                    # (k,l)-colourable (for k = l = 0 the rest is empty)
                    for x in result.vertices:
                        rest = result.vertices - {x}
                        if rest:
                            sub = build_cotree(induced_subgraph(g, rest))
                            assert kappa_at(kappa_hat(sub), l) <= k


def test_certificates_are_box_cographs_per_recursive_oracle():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        t = random_cotree(rng.randint(2, 10), rng)
        g = evaluate_cotree(t)
        kh = kappa_hat(t)
        for k in range(3):
            for l in range(3):
                if is_kl_colourable(kh, k, l):
                    continue
                cert = certify_non_colourable(t, k, l)
                sub = induced_subgraph(g, cert.vertices)
                if sub.n <= 8:
                    assert box_cograph_dimension(sub) == (k + 1, l + 1)
                    checked += 1
    assert checked >= 10


def test_certificate_kappa_is_constant_sequence():
    rng = random.Random(32)
    for _ in range(40):
        t = random_cotree(rng.randint(2, 12), rng)
        g = evaluate_cotree(t)
        kh = kappa_hat(t)
        for l in range(len(kh)):
            k = kh[l] - 1
            cert = certify_non_colourable(t, k, l)
            assert isinstance(cert, BoxCertificate)
            sub = induced_subgraph(g, cert.vertices)
            assert kappa_hat_oracle(sub) == PartitionSequence.constant(k + 1, l + 1)


def test_constant_kappa_marks_box_cographs_at_small_n():
    # kappa = [k]^l together with cograph membership pins down the class;
    # checked empirically against the recursive-membership oracle
    from klcograph import P4Witness

    from helpers import nonisomorphic_graphs

    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            t = build_cotree(g)
            dim = box_cograph_dimension(g)
            if isinstance(t, P4Witness):
                assert dim is None
                continue
            kh = kappa_hat(t)
            constant = len(set(kh)) <= 1 and len(kh) >= 1
            if dim is not None:
                assert constant
                assert dim == (kh[0], len(kh))
            else:
                assert not constant


# --- the descent: certify_non_colourable without the Ferrers diagram --------


def _check_answer(t, g, kappa, k, l):
    """certify's answer at (k, l) agrees with kappa and its witness holds in g."""
    result = certify_non_colourable(t, k, l)
    if is_kl_colourable(kappa, k, l):
        assert isinstance(result, KLColouring), (k, l)
        assert validate_colouring(g, result, k, l), (k, l)
    else:
        assert isinstance(result, BoxCertificate), (k, l)
        assert (result.k, result.l) == (k + 1, l + 1)
        assert len(result.vertices) == (k + 1) * (l + 1)
        assert verify_box_cograph(g, result), (k, l)


@seed(20261019)
@settings(max_examples=100, deadline=None, database=None)
@given(cotrees())
def test_descent_answers_every_small_query_on_a_tree_and_its_complement(t):
    for tree in (t, complement_cotree(t)):
        g, kappa = evaluate_cotree(tree), kappa_hat(tree)
        for k in range(5):
            for l in range(5):
                _check_answer(tree, g, kappa, k, l)


def test_descent_on_both_sides_of_every_staircase_corner():
    # at a corner, column l of height h = kappa_l is followed by a lower
    # one: (h - 1, l) needs the largest h x (l+1) box, while (h, l) and
    # (h - 1, l + 1) are colourable
    rng = random.Random(35)
    sizes = [1, 2, 3, 7, 30, 64, 100, 150, 200, 250, 300]
    for n in sizes:
        t = random_cotree(n, rng, max_children=rng.choice((2, 4, 8)))
        g, kappa = evaluate_cotree(t), kappa_hat(t)
        for l, h in enumerate(kappa):
            if kappa_at(kappa, l + 1) < h:
                for k, at in ((h - 1, l), (h, l), (h - 1, l + 1)):
                    _check_answer(t, g, kappa, k, at)


def test_descent_on_deep_trees_with_no_independent_part_or_no_clique():
    for n in list(range(1, 13)) + [33, 64]:
        for top in (0, 1):
            t = deep_alternating_cotree(n, top)
            g, kappa = evaluate_cotree(t), kappa_hat(t)
            for l in range(len(kappa) + 2):
                _check_answer(t, g, kappa, 0, l)
            for k in range(kappa[0] + 2):
                _check_answer(t, g, kappa, k, 0)


def test_descent_on_a_single_vertex():
    t = cotree_from_text("0")
    g = evaluate_cotree(t)
    for k in range(3):
        for l in range(3):
            _check_answer(t, g, kappa_hat(t), k, l)
    assert certify_non_colourable(t, 0, 0).vertices == frozenset({0})
    assert certify_non_colourable(t, 1, 0) == KLColouring((frozenset({0}),), ())
    assert certify_non_colourable(t, 0, 1) == KLColouring((), (frozenset({0}),))


def test_descent_at_depth_without_recursion():
    # deeper than the interpreter's recursion limit; the graph has ~n^2/4
    # edges, so the answers are checked by their counts only
    n = 10**5
    for top in (0, 1):
        t = deep_alternating_cotree(n, top)
        kappa = kappa_hat(t)
        l = len(kappa) // 2
        k = kappa[l]
        yes = certify_non_colourable(t, k, l)
        assert isinstance(yes, KLColouring)
        assert len(yes.independent_parts) <= k and len(yes.clique_parts) <= l
        parts = yes.parts()
        assert sum(map(len, parts)) == n and frozenset().union(*parts) == set(range(n))
        no = certify_non_colourable(t, k - 1, l)
        assert isinstance(no, BoxCertificate)
        assert len(no.vertices) == k * (l + 1)


def test_boxes_are_vertex_minimal_per_the_oracle():
    # without any one vertex, what is left of a box is (k,l)-colourable,
    # decided by the exact oracle, not by the cotree engines
    rng = random.Random(36)
    checked = 0
    for _ in range(40):
        t = random_cotree(rng.randint(1, 10), rng)
        g = evaluate_cotree(t)
        for k in range(4):
            for l in range(4):
                cert = certify_non_colourable(t, k, l)
                if isinstance(cert, BoxCertificate):
                    for x in cert.vertices:
                        rest = induced_subgraph(g, cert.vertices - {x})
                        assert is_kl_colourable(kappa_hat_oracle(rest), k, l), (k, l, x)
                    checked += 1
    assert checked >= 50


# certify's exact answers on seeded trees: (family, argument, k, l, answer),
# where a colouring is (independent parts, cliques) in its part order and a
# box its sorted vertices.  Both are whatever the descent picks among many
# valid witnesses, so an engine change that moves one fails here, and the
# new witnesses are to be checked and pinned again.
PINNED_ANSWERS = [
    ("random", 1, 5, 1, ([[16, 17, 19, 20, 25, 26, 28], [21, 24, 27, 29],
                          [0, 1, 2, 7, 8, 9, 11, 15], [3, 12, 13, 14], [4, 5]],
                         [[6, 10, 18, 22, 23]])),
    ("random", 1, 4, 1, [2, 3, 5, 6, 11, 12, 19, 20, 21, 24]),
    ("random", 1, 1, 4, [18, 19, 20, 21, 23, 24, 26, 27, 28, 29]),
    ("random", 2, 7, 1, ([[0, 6, 7], [1, 8], [2, 27, 28, 29], [9, 11, 15, 23, 24],
                          [10, 12, 13, 14, 25, 26], [17, 18, 19, 20], [21]],
                         [[3, 4, 5, 16, 22]])),
    ("random", 2, 6, 1, [4, 5, 7, 8, 16, 18, 20, 21, 23, 24, 25, 26, 28, 29]),
    ("random", 2, 1, 4, [1, 2, 9, 10, 11, 13, 23, 24, 25, 26]),
    ("random", 3, 5, 1, ([[0, 9, 12, 18, 19], [4, 10, 11, 13, 26, 27],
                          [1, 3, 5, 6, 7, 8, 14, 28, 29], [2, 15, 17, 24], [16, 25]],
                         [[20, 21, 22, 23]])),
    ("random", 3, 4, 1, [12, 13, 14, 15, 16, 19, 24, 25, 27, 29]),
    ("random", 3, 1, 4, [0, 4, 6, 7, 10, 11, 12, 13, 19, 27]),
    ("deep", 0, 1, 1, ([[0, 1, 3, 5, 7, 9, 11]], [[2, 4, 6, 8, 10]])),
    ("deep", 0, 0, 1, [10, 11]),
    ("deep", 0, 1, 4, ([[0, 1, 3, 5, 7, 9, 11]], [[2, 4, 6, 8, 10]])),
    ("deep", 1, 1, 1, ([[2, 4, 6, 8, 10]], [[0, 1, 3, 5, 7, 9, 11]])),
    ("deep", 1, 0, 1, [9, 10]),
    ("deep", 1, 1, 4, ([[2, 4, 6, 8, 10]], [[0, 1, 3, 5, 7, 9, 11]])),
]


@pytest.mark.parametrize("family, arg, k, l, answer", PINNED_ANSWERS)
def test_certify_answers_are_pinned(family, arg, k, l, answer):
    t = random_cotree(30, arg) if family == "random" else deep_alternating_cotree(12, arg)
    got = certify_non_colourable(t, k, l)
    if isinstance(got, BoxCertificate):
        assert (got.k, got.l, sorted(got.vertices)) == (k + 1, l + 1, answer)
        assert verify_box_cograph(evaluate_cotree(t), got)
    else:
        sides = (got.independent_parts, got.clique_parts)
        assert tuple([sorted(p) for p in side] for side in sides) == answer
        assert validate_colouring(evaluate_cotree(t), got, k, l)
