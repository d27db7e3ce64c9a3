import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcograph import (
    Cotree,
    CotreeNode,
    KLColouring,
    PartitionSequence,
    bichromatic_number,
    build_cotree,
    build_ferrers,
    cochromatic_number,
    complement,
    complement_cotree,
    conjugate,
    cotree_from_text,
    cotree_to_text,
    deep_alternating_cotree,
    entrywise_add,
    evaluate_cotree,
    is_kl_colourable,
    kappa_at,
    kappa_hat,
    kappa_hat_naive,
    lambda_hat,
    random_cotree,
    read_colouring,
    star_merge,
    validate_colouring,
)

from helpers import l_copies_of_k_clique, wide_and_tied_cotrees

partitions = st.lists(st.integers(1, 12), max_size=12).map(
    lambda xs: PartitionSequence(sorted(xs, reverse=True))
)


def test_sequence_validation():
    with pytest.raises(ValueError):
        PartitionSequence([1, 2])
    with pytest.raises(ValueError):
        PartitionSequence([2, 0])
    assert PartitionSequence([]) == ()
    with pytest.raises(ValueError, match="run multiplicity 0 is not positive"):
        PartitionSequence.from_text("3^0")
    assert PartitionSequence.from_text("") == PartitionSequence.from_text("  ") == ()


def test_sequence_text_round_trip():
    s = PartitionSequence([3, 3, 1])
    assert PartitionSequence.from_text(s.to_text()) == s
    assert PartitionSequence.from_text("3^2,1") == s
    assert PartitionSequence.from_text("3,3,1") == s


def test_runs_and_constant():
    assert PartitionSequence.constant(4, 3) == (4, 4, 4)
    assert PartitionSequence([5, 5, 2]).runs == ((5, 2), (2, 1))
    assert PartitionSequence.from_runs([(5, 2), (2, 1)]) == (5, 5, 2)
    s = PartitionSequence([3, 3, 1])
    assert isinstance(s, tuple) and s == (3, 3, 1) and hash(s) == hash((3, 3, 1))
    assert PartitionSequence().runs == ()
    assert PartitionSequence([2, 2]).runs == ((2, 2),)


def test_entrywise_add_worked_example():
    a = PartitionSequence([3, 2, 2, 1])
    b = PartitionSequence([3, 2, 1])
    assert entrywise_add(a, b) == PartitionSequence([6, 4, 3, 1])


def test_star_merge_sorts_concatenation():
    a = PartitionSequence([3, 1])
    b = PartitionSequence([2, 2])
    assert star_merge(a, b) == PartitionSequence([3, 2, 2, 1])


def test_empty_sequence_is_identity_for_both_operators():
    s = PartitionSequence([4, 2])
    e = PartitionSequence()
    assert entrywise_add(s, e) == s
    assert star_merge(e, s) == s


def test_conjugate_pairs():
    assert conjugate(PartitionSequence([3, 3, 1])) == PartitionSequence([3, 2, 2])
    assert conjugate(PartitionSequence([])) == PartitionSequence([])


@given(partitions)
def test_conjugate_is_involution(s):
    assert conjugate(conjugate(s)) == s


@given(partitions)
def test_conjugate_preserves_total(s):
    assert sum(conjugate(s)) == sum(s)


@given(partitions, partitions)
def test_operators_commute(a, b):
    assert entrywise_add(a, b) == entrywise_add(b, a)
    assert star_merge(a, b) == star_merge(b, a)


@given(partitions)
def test_bichromatic_matches_definition(s):
    # smallest r such that every split k + l = r admits a colouring
    def colourable_all(r):
        return all(is_kl_colourable(s, k, r - k) for k in range(r + 1))

    r = 0
    while not colourable_all(r):
        r += 1
    assert bichromatic_number(s) == r


@given(partitions)
def test_cochromatic_matches_definition(s):
    def colourable_some(r):
        return any(is_kl_colourable(s, k, r - k) for k in range(r + 1))

    r = 0
    while not colourable_some(r):
        r += 1
    assert cochromatic_number(s) == r


def test_kappa_at_zero_beyond_length():
    s = PartitionSequence([3, 1])
    assert [kappa_at(s, l) for l in range(4)] == [3, 1, 0, 0]
    with pytest.raises(ValueError, match="natural number"):
        kappa_at(s, -1)


def test_kappa_hat_of_single_leaf():
    t = cotree_from_text("0")
    assert kappa_hat_naive(t) == PartitionSequence([1])
    assert kappa_hat(t) == PartitionSequence([1])


def test_kappa_hat_of_l_copies_of_k_clique():
    for l in range(1, 5):
        for k in range(1, 5):
            g = l_copies_of_k_clique(l, k)
            t = build_cotree(g)
            assert kappa_hat(t) == PartitionSequence.constant(k, l)


def test_naive_and_fast_agree_with_conjugate_duality():
    rng = random.Random(10)
    trees = [random_cotree(rng.randint(1, 80), rng) for _ in range(200)]
    trees += wide_and_tied_cotrees(14, 200)
    for t in trees:
        kn = kappa_hat_naive(t)
        kf = kappa_hat(t)
        ln = kappa_hat_naive(complement_cotree(t))
        lf = lambda_hat(t)
        assert kn == kf
        assert ln == lf
        assert conjugate(kn) == ln
        assert sum(kn) == t.n


def test_packed_runs_on_the_smallest_trees():
    # a run is one int, -value * (n + 1) + count: at n = 1 the modulus is 2,
    # and a node of leaves only is built in one step
    trees = [cotree_from_text("0")]
    for c in range(2, 7):
        leaves = ",".join(map(str, range(c)))
        trees += [cotree_from_text(f"{label}({leaves})") for label in (0, 1)]
    for t in trees:
        assert kappa_hat(t) == kappa_hat_naive(t), cotree_to_text(t)


def test_packed_runs_on_deep_trees():
    for top in (0, 1):
        t = deep_alternating_cotree(2**12, top)
        assert kappa_hat(t) == kappa_hat_naive(t), top


def test_packed_runs_past_one_int_digit():
    n = 2**17
    t = random_cotree(n)
    assert kappa_hat(t) == kappa_hat_naive(t)
    # a random cotree's values stay below 2^30 / (n + 1); joined with the
    # cotree of K_{2,2,...,2}, a sum of [1, 1]s, its entries pass it, so the
    # adds split and grow runs of two-digit ints
    half = random_cotree(n // 2, 7)
    pairs = [
        CotreeNode(label=0, children=[CotreeNode(vertex=v), CotreeNode(vertex=v + 1)])
        for v in range(n // 2, n, 2)
    ]
    t = Cotree(CotreeNode(label=1, children=[half.root] + pairs), n)
    kappa = kappa_hat(t)
    assert kappa[0] * (n + 1) > 2**30
    assert kappa == kappa_hat_naive(t)


def test_lambda_matches_operator_swapped_traversal_on_deep_trees():
    # lambda_hat is conjugate(kappa_hat); the naive traversal on the
    # complement's cotree, whose flipped labels swap the two operators,
    # checks the conjugacy theorem on the cotree side
    sizes = list(range(1, 34)) + [2**e for e in range(6, 11)]
    for n in sizes:
        for top in (0, 1):
            t = deep_alternating_cotree(n, top)
            assert lambda_hat(t) == kappa_hat_naive(complement_cotree(t)), (n, top)


def test_kappa_of_complement_is_lambda():
    rng = random.Random(11)
    for _ in range(100):
        t = random_cotree(rng.randint(1, 40), rng)
        assert kappa_hat(complement_cotree(t)) == lambda_hat(t)


def test_kappa_equals_lambda_of_complement_graph():
    rng = random.Random(12)
    for _ in range(50):
        t = random_cotree(rng.randint(1, 25), rng)
        g = evaluate_cotree(t)
        ct = build_cotree(complement(g))
        assert kappa_hat(t) == lambda_hat(ct)


def test_extract_colouring_valid_for_all_feasible_parameters():
    rng = random.Random(13)
    for _ in range(40):
        t = random_cotree(rng.randint(1, 25), rng)
        g = evaluate_cotree(t)
        kh = kappa_hat(t)
        for l in range(len(kh) + 2):
            k = kappa_at(kh, l)
            col = read_colouring(build_ferrers(t), k, l)
            assert validate_colouring(g, col, k, l)


def test_validate_colouring_rejects_each_fault():
    # K2 plus an isolated vertex: 0-1 is the one edge
    g = evaluate_cotree(cotree_from_text("0(1(0,1),2)"))
    part = frozenset
    good = KLColouring((part({0, 2}),), (part({1}),))
    assert validate_colouring(g, good, 1, 1)
    for colouring, k, l in (
        (KLColouring((part({0, 2}),), ()), None, None),  # misses a vertex
        (KLColouring((part({0, 2}),), (part({2}),)), None, None),  # 1 is uncovered
        (KLColouring((part({0}), part({2})), (part({1}),)), 1, 1),  # 2 independent > k
        (good, 1, 0),  # 1 clique part > l
        (KLColouring((part({0, 1}),), (part({2}),)), 1, 1),  # 0-1 is not independent
    ):
        assert not validate_colouring(g, colouring, k, l)


def test_extract_colouring_rejects_infeasible_parameters():
    t = build_cotree(l_copies_of_k_clique(2, 3))
    with pytest.raises(ValueError):
        read_colouring(build_ferrers(t), 1, 1)
