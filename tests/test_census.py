"""Every cograph up to a few vertices, one canonical cotree per isomorphism class."""

from klcograph import (
    box_cograph_dimension,
    complement_cotree,
    conjugate,
    cotree_to_text,
    evaluate_cotree,
    kappa_hat,
    kappa_hat_naive,
)

from helpers import all_cotrees


def test_enumerator_counts_every_cograph():
    # OEIS A000084: the cographs on n unlabelled vertices
    counts = [1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624]
    assert [len(all_cotrees(n)) for n in range(1, 11)] == counts


def test_sequences_and_box_membership_on_every_cograph_up_to_nine_vertices():
    # the engine against the reference, lambda as the reference on the
    # complement's cotree, and the recursive box oracle against the paper's
    # test: a cograph is a k x l box cograph iff its kappa is l copies of k
    checked = 0
    for n in range(1, 10):
        for t in all_cotrees(n):
            text = cotree_to_text(t)
            kappa = kappa_hat(t)
            assert kappa == kappa_hat_naive(t), text
            assert conjugate(kappa) == kappa_hat_naive(complement_cotree(t)), text
            box = (kappa[0], len(kappa)) if kappa[0] == kappa[-1] else None
            assert box_cograph_dimension(evaluate_cotree(t)) == box, text
            checked += 1
    assert checked == 2341
