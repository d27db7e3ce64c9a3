"""Properties of the tree engines and the cotree readers over generated cotrees."""

import functools

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import cotree_from_text_reference, cotrees, postorder, subcotree
from klcograph import (
    Cotree,
    build_cotree,
    build_ferrers,
    build_ferrers_naive,
    check_cotree,
    complement_cotree,
    cotree_from_json,
    cotree_from_text,
    cotree_to_json,
    cotree_to_text,
    deep_alternating_cotree,
    entrywise_add,
    evaluate_cotree,
    kappa_hat,
    kappa_hat_naive,
    lambda_hat,
    random_cotree,
    star_merge,
)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(cotrees())
def test_fast_engines_match_the_references(t):
    assert kappa_hat(t) == kappa_hat_naive(t)
    assert build_ferrers(t).rows == build_ferrers_naive(t).rows


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(cotrees())
def test_sequence_calculus_identities(t):
    kappa = kappa_hat(t)
    assert sum(kappa) == t.n
    assert lambda_hat(t) == kappa_hat_naive(complement_cotree(t))
    assert kappa_hat(complement_cotree(t)) == lambda_hat(t)
    if t.root.children:
        # a 0-node is a disjoint union, a 1-node a join
        merge = star_merge if t.root.label == 0 else entrywise_add
        parts = [kappa_hat(subcotree(child, range(t.n))) for child in t.root.children]
        assert functools.reduce(merge, parts) == kappa


def _shape(t):
    """The tree's lists, then its root view node by node: label, vertex,
    size and child count."""
    view = [(x.label, x.vertex, x.size, len(x.children)) for x in postorder(t.root)]
    return t.n, t.codes, t.counts, t.bigs, view


def _routes(t):
    """t built again by every route that must give its lists: the
    constructor over its view, both readers, and two complements."""
    return [
        Cotree(t.root, t.n),
        cotree_from_text(cotree_to_text(t)),
        cotree_from_json(cotree_to_json(t)),
        complement_cotree(complement_cotree(t)),
    ]


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(cotrees())
def test_text_and_json_round_trips_return_the_same_text(t):
    text = cotree_to_text(t)
    assert cotree_to_text(cotree_from_text(text)) == text
    encoded = cotree_to_json(t)
    assert cotree_to_json(cotree_from_json(encoded)) == encoded
    shape = _shape(t)
    assert all(_shape(other) == shape for other in _routes(t))
    # recognition gives the canonical tree, which is its own fixed point
    canon = build_cotree(evaluate_cotree(t))
    shape = _shape(canon)
    assert _shape(build_cotree(evaluate_cotree(canon))) == shape
    assert all(_shape(other) == shape for other in _routes(canon))


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.sampled_from((2, 4, 16)),
       st.integers(0, 1))
def test_generators_give_the_lists_of_every_route(n, rng_seed, max_children, top):
    for t in (random_cotree(n, rng_seed, max_children), deep_alternating_cotree(n, top)):
        check_cotree(t)
        shape = _shape(t)
        assert all(_shape(other) == shape for other in _routes(t))


MUTATION_CHARS = "(),01 9\t-x_+٣"


@st.composite
def mutated_cotree_texts(draw):
    """A cotree's text with up to four characters inserted, deleted or replaced."""
    text = cotree_to_text(draw(cotrees(max_leaves=12)))
    edits = st.tuples(
        st.sampled_from("idr"), st.integers(0, 10**6), st.sampled_from(MUTATION_CHARS)
    )
    for op, at, char in draw(st.lists(edits, max_size=4)):
        i = at % (len(text) + 1)
        if op == "i":
            text = text[:i] + char + text[i:]
        elif op == "d":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + char + text[i + 1 :]
    return text


def _outcome(reader, text):
    """The tree read, as its lists and its view, or the ValueError's message."""
    try:
        t = reader(text)
    except ValueError as exc:
        return str(exc)
    return _shape(t)


@seed(20261018)
@settings(max_examples=1000, deadline=None, database=None)
@given(mutated_cotree_texts())
def test_text_reader_matches_the_character_loop_reference(text):
    assert _outcome(cotree_from_text, text) == _outcome(cotree_from_text_reference, text)
