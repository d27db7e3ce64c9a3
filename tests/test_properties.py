"""Properties of the tree engines and the cotree readers over generated cotrees."""

import functools

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import cotree_from_text_reference, cotrees, subcotree
from klcograph import (
    build_ferrers,
    build_ferrers_naive,
    complement_cotree,
    cotree_from_json,
    cotree_from_text,
    cotree_to_json,
    cotree_to_text,
    entrywise_add,
    kappa_hat,
    kappa_hat_naive,
    lambda_hat,
    lambda_hat_naive,
    star_merge,
)
from klcograph.cotree import postorder


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
    assert kappa.total == t.n
    assert lambda_hat(t) == lambda_hat_naive(t)
    assert kappa_hat(complement_cotree(t)) == lambda_hat(t)
    if t.root.children:
        # a 0-node is a disjoint union, a 1-node a join
        merge = star_merge if t.root.label == 0 else entrywise_add
        parts = [kappa_hat(subcotree(child, range(t.n))) for child in t.root.children]
        assert functools.reduce(merge, parts) == kappa


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(cotrees())
def test_text_and_json_round_trips_return_the_same_text(t):
    text = cotree_to_text(t)
    assert cotree_to_text(cotree_from_text(text)) == text
    encoded = cotree_to_json(t)
    assert cotree_to_json(cotree_from_json(encoded)) == encoded


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
    """The tree read, node by node with size and big, or the ValueError's message."""
    try:
        t = reader(text)
    except ValueError as exc:
        return str(exc)
    return t.n, [(x.label, x.vertex, x.size, x.big, len(x.children)) for x in postorder(t.root)]


@seed(20261018)
@settings(max_examples=1000, deadline=None, database=None)
@given(mutated_cotree_texts())
def test_text_reader_matches_the_character_loop_reference(text):
    assert _outcome(cotree_from_text, text) == _outcome(cotree_from_text_reference, text)
