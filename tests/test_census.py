"""Every cograph up to a few vertices, one canonical cotree per isomorphism
class, and every graph up to six vertices, one per isomorphism class."""

from klcograph import (
    BoxCertificate,
    Cotree,
    KLColouring,
    box_cograph_dimension,
    build_cotree,
    build_ferrers,
    certify_non_colourable,
    complement,
    complement_cotree,
    conjugate,
    cotree_to_text,
    evaluate_cotree,
    induced_subgraph,
    is_kl_colourable,
    is_kl_colourable_exhaustive,
    kappa_at,
    kappa_hat,
    kappa_hat_naive,
    kappa_hat_oracle,
    oracle,
    validate_colouring,
    verify_box_cograph,
)
from klcograph.cotree import _fold

from helpers import all_cotrees, column_colouring, column_obstruction, nonisomorphic_graphs


def test_enumerator_counts_every_cograph():
    # OEIS A000084: the cographs on n unlabelled vertices
    counts = [1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624, 14136, 43930]
    assert [len(all_cotrees(n)) for n in range(1, 13)] == counts


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


def _sorted_text(t):
    """t's text with each node's children in ascending (leaf count, smallest
    leaf) order, the order recognition gives them."""

    def internal(label, kids, _big):
        kids.sort()  # (leaf count, smallest leaf, text): no two kids tie on both
        text = f"{label}(" + ",".join(kid[2] for kid in kids) + ")"
        return sum(kid[0] for kid in kids), kids[0][1], text

    return _fold(t, lambda v: (1, v, str(v)), internal)[2]


def test_recognition_gives_every_cograph_up_to_nine_vertices_its_cotree():
    checked = 0
    for n in range(1, 10):
        for t in all_cotrees(n):
            assert cotree_to_text(build_cotree(evaluate_cotree(t))) == _sorted_text(t)
            checked += 1
    assert checked == 2341


def test_conjugacy_and_vertex_sum_on_every_graph_up_to_six_vertices():
    # lambda is kappa's conjugate on every graph, and kappa sums to n on
    # every cograph; among the non-cographs the sum is n for some, so it is
    # no test for cographs, and above n for a few, such as C5's (3, 2, 1)
    sums = {}  # n -> (non-cographs, sum equal to n, sum above n)
    for n in range(1, 7):
        graphs = nonisomorphic_graphs(n)
        others = equal = above = 0
        for g in graphs:
            kappa = kappa_hat_oracle(g)
            assert conjugate(kappa) == kappa_hat_oracle(complement(g)), list(g.edges())
            if isinstance(build_cotree(g), Cotree):
                assert sum(kappa) == n, list(g.edges())
                continue
            others += 1
            equal += sum(kappa) == n
            above += sum(kappa) > n
        sums[n] = (others, equal, above)
    assert sums == {1: (0, 0, 0), 2: (0, 0, 0), 3: (0, 0, 0), 4: (1, 0, 0),
                    5: (10, 5, 1), 6: (90, 52, 2)}


def test_oracle_on_every_mask_of_every_graph_up_to_five_vertices():
    # the engine's small masks are read off their edge counts, and larger
    # ones are searched: both against the raw search over part assignments,
    # where entry l is the least k with a (k,l)-colouring, up to the first 0
    checked = 0
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            for mask in range(1, 1 << n):
                h = induced_subgraph(g, [v for v in range(n) if mask >> v & 1])
                want = []
                while True:
                    l = len(want)
                    least = next(k for k in range(h.n + 1) if is_kl_colourable_exhaustive(h, k, l))
                    if least == 0:
                        break
                    want.append(least)
                got = oracle._engine(g, oracle.DEFAULT_BUDGET).seq(mask)
                assert got == tuple(want), (list(g.edges()), mask)
                checked += 1
    assert checked == 1 + 2 * 3 + 4 * 7 + 11 * 15 + 34 * 31


def _kappa_without(g, v):
    """The kappa sequence of g less the vertex v, off its cotree."""
    rest = induced_subgraph(g, [u for u in range(g.n) if u != v])
    return kappa_hat(build_cotree(rest)) if rest.n else ()


def test_minimal_obstructions_are_the_boxes_and_certify_on_every_cograph_up_to_eight():
    # the paper's obstruction theorem: a cograph that is not
    # (k,l)-colourable, but is once any vertex goes, is a (k+1) x (l+1) box;
    # and certify answers every (k, l) with a witness that checks out
    minimal, boxes, answers = set(), set(), 0
    for n in range(1, 9):
        for t in all_cotrees(n):
            g = evaluate_cotree(t)
            text = cotree_to_text(t)
            kappa = kappa_hat(t)
            dimension = box_cograph_dimension(g)
            if dimension is not None:
                boxes.add((text, *dimension))
            less = [_kappa_without(g, v) for v in range(n)]
            for l in range(len(kappa)):
                k = kappa[l] - 1
                if all(kappa_at(s, l) <= k for s in less):
                    minimal.add((text, k + 1, l + 1))
            for k in range(kappa[0] + 1):
                for l in range(len(kappa) + 1):
                    got = certify_non_colourable(t, k, l)
                    if isinstance(got, BoxCertificate):
                        assert not is_kl_colourable(kappa, k, l), (text, k, l)
                        assert (got.k, got.l) == (k + 1, l + 1), (text, k, l)
                        assert verify_box_cograph(g, got), (text, k, l)
                    else:
                        assert validate_colouring(g, got, k, l), (text, k, l)
                    answers += 1
    assert minimal == boxes
    assert (len(minimal), answers) == (33, 17508)


def test_diagram_read_offs_and_certify_on_every_cograph_up_to_seven():
    # the paper's read-offs off the built diagram: the columns taller than k
    # and the rest of the top k rows colour G exactly when kappa says so, and
    # otherwise the top-left (k+1) x (l+1) corner is an induced box; certify
    # answers with a witness of the same kind
    answers = 0
    for n in range(1, 8):
        for t in all_cotrees(n):
            g = evaluate_cotree(t)
            f = build_ferrers(t)
            text = cotree_to_text(t)
            kappa = kappa_hat(t)
            for k in range(kappa[0] + 1):
                for l in range(len(kappa) + 1):
                    colouring = column_colouring(f, k, l)
                    assert (colouring is not None) == is_kl_colourable(kappa, k, l), (text, k, l)
                    got = certify_non_colourable(t, k, l)
                    if colouring is not None:
                        assert validate_colouring(g, colouring, k, l), (text, k, l)
                        assert isinstance(got, KLColouring), (text, k, l)
                    else:
                        box = column_obstruction(f, k, l)
                        assert (box.k, box.l) == (k + 1, l + 1), (text, k, l)
                        assert verify_box_cograph(g, box), (text, k, l)
                        assert isinstance(got, BoxCertificate), (text, k, l)
                    answers += 1
    assert answers == 5244
