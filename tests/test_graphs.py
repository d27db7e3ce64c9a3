import random
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from klcograph import (
    Graph,
    GraphFormatError,
    complement,
    disjoint_union,
    induced_subgraph,
    join,
    parse_edge_list,
    parse_graph6,
)
from klcograph.graphs import (
    _bulk_edge_list,
    _edge_list_by_line,
    is_clique,
    is_independent_set,
)

from helpers import (
    complete_graph,
    decode_graph6_reference,
    encode_graph6,
    path_graph,
    random_graph,
)


def test_public_constructor_still_checks():
    for adj, message in (
        ((frozenset({1}), frozenset()), "not symmetric"),
        ((frozenset({0}), frozenset()), "self-loop"),
        ((frozenset({2}), frozenset()), "out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            Graph(2, adj)
    for n, adj, labels, message in (
        (-1, (), None, "non-negative"),
        (2, (frozenset(),), None, "adjacency table length"),
        (1, (frozenset(),), ("a", "b"), "labels length"),
    ):
        with pytest.raises(ValueError, match=message):
            Graph(n, adj, labels)
    for n, edges, labels, message in (
        (2, [(1, 1)], None, "self-loop"),
        (2, [(0, 2)], None, "out of range"),
        (-1, [], None, "non-negative"),
        (-1, [(0, 1)], None, "non-negative"),
        (2, [(0, 1)], ["a"], "labels length"),
    ):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(n, edges, labels)


def test_from_edges_collapses_duplicates():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_edges_are_sorted_pairs():
    g = Graph.from_edges(4, [(2, 3), (0, 2), (1, 0)])
    assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]


def test_parse_edge_list_basic():
    g = parse_edge_list("0 1\n1 2\n")
    assert g.n == 3 and g.m == 2


def test_parse_edge_list_with_vertex_count_header():
    g = parse_edge_list("5\n0 1\n")
    assert g.n == 5 and g.m == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_edge_list("1048576\n0 1048575\n"),
        lambda: parse_edge_list("# line loop\n1048576\n0 1048575\n"),
        lambda: Graph.from_edges(2**20, [(0, 2**20 - 1)]),
    ],
)
def test_vertices_in_no_edge_allocate_no_set(build):
    # 2**20 adjacency sets and their frozen copies take ~450 MB; the adjacency
    # tuple alone takes 8 MB
    tracemalloc.start()
    try:
        g = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 2**20 and list(g.edges()) == [(0, 2**20 - 1)]
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# triangle\n\n0 1\n1 2\n0 2\n")
    assert g.n == 3 and g.m == 3


@pytest.mark.parametrize(
    "text",
    ["0 1 2", "a b", "0 0", "1 -2", "3\n0 5", "0 100000000", "100000000"],
)
def test_parse_edge_list_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_edge_list(text)


def _listed(g, header=True):
    """g as an edge list, each edge once as "u v" with u < v, optionally
    after a line declaring n, with a trailing newline."""
    return "\n".join([str(g.n)] * header + [f"{u} {v}" for u, v in g.edges()]) + "\n"


def _decodes(text, regular):
    """A text in the regular layout (``regular`` None) decodes in bulk to the
    line loop's graph.  Any other spelling is left to the line loop, which
    reads it to the graph of ``regular``, the same list in the regular
    layout."""
    if regular is None:
        g = _bulk_edge_list(text)
        assert g is not None and g == _edge_list_by_line(text)
    else:
        assert _bulk_edge_list(text) is None
        assert parse_edge_list(text) == parse_edge_list(regular)


EDGE_LISTS = (
    ("0 1\n1 2\n", None),
    ("0 1", None),
    ("4\n", None),
    ("5\n0 1\n", None),
    ("\n  \n3\r\n0\t1\r\n 1  2 \r\n\r\n1 2\r\n", "3\n0 1\n1 2\n1 2\n"),
    ("2 0\n0 2\n007 1\n", "2 0\n0 2\n7 1\n"),
)


@pytest.mark.parametrize("text, regular", EDGE_LISTS, ids=[text for text, _ in EDGE_LISTS])
def test_regular_edge_lists_take_the_bulk_path(text, regular):
    _decodes(text, regular)


LARGE = random_graph(540, 0.5, random.Random(540))  # m ~ 73k, as graph-query's largest


@pytest.mark.parametrize(
    "text, regular",
    [
        (_listed(LARGE), None),
        (_listed(LARGE).replace("\n", "\r\n"), _listed(LARGE)),
        (_listed(LARGE).replace(" ", "\t"), _listed(LARGE)),
        (_listed(LARGE).replace("\n", "\n\n"), _listed(LARGE)),
        ("5\n", None),
        ("3\n0 1\n1 2", None),
        (_listed(path_graph(4), header=False).rstrip("\n"), None),
        ("00 1", "0 1"),
        ("0 01", "0 1"),
        ("+1 2\n1_0 \u0663\n", "1 2\n10 3\n"),
        ("0\u30001\u20282 3", "0 1\n2 3"),
        # the line loop's str.split and str.splitlines see every ASCII space
        # and line break
        (" 3 \x0b\x0c 0\x1f\t 1  \r\r\n1    2\x1c\x1d\x1e", "3\n0 1\n1 2"),
    ],
    ids=["n540", "n540-crlf", "n540-tab", "n540-blank", "header-only",
         "no-final-newline", "no-header-no-final-newline", "leading-zero-u",
         "leading-zero-v", "int-forms", "non-ascii-space", "every-ascii-space"],
)
def test_regular_layouts_decode_in_bulk(text, regular):
    _decodes(text, regular)


def test_the_decode_reads_leading_zeros_and_counts_empty_ids():
    # json.loads rejects "00" and "02"; the line loop reads them
    _decodes("3\n00 1\n0 02\n", "3\n0 1\n0 2\n")
    # the separators fit the layout, but the first id is empty: read as a
    # header, "5" would leave an edge "2 3" and a stray "3"
    assert _bulk_edge_list("\n5 1\n2 3") is None
    assert _bulk_edge_list("") is None


# Edge-list lines: regular edges, and lines the bulk path must leave to the
# line loop or read the same way: every malformed kind of
# test_parse_edge_list_rejects_malformed, comments, blank and whitespace-only
# lines, tabs, extra spaces and ids that int() reads in a non-canonical form.
EDGE_LINES = (
    st.tuples(st.integers(0, 12), st.integers(0, 12))
    .filter(lambda e: e[0] != e[1])
    .map(lambda e: f"{e[0]} {e[1]}")
)
ODD_LINES = st.sampled_from(
    ("0 1 2", "a b", "0 0", "1 -2", "0 100000000", "100000000", "-3", "x",
     "", "   ", "\t", "# comment", "  # indented", "0 1 # trailing",
     "0\t1", " 3  4 ", "+1 2", "1_0 3", "\u0663 1", "00 1", "0 01", "0  1")
)


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(EDGE_LINES, max_size=12))
    if lines and draw(st.booleans()):
        lines.append(draw(st.sampled_from(lines)))  # a duplicate edge
    for odd in draw(st.lists(ODD_LINES, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    if draw(st.booleans()):
        lines.insert(0, str(draw(st.integers(0, 14))))  # may be below an id
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(edge_list_texts())
def test_bulk_edge_list_agrees_with_the_line_loop(text):
    try:
        expected = _edge_list_by_line(text)
    except GraphFormatError as exc:
        assert _bulk_edge_list(text) is None
        with pytest.raises(GraphFormatError) as caught:
            parse_edge_list(text)
        assert str(caught.value) == str(exc)
        return
    bulk = _bulk_edge_list(text)
    assert bulk is None or bulk == expected
    assert parse_edge_list(text) == expected


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(
    st.one_of(st.sampled_from((0, 1, 2, 62, 63, 64)), st.integers(0, 200)),
    st.floats(0, 1),
    st.integers(0, 2**32),
    st.integers(0, 63),
)
def test_parse_graph6_agrees_with_the_bit_string_decoder(n, p, graph_seed, padding):
    text = _set_padding(encode_graph6(random_graph(n, p, random.Random(graph_seed))), n, padding)
    assert parse_graph6(text) == decode_graph6_reference(text)


def _set_padding(text: str, n: int, mask: int = 63) -> str:
    """The graph6 text with the padding bits of its last byte that are in
    ``mask`` set; the decoders must ignore them."""
    pad = -(n * (n - 1) // 2) % 6
    if not pad:
        return text
    return text[:-1] + chr(((ord(text[-1]) - 63) | (mask & ((1 << pad) - 1))) + 63)


def test_parse_graph6_at_graph_query_sizes():
    # sizes on both sides of 256, past which CPython caches no int, and the
    # 300-550 vertices of the benchmark's largest graphs, sparse to dense
    rng = random.Random(20261022)
    for n in (255, 256, 300, 547, 600):
        for p in (0.05, 0.5, 0.95):
            g = random_graph(n, p, rng)
            text = _set_padding(encode_graph6(g), n)
            decoded = parse_graph6(text)
            assert decoded == decode_graph6_reference(text) == g
            edges = "".join(f"{u} {v}\n" for u, v in g.edges())
            assert decoded == parse_edge_list(f"{n}\n{edges}")


def test_parse_graph6_shares_one_int_object_per_vertex():
    n = 300
    g = parse_graph6(encode_graph6(random_graph(n, 0.5, random.Random(11))))
    assert len({id(v) for nbrs in g.adj for v in nbrs}) <= n


def test_parse_graph6_known_strings():
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.m == 6
    k1 = parse_graph6("@")
    assert k1.n == 1 and k1.m == 0
    k3 = parse_graph6("Bw")
    assert k3.n == 3 and k3.m == 3


def test_parse_graph6_rejects_bad_bytes():
    with pytest.raises(GraphFormatError):
        parse_graph6("C\x01")
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    # truncated '~' + 3-byte and '~~' + 6-byte vertex counts
    for text in ("~A", "~A?", "~~", "~~@????"):
        with pytest.raises(GraphFormatError, match="truncated graph6 vertex count"):
            parse_graph6(text)
    # the 8-byte header declares n = 2^30; the one-byte body fails the length
    # check before anything of that size is allocated
    with pytest.raises(GraphFormatError, match="body has 1 bytes, .* n=1073741824"):
        parse_graph6("~~@??????")


def test_parse_graph6_names_the_first_bad_byte_deep_in_the_body():
    text = encode_graph6(random_graph(400, 0.5, random.Random(6)))
    assert len(text) > 12_000
    text = text[:10_000] + "!" + text[10_001:12_000] + "\x7f" + text[12_001:]
    with pytest.raises(GraphFormatError) as caught:
        parse_graph6(text)
    assert str(caught.value) == "graph6 byte 33 outside printable range 63..126"
    with pytest.raises(GraphFormatError, match="^graph6 byte 127 outside"):
        parse_graph6(text.replace("!", "?"))


def test_parse_graph6_optional_header():
    assert parse_graph6(">>graph6<<Bw") == parse_graph6("Bw")
    with pytest.raises(GraphFormatError, match="empty"):
        parse_graph6(">>graph6<<")


def test_parse_graph6_rejects_non_ascii():
    # an ASCII encoding with replacement would read "é" as "?", the byte of a
    # zero bit group, and decode "Cé" as the empty graph on 4 vertices
    with pytest.raises(GraphFormatError):
        parse_graph6("Cé")
    with pytest.raises(GraphFormatError):
        parse_graph6("\u00c3~")


def test_graph6_round_trip():
    rng = random.Random(0)
    for _ in range(50):
        g = random_graph(rng.randint(1, 20), rng.random(), rng)
        assert parse_graph6(encode_graph6(g)) == g
    # n >= 63 takes the '~' + 3-byte header
    for n in (62, 63, 64, 65, 100, 129, 130):
        g = random_graph(n, rng.random(), rng)
        text = encode_graph6(g)
        assert text.startswith("~") == (n >= 63)
        assert parse_graph6(text) == g


def test_complement_involution():
    rng = random.Random(1)
    for _ in range(20):
        g = random_graph(rng.randint(1, 12), 0.5, rng)
        assert complement(complement(g)) == g


def test_disjoint_union_and_join_counts():
    a, b = complete_graph(3), path_graph(4)
    u = disjoint_union(a, b)
    j = join(a, b)
    assert u.n == j.n == 7
    assert u.m == a.m + b.m
    assert j.m == a.m + b.m + a.n * b.n
    # labels carry over; an unlabelled side is named by its own vertex ids
    named = Graph.from_edges(2, [(0, 1)], ["x", "y"])
    u = disjoint_union(named, a)
    assert [u.label(v) for v in range(u.n)] == ["x", "y", "0", "1", "2"]
    assert [disjoint_union(a, named).label(v) for v in (2, 3, 4)] == ["2", "x", "y"]


def test_join_is_complement_of_union_of_complements():
    a, b = path_graph(3), complete_graph(2)
    assert join(a, b) == complement(disjoint_union(complement(a), complement(b)))


def test_induced_subgraph_relabels_and_keeps_labels():
    g = Graph.from_edges(5, [(0, 2), (2, 4), (1, 3)])
    s = induced_subgraph(g, {0, 2, 4})
    assert s.n == 3
    assert list(s.edges()) == [(0, 1), (1, 2)]
    assert [s.label(v) for v in range(3)] == ["0", "2", "4"]
    for vertex in (5, -1):
        with pytest.raises(ValueError, match=f"vertex {vertex} out of range"):
            induced_subgraph(g, {0, vertex})


def test_clique_and_independent_set_predicates():
    g = complete_graph(4)
    assert is_clique(g, {0, 1, 2, 3})
    assert not is_independent_set(g, {0, 1})
    assert is_independent_set(g, {2})
    assert is_independent_set(complement(g), range(4))
