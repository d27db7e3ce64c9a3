"""Shared fixtures and graph utilities for the test suite."""

from __future__ import annotations

import functools
import gc
import itertools
import random
import statistics
import time

from hypothesis import strategies as st

from klcograph import (
    Cotree,
    CotreeNode,
    Graph,
    build_cotree,
    check_cotree,
    complement,
    cotree_from_text,
    disjoint_union,
    join,
    random_cotree,
)
from klcograph import cotree


def postorder(root: CotreeNode) -> list[CotreeNode]:
    """Every node of a tree of nodes, such as a cotree's ``root`` view, after
    its children, children left to right, as a list; the walk keeps an
    explicit stack, since trees can be deep."""
    order: list[CotreeNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    order.reverse()
    return order


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def l_copies_of_k_clique(l: int, k: int) -> Graph:
    """lK_k: disjoint union of l cliques of size k."""
    g = complete_graph(k)
    for _ in range(l - 1):
        g = disjoint_union(g, complete_graph(k))
    return g


def wide_and_tied_cotrees(seed: int, count: int) -> list[Cotree]:
    """Inputs where a node's largest child need not come first.

    ``count`` random cotrees with up to 2, 4, 8 or 16 children per node, so
    the largest child often sits between smaller siblings, then the cotrees
    of lK_k and of its complement, whose siblings all tie in size.
    """
    rng = random.Random(seed)
    trees = [
        random_cotree(rng.randint(1, 80), rng, max_children=rng.choice((2, 4, 8, 16)))
        for _ in range(count)
    ]
    for l in range(1, 5):
        for k in range(1, 5):
            g = l_copies_of_k_clique(l, k)
            trees += [build_cotree(g), build_cotree(complement(g))]
    return trees


@st.composite
def cotrees(draw, max_leaves: int = 40) -> Cotree:
    """Cotrees for property tests, with shapes that shrink to small trees.

    Three kinds, each with either root label: wide random shapes with 2 to 16
    children per node, so that leaves often sit on both sides of a node's
    largest child; deep chains with one leaf per level, hung left or right
    of the spine; and lK_k or its complement, whose siblings all tie in size.
    Leaf ids are a drawn permutation.
    """
    kind = draw(st.sampled_from(("wide", "deep", "ties")))
    top = draw(st.integers(0, 1))
    if kind == "ties":
        g = l_copies_of_k_clique(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
        return build_cotree(complement(g) if top else g)
    if kind == "deep":
        sides = draw(st.lists(st.booleans(), max_size=max_leaves - 1))
        ids = draw(st.permutations(range(len(sides) + 1)))
        node = CotreeNode(vertex=ids[0])
        label = top if len(sides) % 2 else 1 - top
        for v, left in zip(ids[1:], sides):
            leaf = CotreeNode(vertex=v)
            node = CotreeNode(label=label, children=[leaf, node] if left else [node, leaf])
            label = 1 - label
        return Cotree(node, len(ids))
    n = draw(st.integers(1, max_leaves))
    ids = iter(draw(st.permutations(range(n))))
    root = CotreeNode()
    stack = [(root, n, top)]  # (node, leaf budget, label if internal)
    while stack:
        node, budget, label = stack.pop()
        if budget == 1:
            node.vertex = next(ids)
            continue
        node.label = label
        count = draw(st.integers(2, min(16, budget)))
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(1, budget - 1),
                    min_size=count - 1,
                    max_size=count - 1,
                    unique=True,
                )
            )
        )
        for a, b in zip([0] + cuts, cuts + [budget]):
            child = CotreeNode()
            node.children.append(child)
            stack.append((child, b - a, 1 - label))
    return Cotree(root, n)


def cotree_from_text_reference(text: str) -> Cotree:
    """Character-by-character reader of ``cotree_to_text``'s form, the
    reference for ``cotree_from_text``: the same trees and the same errors."""
    pos = 0
    leaves = 0
    root_box: list[CotreeNode] = []
    open_nodes: list[CotreeNode] = []  # internal nodes whose ')' is pending
    while True:
        start = pos
        while pos < len(text) and text[pos] not in "(),":
            pos += 1
        token = text[start:pos].strip()
        sink = open_nodes[-1].children if open_nodes else root_box
        if pos < len(text) and text[pos] == "(":
            if token not in ("0", "1"):
                raise ValueError(f"bad internal node label {token!r}")
            pos += 1  # consume '('
            node = CotreeNode(label=int(token))
            sink.append(node)
            open_nodes.append(node)
            continue  # its first child comes next
        if not token:
            raise ValueError("empty leaf name in cotree text")
        sink.append(CotreeNode(vertex=int(token)))
        leaves += 1
        # a node just ended: a ',' starts its next sibling, a ')' ends its parent
        while open_nodes and pos < len(text) and text[pos] == ")":
            pos += 1
            open_nodes.pop()
        if not open_nodes:
            break
        if pos >= len(text) or text[pos] != ",":
            raise ValueError("unbalanced parentheses in cotree text")
        pos += 1  # consume ','
    if text[pos:].strip():
        raise ValueError("trailing characters after cotree text")
    t = Cotree(root_box[0], leaves)
    check_cotree(t)
    return t


def random_cotree_reference(
    n: int,
    seed: int | random.Random = 0,
    max_children: int = 4,
) -> Cotree:
    """The generator as first written, drawing through ``randint`` and
    ``sample``: the reference for ``random_cotree``, which must make the
    same draws and return the same lists."""
    if n < 1:
        raise ValueError("need at least one leaf")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    # the walk meets the nodes in the reverse of postorder, so it writes the
    # lists backwards, and the leaves right to left
    codes: list[int] = []
    counts: list[int] = []
    bigs: list[int] = []
    leaves = n
    # (budget, forced label or None)
    stack: list[tuple[int, int | None]] = [(n, None)]
    while stack:
        budget, label = stack.pop()
        if budget == 1:
            leaves -= 1
            codes.append(leaves)
            counts.append(0)
            bigs.append(0)
            continue
        if label is None:
            label = rng.randrange(2)
        t = rng.randint(2, min(max_children, budget))
        cuts = sorted(rng.sample(range(1, budget), t - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        codes.append(~label)
        counts.append(t)
        bigs.append(parts.index(max(parts)))
        below = 1 - label
        stack.extend([(part, below) for part in parts])
    codes.reverse()
    counts.reverse()
    bigs.reverse()
    return Cotree._of(codes, counts, bigs, n)


def build_cotree_reference(g: Graph) -> Cotree | cotree.P4Witness:
    """The recognizer as it was before it read parts off degree buckets, one
    component search per vertex set: the reference for ``build_cotree``,
    which must return the same lists, or the same P4."""
    if g.n == 0:
        raise ValueError("cotree construction requires at least one vertex")
    codes: list[int] = []
    counts: list[int] = []
    bigs: list[int] = []
    # stack entries: (vertex set, node labels still to try; label 1 searches
    # the complement), or (None, (code, count, big)) of a node to write
    stack: list[tuple] = [(set(range(g.n)), (0, 1))]
    while stack:
        vertices, labels = stack.pop()
        if vertices is None:
            code, count, big = labels
            codes.append(code)
            counts.append(count)
            bigs.append(big)
            continue
        if len(vertices) == 1:
            codes.append(next(iter(vertices)))
            counts.append(0)
            bigs.append(0)
            continue
        for label in labels:
            parts = cotree._components(g, vertices, label)
            if len(parts) > 1:
                break
        else:
            witness = cotree._p4_in_module(g, vertices)
            if not witness.holds_in(g):
                raise RuntimeError("P4 witness does not hold in the graph")
            return witness
        parts.sort(key=lambda p: (len(p), min(p)), reverse=True)
        # reversed pushes keep child order: the children run from the last
        # part, so the first largest child is the last part as large as parts[0]
        tied = 1
        while tied < len(parts) and len(parts[tied]) == len(parts[0]):
            tied += 1
        stack.append((None, (~label, len(parts), len(parts) - tied)))
        below = (1 - label,)
        stack.extend([(part, below) for part in parts])
    return Cotree._of(codes, counts, bigs, g.n, g.labels)


def subcotree(root: CotreeNode, vertices) -> Cotree:
    """A copy of the cotree under ``root`` for the subgraph that ``vertices``
    induce, leaves renumbered by rank.  A node left with one child is merged
    into it, as a benchmark check does, so a child may repeat its parent's
    label; kappa does not depend on vertex names."""
    keep = set(vertices)
    order = postorder(root)
    rank = {v: i for i, v in enumerate(sorted(x.vertex for x in order if x.vertex in keep))}
    built: dict[int, CotreeNode | None] = {}
    for x in order:
        if not x.children:
            built[id(x)] = CotreeNode(vertex=rank[x.vertex]) if x.vertex in rank else None
            continue
        kids = [b for c in x.children if (b := built[id(c)]) is not None]
        if len(kids) > 1:
            built[id(x)] = CotreeNode(label=x.label, children=kids)
        else:
            built[id(x)] = kids[0] if kids else None
    return Cotree(built[id(root)], len(rank))


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def induces_p4(g: Graph, quad) -> bool:
    """Do the four vertices induce a path?  Three edges with degrees 1, 1, 2, 2."""
    members = set(quad)
    return sorted(len(g.adj[x] & members) for x in quad) == [1, 1, 2, 2]


def has_induced_p4(g: Graph) -> bool:
    """Brute-force reference for recognition: tries every 4-vertex subset."""
    return any(induces_p4(g, q) for q in itertools.combinations(range(g.n), 4))


def has_induced_p4_through(g: Graph, u: int, v: int) -> bool:
    """Brute force over the 4-vertex subsets that contain both u and v."""
    others = [x for x in range(g.n) if x != u and x != v]
    return any(induces_p4(g, (u, v, a, b)) for a, b in itertools.combinations(others, 2))


def flip_pair(g: Graph, u: int, v: int) -> Graph:
    """g with the adjacency of u and v toggled."""
    adj = [set(s) for s in g.adj]
    adj[u] ^= {v}
    adj[v] ^= {u}
    return Graph(g.n, tuple(frozenset(s) for s in adj))


# The 7-vertex worked example: two triangles sharing structure through a
# middle vertex; it contains an induced P4, so only the oracle applies.
EXAMPLE_7 = Graph.from_edges(
    7,
    [(0, 1), (0, 2), (1, 2), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)],
)


def encode_graph6(g: Graph) -> str:
    """graph6 encoder, for round-trip tests of the decoder.

    n <= 62 takes a one-byte header; up to 258047 it takes '~' and three
    6-bit bytes, most significant first.
    """
    if g.n <= 62:
        header = [chr(g.n + 63)]
    elif g.n <= 258047:
        header = ["~"] + [chr(((g.n >> shift) & 63) + 63) for shift in (12, 6, 0)]
    else:
        raise ValueError("encoder supports n <= 258047 only")
    bits = []
    for col in range(1, g.n):
        for row in range(col):
            bits.append(1 if g.has_edge(row, col) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = header
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = (value << 1) | b
        out.append(chr(value + 63))
    return "".join(out)


def decode_graph6_reference(text: str) -> Graph:
    """Bit-string graph6 decoder, the reference for ``parse_graph6``.

    Takes a well-formed string with n <= 258047: one '0'/'1' character per
    bit, zipped with the vertex pairs in column-major upper-triangle order.
    """
    data = text.strip().encode("ascii")
    if data[0] == 126:  # '~'
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    bits = "".join(format(b - 63, "06b") for b in body)
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return Graph.from_edges(n, [pair for pair, bit in zip(pairs, bits) if bit == "1"])


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """All graphs on exactly n vertices, one per isomorphism class: the first
    of each class in the order of the edge subsets.  A new class marks its
    whole orbit as seen, so each class costs n! relabellings, not each graph."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen: set[tuple] = set()
    out = []
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        edges = tuple(e for e, take in zip(pairs, picks) if take)  # sorted
        if edges in seen:
            continue
        seen.update(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in perms
        )
        out.append(Graph.from_edges(n, edges))
    return out


@functools.lru_cache(maxsize=None)
def _shapes(n: int) -> tuple[tuple, ...]:
    """Every series-reduced rooted tree with n leaves, up to isomorphism: a
    leaf is (), an internal node the tuple of its two or more children's
    shapes.  The children are listed in the non-increasing order of their
    (leaf count, index in ``_shapes`` of that count), so each multiset of
    children is made once."""
    if n == 1:
        return ((),)
    out = []
    stack = [(n, (n - 1, len(_shapes(n - 1)) - 1), ())]  # (leaves left, last key, kids)
    while stack:
        left, (size, index), kids = stack.pop()
        if not left:
            out.append(kids)
            continue
        for part in range(min(left, size), 0, -1):
            top = index if part == size else len(_shapes(part)) - 1
            stack += [
                (left - part, (part, i), kids + (_shapes(part)[i],)) for i in range(top + 1)
            ]
    return tuple(out)


def all_cotrees(n: int) -> list[Cotree]:
    """One canonical cotree per cograph on n vertices, up to isomorphism: each
    series-reduced shape with either root label (a lone leaf has none), and
    the leaves numbered left to right.  Their counts are OEIS A000084."""

    def text(shape: tuple, label: int) -> str:
        if not shape:
            return "{}"
        return f"{label}(" + ",".join(text(kid, 1 - label) for kid in shape) + ")"

    return [
        cotree_from_text(text(shape, label).format(*range(n)))
        for shape in _shapes(n)
        for label in ((0, 1) if shape else (0,))
    ]


def _timed(fn, tree):
    """Wall time of one call fn(tree), with the garbage collector off meanwhile."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        fn(tree)
        return time.perf_counter() - begin
    finally:
        if was_enabled:
            gc.enable()


def _doubling_ratio(fn, small, big, trials=5):
    """Median over trials of time(fn(big)) / time(fn(small)).

    Each trial times the two trees back to back, so a drift in machine speed
    that lasts longer than one trial scales both timings alike and cancels in
    the ratio; timing each size on its own, seconds apart, would not.
    """
    ratios = []
    for _ in range(trials):
        small_time = _timed(fn, small)
        ratios.append(_timed(fn, big) / small_time)
    return statistics.median(ratios)
