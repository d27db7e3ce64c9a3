"""Shared fixtures and graph utilities for the test suite."""

from __future__ import annotations

import gc
import itertools
import random
import statistics
import time

from klcograph import (
    Cotree,
    Graph,
    build_cotree,
    complement,
    disjoint_union,
    join,
    random_cotree,
)


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
    """All graphs on exactly n vertices, one per isomorphism class."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen: set[tuple] = set()
    out = []
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        edges = [e for e, take in zip(pairs, picks) if take]
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(Graph.from_edges(n, edges))
    return out


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
