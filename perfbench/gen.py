"""Seeded benchmark inputs: size classes, cotree walks, graph encoders, near-cographs.

Everything here is written against plain node attributes (``label``,
``vertex``, ``children``) so that the benchmark builds and checks inputs
without going through the parse, recognition or serialization layers it
measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def size_classes(classes, rng, spread: float = 0.08) -> list[int]:
    """Sizes for one round: ``count`` inputs around each ``(centre, count)`` class.

    The sizes of a class are stratified over centre * (1 +- spread).  Classes
    with several inputs each keep the median and the tail rank of a run inside
    a class rather than on the gap between two sizes, where noise would decide
    which side they land on.
    """
    sizes = []
    for centre, count in classes:
        for j in range(count):
            u = (j + rng.random()) / count
            sizes.append(round(centre * (1 + spread * (2 * u - 1))))
    return sizes


def postorder(root):
    """Iterative post-order over cotree nodes (trees can be thousands deep)."""
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or not node.children:
            yield node
            continue
        stack.append((node, True))
        for child in reversed(node.children):
            stack.append((child, False))


def tree_shape(root) -> tuple[int, int]:
    """(node count, depth in edges) of a cotree."""
    nodes = 0
    depth = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in node.children)
    return nodes, depth


def edge_count(root) -> int:
    """Edges of the represented graph, from the leaf counts of the subtrees."""
    m = 0
    for node in postorder(root):
        if node.label == 1 and node.children:
            sizes = [c.size for c in node.children]
            total = sum(sizes)
            m += (total * total - sum(s * s for s in sizes)) // 2
    return m


# Edge-density window of half_dense_cotree: m ~ n^2/4, as for the deep family.
DENSITY_LO, DENSITY_HI = 0.46, 0.54


def half_dense_cotree(lib, n: int, rng):
    """A random cotree whose graph has about n^2/4 edges (density in the window above)."""
    pairs = n * (n - 1) / 2
    while True:
        tree = lib.random_cotree(n, rng.randrange(2**32))
        if DENSITY_LO <= edge_count(tree.root) / pairs <= DENSITY_HI:
            return tree


def cotree_adjacency(root, n: int) -> list[set[int]]:
    """Adjacency of the graph a cotree represents: u~v iff their LCA is a 1-node."""
    adj: list[set[int]] = [set() for _ in range(n)]
    leaves: dict[int, list[int]] = {}
    for node in postorder(root):
        if not node.children:
            leaves[id(node)] = [node.vertex]
            continue
        merged: list[int] = []
        for child in node.children:
            part = leaves.pop(id(child))
            if node.label == 1:
                for u in part:
                    adj[u].update(merged)
                for v in merged:
                    adj[v].update(part)
            merged.extend(part)
        leaves[id(node)] = merged
    return adj


def clone_cotree(lib, t):
    """Structural copy of a cotree, so that no query sees an object twice."""
    node_cls = lib.CotreeNode
    built: dict[int, object] = {}
    for node in postorder(t.root):
        if not node.children:
            copy = node_cls(vertex=node.vertex)
        else:
            copy = node_cls(
                label=node.label, children=[built.pop(id(c)) for c in node.children]
            )
        copy.size = node.size
        built[id(node)] = copy
    return type(t)(built[id(t.root)], t.n, t.labels)


def edge_list_text(adj: list[set[int]]) -> str:
    """Edge-list encoding with a leading vertex-count line."""
    lines = [str(len(adj))]
    for u, nbrs in enumerate(adj):
        lines.extend(f"{u} {v}" for v in sorted(nbrs) if u < v)
    return "\n".join(lines) + "\n"


def graph6_text(adj: list[set[int]]) -> str:
    """graph6 encoding: size header, then the upper triangle column by column."""
    n = len(adj)
    if n < 63:
        out = [chr(63 + n)]
    elif n < 1 << 18:
        out = ["~"] + [chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)]
    else:
        raise ValueError("graph too large for this encoder")
    acc = 0
    nbits = 0
    for j in range(1, n):
        nbrs = adj[j]
        for i in range(j):
            acc = (acc << 1) | (i in nbrs)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out) + "\n"


def random_graph(n: int, p: float, rng) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def _has_p4_through(adj: list[set[int]], u: int, v: int) -> bool:
    """Does some induced P4 use the edge uv?  (u ~ v is assumed.)"""
    nu, nv = adj[u], adj[v]
    a_side = nu - nv - {v}
    d_side = nv - nu - {u}
    for a in a_side:  # a-u-v-d
        if d_side - adj[a]:
            return True
    for c in a_side | d_side:  # u-v-c-d or v-u-c-d
        if adj[c] - nu - nv - {u, v}:
            return True
    return False


FLIP_TRIES = 200  # pair draws before near_cograph gives up


def near_cograph(
    adj: list[set[int]], rng, position: float, kind: int
) -> tuple[list[set[int]], tuple[int, int]]:
    """Flip one vertex pair u < v of a cograph so that the result has an induced P4.

    v sits near ``position * n``.  ``kind`` (0..3) fixes two parities: bit 0
    is that of n - 1 - v, bit 1 that of v - u.  On the deep family, where
    vertex n - 1 - d hangs at depth d, these decide most of the query's cost:
    v how far down the recognizer gets before it meets the P4, and the
    parities, that is the labels u and v hang from, whether its P4 search
    then scans most edges or stops at once.  Callers stratify both.  Any P4
    created by one flip contains both flipped vertices, so only P4s through
    that pair are searched.  A P4 is its own complement, so a removed edge is
    searched for in the complement, where it is an added edge.
    """
    n = len(adj)
    full = set(range(n))
    gap = 2 - (kind >> 1)  # smallest v - u of the asked parity
    for i in range(FLIP_TRIES):
        v = min(n - 1, max(gap + 1, int((position + 0.02 * i * rng.random()) % 1 * n)))
        v -= (n - 1 - v - kind) % 2
        u = v - gap - 2 * rng.randrange((v - gap) // 2 + 1)
        flipped = [set(s) for s in adj]
        flipped[u] ^= {v}
        flipped[v] ^= {u}
        view = flipped
        if v not in flipped[u]:
            view = [full - s - {x} for x, s in enumerate(flipped)]
        if _has_p4_through(view, u, v):
            return flipped, (u, v)
    raise RuntimeError("no pair flip produced an induced P4")


@dataclass
class Input:
    """One generated input and what the benchmark knows about it.

    Large graphs keep only their cotree (and flipped pair); the adjacency is
    rebuilt for checking and dropped again, so that the harness's own memory
    stays small next to the program's in ``peak_rss_mb``.
    """

    family: str
    n: int
    tree: object = None  # cotree, when the input is a cograph
    adj: list[set[int]] | None = None  # small random graphs
    base: object = None  # near-cographs: cotree of the graph before the flip
    flip: tuple[int, int] | None = None
    m: int = 0
    texts: dict[str, str] = field(default_factory=dict)  # format -> encoded text
    params: tuple = ()  # per-input query parameters
    info: dict = field(default_factory=dict)  # check-time caches, dropped after each check

    def adjacency(self) -> list[set[int]]:
        if self.adj is not None:
            return self.adj
        if "adj" not in self.info:
            adj = cotree_adjacency((self.tree or self.base).root, self.n)
            if self.flip:
                u, v = self.flip
                adj[u] ^= {v}
                adj[v] ^= {u}
            self.info["adj"] = adj
        return self.info["adj"]

    def record(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "m": self.m,
            "bytes": {fmt: len(text) for fmt, text in self.texts.items()},
        }
