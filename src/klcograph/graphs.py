"""Immutable simple undirected graphs and the elementary operations on them.

Vertices are dense integers 0..n-1.  Original display names, when an input
format carries them, live in a side table (``labels``) so results can be
reported in user coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Iterable, Iterator

VertexSet = frozenset[int]

# Largest vertex count an edge list may declare or imply.  Each vertex costs a
# slot in the adjacency tuple, so one edge "0 100000000" would otherwise
# allocate 10^8 of them.  Only a vertex in an edge gets a set of its own, so
# a header declaring 2^20 isolated vertices parses in ~0.01 s and 16 MB, where
# a set per vertex took 2-4 s and ~450 MB; recognizing them takes ~0.3 s
# and peaks at ~214 MB of process RSS (Python 3.11, 2-core VM).
MAX_VERTICES = 2**20

# The adjacency of every vertex in no edge: one shared empty frozenset, so
# that isolated vertices cost no allocation and no garbage-collector work.
_NO_NEIGHBOURS: frozenset[int] = frozenset()


class GraphFormatError(ValueError):
    """Raised when graph input text cannot be parsed."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with adjacency stored as per-vertex frozensets."""

    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency table length does not match vertex count")
        for u, nbrs in enumerate(self.adj):
            if u in nbrs:
                raise ValueError(f"self-loop at vertex {u}")
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise ValueError(f"neighbour {v} of {u} out of range")
                if u not in self.adj[v]:
                    raise ValueError(f"adjacency not symmetric at {u},{v}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length does not match vertex count")

    @classmethod
    def _trusted(
        cls,
        n: int,
        adj: tuple[frozenset[int], ...],
        labels: tuple[str, ...] | None = None,
    ) -> "Graph":
        """A graph whose adjacency is symmetric, loop-free and in range by
        construction, without ``__post_init__``'s O(n + m) scan."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        object.__setattr__(g, "labels", labels)
        return g

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Iterable[str] | None = None,
    ) -> "Graph":
        """Build a graph from an edge iterable; duplicate edges collapse."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        nbrs: list = [_NO_NEIGHBOURS] * n  # a set once a vertex is in an edge
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            a = nbrs[u]
            if a is _NO_NEIGHBOURS:
                a = nbrs[u] = set()
            a.add(v)
            b = nbrs[v]
            if b is _NO_NEIGHBOURS:
                b = nbrs[v] = set()
            b.add(u)
        names = None if labels is None else tuple(labels)
        if names is not None and len(names) != n:
            raise ValueError("labels length does not match vertex count")
        return cls._trusted(n, tuple(map(frozenset, nbrs)), names)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines, with an optional leading line declaring n.

    Blank lines and lines starting with '#' are ignored.  A vertex count
    above ``MAX_VERTICES``, declared or implied by a vertex id, is an error.

    A list in the regular layout is decoded in bulk by ``_bulk_edge_list``.
    Anything else, such as CRLF, tabs, blank lines, comments or ids like
    "+1" or "007", goes through the line loop, which reads it to the same
    graph.  The line loop is the only code that raises ``GraphFormatError``,
    so an error names the first bad line.
    """
    g = _bulk_edge_list(text)
    return g if g is not None else _edge_list_by_line(text)


# Separators of the regular layout, each made a comma for ``json.loads``.
_COMMAS = bytes.maketrans(b" \n", b",,")


def _bulk_edge_list(text: str) -> Graph | None:
    """The graph of an edge list in the regular layout, or None for the line
    loop to decide.

    The layout is an optional one-id first line, then two ids a line: ASCII
    decimal ids without a leading zero, one space between the two ids of a
    line, and one "\n" between lines and at most one after the last.  What is
    left of the bytes once the digits are deleted must then be an optional
    "\n", the header's, and " \n" repeated.  ``json.loads`` reads the ids in
    one call, with each separator made a comma; an id it rejects, such as
    "007" or an empty one, means None.  The ids are checked as the line loop
    checks them (range, ``MAX_VERTICES``, self-loops); nothing here raises.
    """
    if not text.isascii():
        return None
    body = text.encode().removesuffix(b"\n")
    gaps = body.translate(None, b"0123456789") + b"\n"
    header = int(gaps[:1] == b"\n")
    if not body or gaps[header:] != b" \n" * ((len(gaps) - header) // 2):
        return None
    try:
        ids = json.loads(b"[" + body.translate(_COMMAS) + b"]")
    except ValueError:  # a leading zero, an empty id or too many digits
        return None
    ends = set(islice(ids, header, None))  # the vertices in an edge
    top = max(ends, default=-1)
    n = ids[0] if header else top + 1
    if top >= n or n > MAX_VERTICES:
        return None
    nbrs: list = [_NO_NEIGHBOURS] * n
    for x in ends:
        nbrs[x] = set()
    pairs = islice(ids, header, None)
    for u, v in zip(pairs, pairs):
        nbrs[u].add(v)
        nbrs[v].add(u)
    if any(x in nbrs[x] for x in ends):  # a self-loop
        return None
    for x in ends:  # each set is freed as soon as it is frozen
        nbrs[x] = frozenset(nbrs[x])
    return Graph._trusted(n, tuple(nbrs))


def _edge_list_by_line(text: str) -> Graph:
    """``parse_edge_list`` one line at a time, raising on the first bad line."""
    declared: int | None = None
    edges: list[tuple[int, int]] = []
    max_seen = -1
    lines = [
        ln
        for ln in (raw.strip() for raw in text.splitlines())
        if ln and not ln.startswith("#")
    ]
    if not lines:
        raise GraphFormatError("empty input")
    start = 0
    first = lines[0].split()
    if len(first) == 1:
        try:
            declared = int(first[0])
        except ValueError as exc:
            raise GraphFormatError(f"malformed line: {lines[0]!r}") from exc
        if declared < 0:
            raise GraphFormatError("declared vertex count must be non-negative")
        start = 1
    for ln in lines[start:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"malformed line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"malformed line: {ln!r}") from exc
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative vertex id in line {ln!r}")
        if u == v:
            raise GraphFormatError(f"self-loop {u} {v}")
        if declared is not None and (u >= declared or v >= declared):
            raise GraphFormatError(f"vertex id in {ln!r} exceeds declared count {declared}")
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    n = declared if declared is not None else max_seen + 1
    if n > MAX_VERTICES:
        raise GraphFormatError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    return Graph.from_edges(n, edges)


# The bytes graph6 may hold, 63..126, each one group of six bits.
_G6_BYTES = bytes(range(63, 127))

# The six bits of each graph6 byte, most significant first, as 0/1 bytes,
# indexed by the raw byte; the bytes outside 63..126 are rejected first.
_G6_BITS = tuple(
    bytes(((b - 63) >> s) & 1 for s in range(5, -1, -1)) if b in _G6_BYTES else b""
    for b in range(256)
)


def _graph6_read_n(data: bytes) -> tuple[int, bytes]:
    if data[0] != 126:  # '~'
        return data[0] - 63, data[1:]
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 vertex count")
        n = 0
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
        return n, data[4:]
    if len(data) < 8:
        raise GraphFormatError("truncated graph6 vertex count")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - 63)
    return n, data[8:]


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (column-major upper-triangle bit order).

    Every header, length and byte-range check runs before decoding, so a
    malformed string raises ``GraphFormatError`` with no partial work and
    before anything of size n^2 is allocated.  The body is expanded to one
    0/1 byte per vertex pair.  Column j of those bits is vertex j's lower
    neighbours, and the n x n byte matrix whose row j is column j padded
    with zeros holds j's upper neighbours in its column j below the
    diagonal, one strided slice.  Each adjacency set is built in C from the
    two, over one shared list of the n ids.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 input")
    if not s.isascii():
        raise GraphFormatError("graph6 input contains a non-ASCII character")
    data = s.encode("ascii")
    if data.translate(None, _G6_BYTES):
        bad = next(b for b in data if b not in _G6_BYTES)
        raise GraphFormatError(f"graph6 byte {bad} outside printable range 63..126")
    n, rest = _graph6_read_n(data)
    nbits = n * (n - 1) // 2
    if len(rest) != (nbits + 5) // 6:
        raise GraphFormatError(
            f"graph6 body has {len(rest)} bytes, expected {(nbits + 5) // 6} for n={n}"
        )
    # column j is the j pairs (0, j) .. (j-1, j), vertex j's lower neighbours;
    # the padding bits past the last column are never read
    bits = b"".join([_G6_BITS[b] for b in rest])
    vs = list(range(n))  # one int object per vertex, shared by every set
    cols = [bits[(j * j - j) >> 1 : (j * j + j) >> 1] for j in vs]
    # the n x n matrix whose row j is column j padded with zeros; its column
    # j from the diagonal down is a 0 for j itself, then j's upper neighbours
    low = b"".join([col.ljust(n, b"\0") for col in cols])
    diagonal = range(0, n * n, n + 1)
    adj = [frozenset(compress(vs, col + low[d::n])) for col, d in zip(cols, diagonal)]
    return Graph._trusted(n, tuple(adj))


def complement(g: Graph) -> Graph:
    full = frozenset(range(g.n))
    adj = tuple(full - g.adj[v] - {v} for v in range(g.n))
    return Graph._trusted(g.n, adj, g.labels)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = g.adj + tuple(frozenset(w + g.n for w in h.adj[v]) for v in range(h.n))
    labels = None
    if g.labels is not None or h.labels is not None:
        labels = tuple(g.label(v) for v in range(g.n)) + tuple(
            h.label(v) for v in range(h.n)
        )
    return Graph._trusted(g.n + h.n, adj, labels)


def join(g: Graph, h: Graph) -> Graph:
    """Every vertex of g joined to every vertex of h: the complement of the
    disjoint union of the two complements."""
    return complement(disjoint_union(complement(g), complement(h)))


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Induced subgraph on s, relabelled 0..|s|-1 in increasing order of id.

    The original identities are retained as labels of the result.
    """
    vs = sorted(set(s))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(vs)}
    members = frozenset(vs)
    adj = tuple(
        frozenset(index[w] for w in g.adj[v] & members) for v in vs
    )
    return Graph._trusted(len(vs), adj, tuple(g.label(v) for v in vs))


def is_independent_set(g: Graph, s: Iterable[int]) -> bool:
    vs = frozenset(s)
    return all(not (g.adj[v] & vs) for v in vs)


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    vs = frozenset(s)
    return all(vs - g.adj[v] == {v} for v in vs)
