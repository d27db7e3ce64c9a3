"""Cograph recognition, cotrees and P4 witnesses.

Construction splits each vertex set into the connected components of the
graph (0-nodes) or of its complement (1-nodes).  The parts of a 0-node are
connected and those of a 1-node co-connected, so below the root each set
needs one split only.  Degrees settle most splits: a vertex isolated in its
set, or universal in it, is a part of its own, found in a degree bucket, and
one vertex of the other kind proves that the vertices left are one part.
Only what remains is searched, with one search that serves the graph and its
complement by swapping two set operations.  A search on a set S costs
O(|S|^2) set-element operations, so recognition is O(n^2) per cotree level
that needs one and O(n^3) in the worst case.  Measured (Python 3.11, 2
cores), the deep alternating family, which splits one vertex off per level
and needs no search, takes 0.9-1.0, 1.8-2.0 and 3.9-4.1 ms at n = 512, 1024
and 2048, 2x per doubling; random cotrees take 3.7-3.9, 12.3-12.6 and 39-42
ms, 3.2x per doubling, about as the edge count; 2^20 isolated vertices take
0.3 s.  A set that does not split induces a P4, which is read off it in
O(|S|^2).  Linear-time recognition (Corneil, Perl and Stewart, 1985) is not
implemented.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
import json
from json.decoder import scanstring
import re
import reprlib
from typing import NoReturn
import weakref

from .graphs import Graph


@dataclass(frozen=True)
class P4Witness:
    """Four vertices a-b-c-d inducing a path: ab, bc, cd edges; ac, ad, bd non-edges."""

    a: int
    b: int
    c: int
    d: int

    def vertices(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def holds_in(self, g: Graph) -> bool:
        a, b, c, d = self.vertices()
        if len({a, b, c, d}) != 4:
            return False
        return (
            g.has_edge(a, b)
            and g.has_edge(b, c)
            and g.has_edge(c, d)
            and not g.has_edge(a, c)
            and not g.has_edge(a, d)
            and not g.has_edge(b, d)
        )


class CotreeNode:
    """Node of a tree given to, or read from, a ``Cotree``.  Leaves carry a
    vertex id, internal nodes a 0/1 label.

    ``size`` is the node's leaf count (1 at a leaf from the start), which
    ``Cotree.root`` sets at every internal node and the ``Cotree``
    constructor never reads.  Leaves share one empty tuple of ``children``
    unless given a list.
    """

    __slots__ = ("label", "vertex", "children", "size", "__weakref__")

    def __init__(
        self,
        label: int | None = None,
        vertex: int | None = None,
        children: list["CotreeNode"] | None = None,
    ) -> None:
        self.label = label
        self.vertex = vertex
        self.children = ([] if vertex is None else ()) if children is None else children
        self.size = 0 if vertex is None else 1


# Codes that no well-formed cotree has, kept for the one check to reject in
# postorder: a label other than 0 and 1, and a negative leaf id v as v - 3.
_BAD_LABEL = -3


@dataclass(frozen=True, init=False)
class Cotree:
    """Rooted labelled decomposition tree, canonical when children alternate labels.

    The tree is three parallel lists over its nodes in postorder (each node
    after its children, children left to right): ``codes`` holds the vertex
    id (>= 0) at a leaf and ``~label`` (-1 at a 0-node, -2 at a 1-node) at an
    internal node, ``counts`` the child count, and ``bigs`` the index of the
    first child with the most leaves (0 at a leaf).  No list changes after
    construction, so trees may share them.  ``root`` is a view: a tree of
    ``CotreeNode`` built from the lists when asked for, and returned again
    while it is still in use; the cotree holds only a weak reference to it.

    ``Cotree(root, n, labels)`` reads a tree of nodes with ``_unfold``; ``root``
    is built by ``_fold``.  The constructor raises ValueError unless the leaves
    are the ints 0..n-1 once each, each internal node has the int label 0 or 1
    and two or more children, and ``labels``, if given, has n names.  It allows
    a child that repeats its parent's label, as merging one-child nodes leaves
    it: the graph is the same.  The readers and ``check_cotree`` reject that.
    """

    n: int
    labels: tuple[str, ...] | None = field(compare=False)
    codes: list[int] = field(repr=False, hash=False)
    counts: list[int] = field(repr=False, hash=False)
    bigs: list[int] = field(repr=False, hash=False)

    def __init__(
        self, root: CotreeNode, n: int, labels: tuple[str, ...] | None = None
    ) -> None:
        if labels is not None and len(labels) != n:
            raise ValueError(f"{len(labels)} labels for n = {n} vertices")

        def parts(node: CotreeNode) -> tuple[int, object]:
            v = node.vertex
            if v is None:
                label = node.label
                # type(...) is int: True and 1.0 equal 1, but are no id or label
                ok = type(label) is int and label in (0, 1)
                return (~label if ok else _BAD_LABEL), node.children
            if type(v) is int:
                return (v if v >= 0 else v - 3), ()
            raise ValueError(f"bad leaf vertex {v}")

        codes, counts = _unfold(root, parts)
        bigs, _ = _check_lists(codes, counts, n)
        vars(self).update(n=n, labels=labels, codes=codes, counts=counts, bigs=bigs)

    @classmethod
    def _of(
        cls,
        codes: list[int],
        counts: list[int],
        bigs: list[int],
        n: int,
        labels: tuple[str, ...] | None = None,
    ) -> "Cotree":
        """The cotree of lists that its producer built well formed; unchecked."""
        t = object.__new__(cls)
        vars(t).update(n=n, labels=labels, codes=codes, counts=counts, bigs=bigs)
        return t

    @classmethod
    def _checked(cls, codes: list[int], counts: list[int], n: int) -> "Cotree":
        """The cotree of a reader's lists, n of them leaves, checked as
        ``check_cotree`` checks."""
        bigs, repeats = _check_lists(codes, counts, n)
        if repeats:
            raise ValueError("child repeats parent label in a cotree")
        return cls._of(codes, counts, bigs, n)

    @property
    def root(self) -> CotreeNode:
        """The tree as nodes, each with its ``size``."""
        view = vars(self).get("_view")  # a weak reference is never false
        root = view and view()
        if root is not None:
            return root

        def internal(label: int, kids: list[CotreeNode], _big: int) -> CotreeNode:
            node = CotreeNode(label=label, children=kids)
            node.size = sum([kid.size for kid in kids])
            return node

        # CotreeNode(None, v) is the leaf of v, with its size
        root = _fold(self, partial(CotreeNode, None), internal)
        vars(self)["_view"] = weakref.ref(root)
        return root

    def __getstate__(self) -> dict:
        """The fields, for pickle and copy, without the weak reference."""
        return {k: v for k, v in vars(self).items() if k != "_view"}

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


def _fold(t: Cotree, leaf, internal):
    """The one bottom-up walk, over the lists: ``leaf(vertex)`` at a leaf,
    ``internal(label, values, big)`` at an internal node, with ``values`` a
    new list of its children's results in order and ``big`` its entry of
    ``bigs``; returns the root's.  Results wait on a value stack, so a
    node's children are its top ``count`` entries."""
    stack: list = []
    for code, count, big in zip(t.codes, t.counts, t.bigs):
        if code >= 0:
            stack.append(leaf(code))
        else:
            stack[-count:] = [internal(~code, stack[-count:], big)]
    return stack[0]


def _unfold(root, parts) -> tuple[list[int], list[int]]:
    """The unchecked ``codes`` and ``counts`` of a nested tree, where ``parts(node)``
    returns its code and its children in order; the walk meets the nodes in the
    reverse of postorder, on an explicit stack, and reverses the lists once."""
    codes: list[int] = []
    counts: list[int] = []
    stack = [root]
    while stack:
        code, kids = parts(stack.pop())
        codes.append(code)
        counts.append(len(kids))
        stack.extend(kids)
    codes.reverse()
    counts.reverse()
    return codes, counts


def _descend(t: Cotree, kept: list, demand, internal) -> None:
    """The top-down mirror of ``_fold``: the root gets ``demand``, and
    ``internal(label, values, big, demand)`` at an internal node returns its
    children's demands in child order, where ``values`` are the children's
    results that a fold's ``internal`` appended to ``kept``, one flat list,
    in postorder.  A leaf's demand is the list its vertex joins.  A None
    demand skips a subtree: none of its nodes gets a call.

    The lists are walked backwards, which meets each node before its
    children and the children right to left, so the internal nodes come in
    the reverse of the order ``kept`` was appended in, and each takes its
    ``count`` values off the end, which frees them as the walk goes.  A
    node's children's demands wait on a stack, the last child's on top.
    While a subtree is skipped, ``skip`` counts its nodes not yet passed
    whose parent has been."""
    stack = [demand]
    pop, push = stack.pop, stack.extend
    skip = 0
    for code, count, big in zip(reversed(t.codes), reversed(t.counts), reversed(t.bigs)):
        if skip:
            skip += count - 1
        else:
            d = pop()
            if d is None:  # a leaf's count is 0, so nothing is skipped
                skip = count
            elif code >= 0:
                d.append(code)
            else:
                push(internal(~code, kept[-count:], big, d))
        if count:
            del kept[-count:]


# One search serves the graph and its complement.  It pops the frontier one
# vertex at a time, which shrinks the set of vertices not yet reached as it
# goes.  Once the frontier holds four times as many vertices as that set, each
# of those vertices is instead tested against the whole frontier at once, and
# the frontier is spent.  So a search does not pop its whole last layer just
# to learn that the few vertices left over lie outside the component.
# (Measured with Python 3.11 on 2 cores, median of 16 rounds: without the
# switch, graph-query's 21 seed-1 near-deep graphs took 10.1 ms a round
# against 9.5, and its 21 near-random ones 15.9 against 15.4; on
# random_cotree(n, s, 4), n = 512-2048, the two read alike.  Switching at a
# frontier as large as the unreached set took 10.4 ms on the near-deep
# round, as each test scans the frontier until it meets a non-neighbour.)
# A search starts at ``todo.pop()``, which resumes its scan of the set's
# slots where the previous pop stopped; ``next(iter(todo))`` would rescan
# every slot that earlier searches emptied, so C parts would cost O(C |S|).


def _components(g: Graph, vertices: set[int], co: int = 0) -> list[set[int]]:
    """Connected components of G[vertices], or with ``co`` set, of the
    complement of G[vertices], which is never built: a vertex then reaches
    the vertices it does not see, and misses a layer it sees all of."""
    adj = g.adj
    reach = set.difference if co else set.intersection
    misses = set.issubset if co else set.isdisjoint
    comps: list[set[int]] = []
    todo = set(vertices)
    while todo:
        start = todo.pop()
        comp = {start}
        frontier = [start]
        while frontier and todo:
            if len(frontier) >= 4 * len(todo):
                layer = set(frontier)
                new = {w for w in todo if not misses(layer, adj[w])}
                frontier.clear()
            else:
                new = reach(todo, adj[frontier.pop()])
            comp |= new
            todo -= new
            frontier.extend(new)
        comps.append(comp)
    return comps


def build_cotree(g: Graph) -> Cotree | P4Witness:
    """Recognize g as a cograph and return its canonical cotree, else a P4.

    Children at every node are sorted by (leaf count, smallest descendant
    vertex id) so the output is deterministic.  Every part of a 0-node is
    connected and every part of a 1-node is co-connected, so below the root
    one split per vertex set decides it: a child of a 0-node is split into
    co-components, a child of a 1-node into components, and a set that does
    not split is prime.  The root tries components first.  The walk meets
    the nodes in preorder and writes each into the lists once its children
    are written.

    Degrees do most of the splitting.  Each set S carries an offset ``off``
    such that |N(v) & S| = deg(v) - off for every v in S.  It is 0 at the
    root.  A child of a 0-node keeps its parent's, since no edge leaves a
    component within S; a child C of a 1-node gets off + |S| - |C|, since
    each of its vertices sees all of S - C.  So the vertices isolated in
    G[S], when S is split into components, or universal in G[S], when it is
    split into co-components, are S's share of the degree bucket of off, or
    of off + |S| - 1, and each is a part of one vertex.  Removing them leaves
    the rest R, with the offset off, or off plus the count of universal
    vertices removed.  A vertex of R of the other kind, universal in G[R]
    when splitting into components or isolated in G[R] when splitting into
    co-components, makes R one part: a universal vertex connects G[R], an
    isolated one its complement.  Only otherwise is R searched.

    The parts are the components of G[S], or of its complement, that one
    search of S finds, so the lists are those of a search per set, and a
    prime set, which has neither kind of vertex, is searched whole and gives
    the same P4.  Each part of R has two or more vertices, as each vertex of
    R has a neighbour (or, in the complement, a non-neighbour) in R, so the
    removed vertices are the first children and are written at once.  The
    parts of R follow them, sorted by the same key.
    """
    n = g.n
    if n == 0:
        raise ValueError("cotree construction requires at least one vertex")
    if n == 1:
        return Cotree._of([0], [0], [0], 1, g.labels)
    buckets: dict[int, set[int]] = {}  # degree -> its vertices
    for v, d in enumerate(map(len, g.adj)):
        bucket = buckets.get(d)
        if bucket is None:
            buckets[d] = {v}
        else:
            bucket.add(v)
    nobody: frozenset[int] = frozenset()
    codes: list[int] = []
    counts: list[int] = []
    bigs: list[int] = []
    # stack entries: (vertex set of two or more, its offset, node labels still
    # to try; label 1 splits the complement), or (None, 0, (code, count, big))
    # of a node to write
    stack: list[tuple] = [(set(range(n)), 0, (0, 1))]
    while stack:
        vertices, off, labels = stack.pop()
        if vertices is None:
            code, count, big = labels
            codes.append(code)
            counts.append(count)
            bigs.append(big)
            continue
        size = len(vertices)
        for label in labels:
            # the parts of one vertex, and the degree in g of a vertex of the
            # other kind in R
            if label:
                single = buckets.get(off + size - 1, nobody) & vertices
                other = off + len(single)
            else:
                single = buckets.get(off, nobody) & vertices
                other = off + size - len(single) - 1
            vertices -= single
            if not vertices:  # R is empty or has two or more vertices
                parts = []
            elif buckets.get(other, nobody).isdisjoint(vertices):
                parts = _components(g, vertices, label)
            else:
                parts = [vertices]
            if single or len(parts) > 1:
                break
        else:
            witness = _p4_in_module(g, vertices)
            if not witness.holds_in(g):
                raise RuntimeError("P4 witness does not hold in the graph")
            return witness
        ones = sorted(single)
        codes += ones
        counts += [0] * len(ones)
        bigs += [0] * len(ones)
        big = len(ones) if parts else 0
        if len(parts) > 1:
            parts.sort(key=lambda p: (len(p), min(p)))
            # the first largest child is the first part as large as the last
            big += bisect_left(parts, len(parts[-1]), key=len)
        stack.append((None, 0, (~label, len(ones) + len(parts), big)))
        below = (1 - label,)
        parts.reverse()  # the first child is popped first
        stack.extend([(part, off + label * (size - len(part)), below) for part in parts])
    return Cotree._of(codes, counts, bigs, n, g.labels)


def _p4_in_module(g: Graph, s: set[int]) -> P4Witness:
    """An induced P4 of G[s], for a module s of g that is connected and co-connected.

    A P4 of G[s] is one of g.  With v = min s, N its neighbours in s and M
    its non-neighbours, the P4 is found in three steps, each O(|s|^2) in set
    operations:

    1. a vertex x of N that sees part but not all of a component C of G[M]
       sees one end of an edge y-y' of C: the P4 is v-x-y-y';
    2. else every component of G[M] acts as one vertex, its minimum c; a c
       that sees part but not all of a co-component D of G[N] sees one end
       of a non-edge y-y' of D: the P4 is c-y'-v-y;
    3. else every co-component of G[N] acts as one vertex too.  These
       representatives form a clique K and those of G[M] an independent set
       R, and the neighbourhoods in K of R cannot be nested, or G[s] would be
       disconnected or co-disconnected.  Sorted by size, some consecutive
       r1, r2 have k1 in N(r1) - N(r2) and k2 in N(r2) - N(r1): r1-k1-k2-r2.
    """
    adj = g.adj
    v = min(s)
    near = adj[v] & s
    far = s - near
    far.discard(v)
    comps = sorted(_components(g, far), key=min)
    for comp in comps:
        if len(comp) == 1:
            continue
        members = [adj[y] for y in comp]
        torn = set().union(*[a & near for a in members]) - near.intersection(*members)
        if torn:
            x = min(torn)
            seen = adj[x] & comp
            for y in sorted(seen):
                unseen = (adj[y] & comp) - adj[x]
                if unseen:
                    return P4Witness(v, x, y, min(unseen))
    reps = {min(comp) for comp in comps}
    cocomps = sorted(_components(g, near, 1), key=min)
    for cocomp in cocomps:
        if len(cocomp) == 1:
            continue
        members = [adj[y] for y in cocomp]
        torn = set().union(*[a & reps for a in members]) - reps.intersection(*members)
        if torn:
            c = min(torn)
            seen = adj[c] & cocomp
            for y in sorted(cocomp - seen):
                unseen = seen - adj[y]
                if unseen:
                    return P4Witness(c, min(unseen), v, y)
    heads = {min(cocomp) for cocomp in cocomps}
    ranked = sorted((len(adj[r] & heads), r) for r in reps)
    for (_, r1), (_, r2) in zip(ranked, ranked[1:]):
        n1, n2 = adj[r1] & heads, adj[r2] & heads
        if not n1 <= n2:
            return P4Witness(r1, min(n1 - n2), min(n2 - n1), r2)
    raise RuntimeError("no induced P4 in a prime vertex set")


def evaluate_cotree(t: Cotree) -> Graph:
    """Graph represented by the tree: u~v iff their lowest common ancestor is a 1-node."""
    edges: list[tuple[int, int]] = []

    def internal(label: int, parts: list[list[int]], _big: int) -> list[int]:
        merged: list[int] = []
        for part in parts:
            if label == 1:
                edges.extend((u, v) for u in merged for v in part)
            merged.extend(part)
        return merged

    _fold(t, lambda v: [v], internal)
    return Graph.from_edges(t.n, edges, t.labels)


def complement_cotree(t: Cotree) -> Cotree:
    """Label-flipped copy: represents the complement graph.  It shares
    ``counts`` and ``bigs`` with t; -3 - code maps ~0 to ~1 and back."""
    codes = [c if c >= 0 else -3 - c for c in t.codes]
    return Cotree._of(codes, t.counts, t.bigs, t.n, t.labels)


def check_cotree(t: Cotree) -> None:
    """Raise ValueError unless t is well formed and its labels alternate."""
    Cotree._checked(t.codes, t.counts, t.n)


def _check_lists(
    codes: list[int], counts: list[int], n: int
) -> tuple[list[int], bool]:
    """The one check of a cotree's lists, in postorder: it raises ValueError
    unless they are a well-formed tree on the leaves 0..n-1, and returns its
    ``bigs`` and whether a child repeats its parent's label."""
    if n > len(codes):
        raise ValueError(f"cotree of {len(codes)} nodes cannot have n = {n} leaves")
    seen = bytearray(n)
    repeats = False
    bigs: list[int] = []
    # per subtree whose parent is still to come: its leaf count, and its code
    sizes: list[int] = []
    kinds: list[int] = []
    for code, count in zip(codes, counts):
        if code >= 0:
            if code >= n or seen[code]:
                raise ValueError(f"bad leaf vertex {code}")
            seen[code] = 1
            sizes.append(1)
            kinds.append(code)
            bigs.append(0)
            continue
        if code < -2:
            if code == _BAD_LABEL:
                raise ValueError("internal node without 0/1 label")
            raise ValueError(f"bad leaf vertex {code + 3}")
        if count < 2:
            raise ValueError("internal node with fewer than 2 children")
        if code in kinds[-count:]:
            repeats = True
        del kinds[-count:]
        kinds.append(code)
        # a counted loop: sum, max and index take twice as long, enumerate 15% more
        size = most = big = i = 0
        for s in sizes[-count:]:
            size += s
            if s > most:
                most, big = s, i
            i += 1
        sizes[-count:] = [size]
        bigs.append(big)
    # the constructor does not read a leaf's children, so a leaf given
    # children leaves their leaves out of the root's count
    if len(sizes) != 1 or sizes[0] != n:
        raise ValueError("leaves do not cover all vertices")
    return bigs, repeats


# --- serialization ---------------------------------------------------------
#
# Every walk below keeps an explicit stack, so tree depth is bounded only by
# memory, and appends tokens to one list that is joined once.


def _serialize(t: Cotree, leaf, openings: tuple[str, str], sep: str, close: str) -> str:
    """``leaf(vertex)`` at a leaf; ``openings[label]``, the children separated
    by ``sep``, then ``close`` at an internal node.

    The lists are walked backwards, which meets each node before its
    children and the children right to left, so the tokens are written last
    to first and reversed once."""
    out: list[str] = []
    opens: list[str] = []  # per node whose opening is still to write: the opening
    left: list[int] = []  # and its children still to write
    for code, count in zip(reversed(t.codes), reversed(t.counts)):
        if code < 0:
            out.append(close)
            opens.append(openings[~code])
            left.append(count)
            continue
        out.append(leaf(code))
        # a subtree just ended: its parent writes a separator, or ends too
        while left:
            if left[-1] > 1:
                left[-1] -= 1
                out.append(sep)
                break
            left.pop()
            out.append(opens.pop())
    out.reverse()
    return "".join(out)


def cotree_to_text(t: Cotree) -> str:
    """Nested parenthesized form over vertex ids, e.g. ``1(0(0,1),2)``."""
    return _serialize(t, str, ("0(", "1("), ",", ")")


def cotree_to_json(t: Cotree) -> str:
    """The same text as ``json.dumps`` of nested ``{"label", "children"}`` and
    ``{"vertex", "name"}`` objects; names are quoted as ``json.dumps`` does."""
    quote = json.encoder.encode_basestring_ascii
    return _serialize(
        t,
        lambda v: '{"vertex": %d, "name": %s}' % (v, quote(t.label_of(v))),
        ('{"label": 0, "children": [', '{"label": 1, "children": ['),
        ", ",
        "]}",
    )


_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def _json_loads(text: str) -> object:
    """``json.loads`` without recursion, for documents nested to any depth.

    The containers whose closing bracket is still to come are kept on an
    explicit stack; the C scanner of ``json`` reads every other value.
    Raises ValueError on malformed text; NaN and Infinity, which
    ``json.loads`` also accepts, are malformed here.
    """
    space = _JSON_SPACE.match
    scan = json.JSONDecoder(parse_constant=_reject_constant).scan_once
    document: list[object] = []  # receives the one top-level value
    open_: list[dict | list] = []  # containers whose closing bracket is pending
    keys: list[str] = []  # per open object, the key of the value being read

    def read_key(pos: int) -> int:
        if text[pos : pos + 1] != '"':
            raise ValueError(f"JSON object key expected at offset {pos}")
        key, pos = scanstring(text, pos + 1)
        pos = space(text, pos).end()
        if text[pos : pos + 1] != ":":
            raise ValueError(f"':' expected at offset {pos}")
        keys.append(key)
        return space(text, pos + 1).end()

    pos = space(text, 0).end()
    while True:
        # one value at pos, stored into the innermost open container
        char = text[pos : pos + 1]
        value: object
        if char == "{":
            value = {}
        elif char == "[":
            value = []
        else:
            try:
                value, pos = scan(text, pos)
            except StopIteration:
                raise ValueError(f"JSON value expected at offset {pos}") from None
        if not open_:
            document.append(value)
        elif isinstance(open_[-1], dict):
            open_[-1][keys.pop()] = value
        else:
            open_[-1].append(value)
        if isinstance(value, (dict, list)):
            open_.append(value)
            pos = space(text, pos + 1).end()
            if text[pos : pos + 1] != ("}" if isinstance(value, dict) else "]"):
                if isinstance(value, dict):
                    pos = read_key(pos)
                continue
        # after a value: a ',' before the next one, or closing brackets
        while True:
            pos = space(text, pos).end()
            if not open_:
                if pos != len(text):
                    raise ValueError(f"extra data after JSON at offset {pos}")
                return document[0]
            container = open_[-1]
            char = text[pos : pos + 1]
            if char == ",":
                pos = space(text, pos + 1).end()
                if isinstance(container, dict):
                    pos = read_key(pos)
                break
            if char != ("}" if isinstance(container, dict) else "]"):
                raise ValueError(f"',' or closing bracket expected at offset {pos}")
            pos += 1
            open_.pop()


def _json_int(value: object, key: str) -> int:
    if type(value) is not int:
        raise ValueError(
            f"cotree JSON {key} must be an integer, got {reprlib.repr(value)}"
        )
    return value


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not valid JSON")


def cotree_from_json(text: str) -> Cotree:
    """Inverse of ``cotree_to_json``; raises ValueError on malformed input,
    such as a node with a vertex and also a label or children.  The leaves'
    names become the tree's ``labels`` when every leaf has a string name,
    unless every name is its vertex's number, as for an unlabelled tree.

    The C ``json.loads`` reads the document unless it nests too deeply for
    the interpreter's recursion limit; ``_json_loads`` then reads it.  Both
    reject NaN and Infinity.
    """
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except RecursionError:
        data = _json_loads(text)
    names: list[object] = []  # per leaf met, its name or None

    def parts(obj: object) -> tuple[int, object]:
        if not isinstance(obj, dict):
            raise ValueError(
                f"cotree JSON node must be an object, got {reprlib.repr(obj)}"
            )
        if "vertex" in obj and "label" not in obj and "children" not in obj:
            v = _json_int(obj["vertex"], "vertex")
            names.append(obj.get("name"))
            return (v if v >= 0 else v - 3), ()
        children = obj.get("children")
        if "vertex" in obj or "label" not in obj or not isinstance(children, list):
            raise ValueError(
                "cotree JSON node needs a vertex, or a label and a children list"
            )
        label = _json_int(obj["label"], "label")
        return (~label if label in (0, 1) else _BAD_LABEL), children

    codes, counts = _unfold(data, parts)
    t = Cotree._checked(codes, counts, len(names))
    if all(type(name) is str for name in names):
        # the walk met the leaves in the reverse of postorder, each vertex once
        leaves = [code for code in reversed(codes) if code >= 0]
        if any(map(str.__ne__, names, map(str, leaves))):
            by_vertex = dict(zip(leaves, names))
            t = Cotree._of(codes, counts, t.bigs, t.n, tuple(map(by_vertex.get, range(t.n))))
    return t


_TEXT_DELIMITERS = re.compile(r"([(),])")
_TEXT_LABEL_CODES = {"0": ~0, "1": ~1}


def cotree_from_text(text: str) -> Cotree:
    """Parse the parenthesized form; leaf names must be integers."""
    # pieces alternate token, delimiter, ..., token, so a delimiter sits at
    # an odd index below last
    pieces = _TEXT_DELIMITERS.split(text)
    last = len(pieces) - 1
    i = 0
    codes: list[int] = []  # the lists of the nodes read so far, in postorder
    counts: list[int] = []
    open_codes: list[int] = []  # per internal node whose ')' is pending: its code
    open_counts: list[int] = []  # and its children so far
    while True:
        token = pieces[i].strip()
        if i < last and pieces[i + 1] == "(":
            code = _TEXT_LABEL_CODES.get(token)
            if code is None:
                raise ValueError(f"bad internal node label {token!r}")
            open_codes.append(code)
            open_counts.append(1)
            i += 2
            continue  # its first child comes next
        if not token:
            raise ValueError("empty leaf name in cotree text")
        v = int(token)
        codes.append(v if v >= 0 else v - 3)
        counts.append(0)
        # a node just ended: a ',' starts its next sibling, a ')' ends its
        # parent, and j is the first piece not yet read
        j = i + 1
        while open_codes and j < last and pieces[j] == ")":
            codes.append(open_codes.pop())
            counts.append(open_counts.pop())
            # text follows the ')'; a whitespace-only piece counts as none
            if pieces[j + 1] and not pieces[j + 1].isspace():
                j += 1
                break
            j += 2
        if not open_codes:
            break
        if j >= last or pieces[j] != ",":
            raise ValueError("unbalanced parentheses in cotree text")
        open_counts[-1] += 1
        i = j + 1
    if "".join(pieces[j:]).strip():
        raise ValueError("trailing characters after cotree text")
    # each internal node was given a child, so the nodes with none are the leaves
    return Cotree._checked(codes, counts, counts.count(0))
