"""Cograph recognition, cotrees and P4 witnesses.

Construction recurses on connected components of the graph (0-nodes) or of
its complement (1-nodes); complement components are found without
materializing the complement.  Quadratic overall, which is plenty for this
artifact; linear-time recognition is a non-goal.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
from typing import Iterator

from .graphs import Graph, induced_subgraph


class NotACographError(ValueError):
    """Raised when an operation requiring a cograph receives a P4."""


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
    """Node of a cotree.  Leaves carry a vertex id, internal nodes a 0/1 label."""

    __slots__ = ("label", "vertex", "children", "size")

    def __init__(
        self,
        label: int | None = None,
        vertex: int | None = None,
        children: list["CotreeNode"] | None = None,
    ) -> None:
        self.label = label
        self.vertex = vertex
        self.children: list[CotreeNode] = children if children is not None else []
        self.size = 0  # leaf count, filled by _finish

    @property
    def is_leaf(self) -> bool:
        return self.vertex is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_leaf:
            return f"Leaf({self.vertex})"
        return f"Node({self.label}, size={self.size})"


@dataclass(frozen=True)
class Cotree:
    """Rooted labelled decomposition tree; children of a node alternate labels."""

    root: CotreeNode
    n: int
    labels: tuple[str, ...] | None = None

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


def postorder(root: CotreeNode) -> Iterator[CotreeNode]:
    """Iterative post-order traversal (trees can be deep; no recursion)."""
    stack: list[tuple[CotreeNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or node.is_leaf:
            yield node
            continue
        stack.append((node, True))
        for child in reversed(node.children):
            stack.append((child, False))


def _fill_sizes(root: CotreeNode) -> None:
    for node in postorder(root):
        node.size = 1 if node.is_leaf else sum(c.size for c in node.children)


def leaves_of(node: CotreeNode) -> list[int]:
    return [x.vertex for x in postorder(node) if x.is_leaf]


def _components(g: Graph, vertices: set[int]) -> list[set[int]]:
    comps: list[set[int]] = []
    todo = set(vertices)
    while todo:
        start = next(iter(todo))
        comp = {start}
        frontier = [start]
        todo.discard(start)
        while frontier:
            v = frontier.pop()
            new = g.adj[v] & todo
            comp |= new
            todo -= new
            frontier.extend(new)
        comps.append(comp)
    return comps


def _co_components(g: Graph, vertices: set[int]) -> list[set[int]]:
    """Connected components of the complement, restricted to ``vertices``."""
    comps: list[set[int]] = []
    todo = set(vertices)
    while todo:
        start = next(iter(todo))
        comp = {start}
        frontier = [start]
        todo.discard(start)
        while frontier:
            v = frontier.pop()
            new = todo - g.adj[v]
            comp |= new
            todo &= g.adj[v]
            frontier.extend(new)
        comps.append(comp)
    return comps


def find_p4(g: Graph) -> P4Witness:
    """Locate an induced P4; raises NotACographError if there is none.

    For every induced path a-b-c-d, scanning the middle edge bc with
    a in N(b)\\N(c) and d in N(c)\\N(b) finds it, so the edge scan is
    complete.  Worst case O(m n^2), acceptable at witness-extraction sizes.
    """
    for b, c in sorted(g.edges()):
        for b_, c_ in ((b, c), (c, b)):
            a_side = g.adj[b_] - g.adj[c_] - {c_}
            d_side = g.adj[c_] - g.adj[b_] - {b_}
            if not a_side or not d_side:
                continue
            for a in sorted(a_side):
                ok = d_side - g.adj[a] - {a}
                if ok:
                    return P4Witness(a, b_, c_, min(ok))
    raise NotACographError("graph contains no induced P4")


def build_cotree(g: Graph) -> Cotree | P4Witness:
    """Recognize g as a cograph and return its canonical cotree, else a P4.

    Children at every node are sorted by (leaf count, smallest descendant
    vertex id) so the output is deterministic.
    """
    if g.n == 0:
        raise ValueError("cotree construction requires at least one vertex")

    root_box: list[CotreeNode] = []
    # stack entries: (vertex set, sink list that the built node is appended to)
    stack: list[tuple[set[int], list[CotreeNode]]] = [(set(range(g.n)), root_box)]
    while stack:
        vertices, sink = stack.pop()
        if len(vertices) == 1:
            sink.append(CotreeNode(vertex=next(iter(vertices))))
            continue
        parts = _components(g, vertices)
        if len(parts) > 1:
            label = 0
        else:
            parts = _co_components(g, vertices)
            if len(parts) > 1:
                label = 1
            else:
                witness = _p4_in_subset(g, vertices)
                if not witness.holds_in(g):
                    raise RuntimeError("P4 witness does not hold in the graph")
                return witness
        node = CotreeNode(label=label)
        sink.append(node)
        parts.sort(key=lambda p: (len(p), min(p)), reverse=True)
        for part in parts:  # reversed pushes keep child order
            stack.append((part, node.children))
    root = root_box[0]
    _fill_sizes(root)
    return Cotree(root, g.n, g.labels)


def _p4_in_subset(g: Graph, vertices: set[int]) -> P4Witness:
    sub = induced_subgraph(g, vertices)
    back = sorted(vertices)
    w = find_p4(sub)
    return P4Witness(*(back[v] for v in w.vertices()))


def evaluate_cotree(t: Cotree) -> Graph:
    """Graph represented by the tree: u~v iff their lowest common ancestor is a 1-node."""
    edges: list[tuple[int, int]] = []
    leafsets: dict[CotreeNode, list[int]] = {}
    for node in postorder(t.root):
        if node.is_leaf:
            leafsets[node] = [node.vertex]
            continue
        parts = [leafsets.pop(c) for c in node.children]
        if node.label == 1:
            prefix: list[int] = []
            for part in parts:
                edges.extend((u, v) for u in prefix for v in part)
                prefix.extend(part)
            leafsets[node] = prefix
        else:
            merged: list[int] = []
            for part in parts:
                merged.extend(part)
            leafsets[node] = merged
    return Graph.from_edges(t.n, edges, t.labels)


def complement_cotree(t: Cotree) -> Cotree:
    """Label-flipped copy: represents the complement graph."""
    built: dict[CotreeNode, CotreeNode] = {}
    for node in postorder(t.root):
        if node.is_leaf:
            built[node] = CotreeNode(vertex=node.vertex)
        else:
            built[node] = CotreeNode(
                label=1 - node.label, children=[built.pop(c) for c in node.children]
            )
    root = built[t.root]
    _fill_sizes(root)
    return Cotree(root, t.n, t.labels)


def check_cotree(t: Cotree) -> None:
    """Validate structural invariants; raises ValueError on violation."""
    seen: set[int] = set()
    for node in postorder(t.root):
        if node.is_leaf:
            if not 0 <= node.vertex < t.n or node.vertex in seen:
                raise ValueError(f"bad leaf vertex {node.vertex}")
            seen.add(node.vertex)
            continue
        if node.label not in (0, 1):
            raise ValueError("internal node without 0/1 label")
        if len(node.children) < 2:
            raise ValueError("internal node with fewer than 2 children")
        for c in node.children:
            if not c.is_leaf and c.label == node.label:
                raise ValueError("child repeats parent label in a cotree")
    if len(seen) != t.n:
        raise ValueError("leaves do not cover all vertices")


# --- serialization ---------------------------------------------------------
#
# Every walk below keeps an explicit stack, so tree depth is bounded only by
# memory, and appends tokens to one list that is joined once.


def _serialize(root: CotreeNode, leaf, opening, sep: str, close: str) -> str:
    """Tokens of ``opening(node)``, children separated by ``sep``, ``close``."""
    out: list[str] = []
    stack: list[CotreeNode | str] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.is_leaf:
            out.append(leaf(item))
        else:
            out.append(opening(item))
            stack.append(close)
            for i in range(len(item.children) - 1, -1, -1):
                stack.append(item.children[i])
                if i:
                    stack.append(sep)
    return "".join(out)


def cotree_to_text(t: Cotree) -> str:
    """Nested parenthesized form, e.g. ``1(0(a,b),c)``."""
    return _serialize(
        t.root, lambda x: t.label_of(x.vertex), lambda x: f"{x.label}(", ",", ")"
    )


def cotree_to_json(t: Cotree) -> str:
    """The same text as ``json.dumps`` of nested ``{"label", "children"}`` and
    ``{"vertex", "name"}`` objects."""
    return _serialize(
        t.root,
        lambda x: json.dumps({"vertex": x.vertex, "name": t.label_of(x.vertex)}),
        lambda x: f'{{"label": {json.dumps(x.label)}, "children": [',
        ", ",
        "]}",
    )


def _json_int(value: object, key: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"cotree JSON {key} must be an integer, got {value!r}") from None


def cotree_from_json(text: str, n: int | None = None) -> Cotree:
    """Inverse of ``cotree_to_json``; raises ValueError on malformed input."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("cotree JSON nests too deeply to decode") from None
    root_box: list[CotreeNode] = []
    # stack entries: (JSON object, children list the decoded node joins)
    stack: list[tuple[object, list[CotreeNode]]] = [(data, root_box)]
    while stack:
        obj, sink = stack.pop()
        if not isinstance(obj, dict):
            raise ValueError(f"cotree JSON node must be an object, got {obj!r}")
        if "vertex" in obj:
            sink.append(CotreeNode(vertex=_json_int(obj["vertex"], "vertex")))
            continue
        children = obj.get("children")
        if "label" not in obj or not isinstance(children, list):
            raise ValueError(
                "cotree JSON node needs a vertex, or a label and a children list"
            )
        node = CotreeNode(label=_json_int(obj["label"], "label"))
        sink.append(node)
        for child in reversed(children):
            stack.append((child, node.children))
    root = root_box[0]
    _fill_sizes(root)
    t = Cotree(root, root.size if n is None else n)
    check_cotree(t)
    return t


def cotree_from_text(text: str) -> Cotree:
    """Parse the parenthesized form; leaf names must be integers."""
    pos = 0
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
        # a node just ended: a ',' starts its next sibling, a ')' ends its parent
        while open_nodes and pos < len(text) and text[pos] == ")":
            pos += 1
            open_nodes.pop()
        if not open_nodes:
            break
        if pos >= len(text) or text[pos] != ",":
            raise ValueError("unbalanced parentheses in cotree text")
        pos += 1  # consume ','
    if pos != len(text.rstrip()):
        raise ValueError("trailing characters after cotree text")
    root = root_box[0]
    _fill_sizes(root)
    t = Cotree(root, root.size)
    check_cotree(t)
    return t
