"""Ferrers diagram representations of cographs.

Vertices are placed on a staircase grid so that every row is an independent
set and every column induces a clique.  Column heights read off the kappa
sequence, row lengths the lambda sequence.

``build_ferrers`` keeps the columns and the rows of each subtree as run
lists of lines, a line being a list of vertices.  Columns follow the kappa
operators and rows the lambda operators, each merged into the child with the
most leaves, for O(n log n) total work; a vertex's cell is (its row's index,
its column's index).  A run is [-size, deque of lines], with sizes strictly
decreasing, so a run list is ascending and ``bisect`` compares runs in C,
never a deque.  A leaf is its bare vertex id and costs O(1): a node of
leaves only is built in one step, and the leaves beside a larger sibling
each become a line of size 1 among the lines that merge by size, and
together join the first of the lines that add up.
``build_ferrers_naive``, which re-sorts whole representations at every tree
node, is the reference: the two produce the same grid cell for cell, since
concatenation order is the children's order and sorting by size is stable.
Both builders and the tree-driven validator are per-node rules that the
cotree module's one bottom-up fold walks.  As in the paper,
``read_colouring`` reads a colouring off the rows and columns of the diagram
and ``read_obstruction`` an induced box off its top-left corner; certify
finds both answers without the diagram.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

from .certificate import BoxCertificate
from .cotree import Cotree, _fold
from .graphs import Graph, is_clique, is_independent_set
from .sequences import KLColouring, PartitionSequence, _check_natural


@dataclass(frozen=True)
class FerrersRepresentation:
    """Grid of vertex ids; rows top-to-bottom, cells left-to-right."""

    rows: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def shape(self) -> PartitionSequence:
        return PartitionSequence(len(r) for r in self.rows)

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Columns left to right, each top to bottom; one pass over the cells."""
        if not self.rows:
            return ()
        cols: list[list[int]] = [[] for _ in self.rows[0]]
        for row in self.rows:
            for col, v in zip(cols, row):
                col.append(v)
        return tuple(tuple(col) for col in cols)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


# --- naive builder ---------------------------------------------------------


def _transpose(lines: list[list[int]]) -> list[list[int]]:
    return [
        [line[i] for line in lines if len(line) > i] for i in range(len(lines[0]))
    ]


def build_ferrers_naive(t: Cotree) -> FerrersRepresentation:
    """Rebuild the whole representation at every node.

    Cubic worst case: on a deep alternating cotree every 1-node transposes
    the whole hook built so far, at rows times columns cells.
    """

    def internal(label: int, parts: list, _big: int) -> list[list[int]]:
        if label == 0:
            merged = [col for part in parts for col in part]
            merged.sort(key=len, reverse=True)  # stable: child order preserved
            return merged
        rows = [row for part in parts for row in _transpose(part)]
        rows.sort(key=len, reverse=True)
        return _transpose(rows)

    cols = _fold(t, lambda v: [[v]], internal)
    return FerrersRepresentation(tuple(tuple(r) for r in _transpose(cols)), t.labels)


# --- run-list builder ------------------------------------------------------


def _star_lines(big: list, small: list, small_first: bool) -> None:
    """Merge small's runs into big by size; ties go ahead of big's lines when
    small is the earlier child, behind them otherwise."""
    i = 0
    for run in small:
        i = bisect_left(big, run[:1], i)
        if i < len(big) and big[i][0] == run[0]:
            if small_first:
                big[i][1].extendleft(reversed(run[1]))
            else:
                big[i][1].extend(run[1])
        else:
            big.insert(i, run)


def _add_lines(big: list, small: list) -> None:
    """Extend line j of big with line j of small; small's extra lines go last.

    Run boundaries of either operand force a strict decrease in the sum, so
    only the run of big that straddles a boundary of small is split, and
    nothing is coalesced.
    """
    bi = 0
    for s_size, s_lines in small:
        while s_lines:
            if bi == len(big):
                big.append([s_size, s_lines])
                bi += 1
                break
            run = big[bi]
            bi += 1
            lines = run[1]
            if len(s_lines) < len(lines):  # split off the lines that grow
                lines = deque([lines.popleft() for _ in s_lines])
                big.insert(bi - 1, [run[0] + s_size, lines])
            else:
                run[0] += s_size
            for line in lines:
                line += s_lines.popleft()


def build_ferrers(t: Cotree) -> FerrersRepresentation:
    """Folded over the cotree; each node merges its children into the largest.

    A subtree is (cols, rows), two lists of [-size, deque of lines] runs.
    0-nodes star-merge the column runs and add the row runs, 1-nodes the
    reverse.  Children before the largest go ahead of it among equal-size
    lines, nearest first; children after it go behind, in order.  A node of
    leaves only is one line of them and a line per leaf.  Other leaves each
    take a size-1 line in that order, and together join the first add-line,
    splitting its run at most once.
    """

    def internal(label: int, parts: list, big: int) -> tuple[list, list]:
        acc = parts[big]
        if type(acc) is not tuple:  # the largest child is a leaf, so every child is
            together = [[-len(parts), deque([parts])]]
            apart = [[-1, deque([[v] for v in parts])]]
            return (apart, together) if label == 0 else (together, apart)
        other = 1 - label  # part[label] is a subtree's stars, part[other] its adds
        stars, adds = acc[label], acc[other]
        if stars[-1][0] != -1:  # a run for the size-1 lines, dropped if unused
            stars.append([-1, deque()])
        singles = stars[-1][1]
        leaves: list[int] = []
        # two loops: one over parts[:big][::-1] + parts[big + 1:], taking the
        # tie side from the index, built 12 deep trees (n = 1,024-4,096) in
        # 43.2-45.3 against 38.6-39.9 ms (Python 3.11, 2-core VM)
        for part in reversed(parts[:big]):
            if type(part) is tuple:
                _star_lines(stars, part[label], True)
                _add_lines(adds, part[other])
            else:
                singles.appendleft([part])
                leaves.append(part)
        for part in parts[big + 1:]:
            if type(part) is tuple:
                _star_lines(stars, part[label], False)
                _add_lines(adds, part[other])
            else:
                singles.append([part])
                leaves.append(part)
        if not singles:
            stars.pop()
        if leaves:
            first = adds[0]
            if len(first[1]) > 1:  # only its first line grows: split it off
                first = [first[0], deque([first[1].popleft()])]
                adds.insert(0, first)
            first[0] -= len(leaves)
            first[1][0] += leaves
        return acc

    root = _fold(t, lambda v: v, internal)
    if type(root) is not tuple:
        return FerrersRepresentation(((root,),), t.labels)
    cols, rows = root
    col_of = [0] * t.n
    for j, line in enumerate(chain.from_iterable(lines for _, lines in cols)):
        for v in line:
            col_of[v] = j
    grid = []
    for line in chain.from_iterable(lines for _, lines in rows):
        row = [0] * len(line)
        for v in line:
            row[col_of[v]] = v
        grid.append(tuple(row))
    return FerrersRepresentation(tuple(grid), t.labels)


# --- validation ------------------------------------------------------------


def _cells(f: FerrersRepresentation, n: int) -> dict[int, tuple[int, int]] | None:
    """Each vertex's (row, column), or None unless the row lengths form a
    staircase and the cells hold each of the n vertices once."""
    try:
        f.shape  # raises unless the row lengths are positive and non-increasing
    except ValueError:
        return None
    place = {v: (r, c) for r, row in enumerate(f.rows) for c, v in enumerate(row)}
    if len(place) != f.n or set(place) != set(range(n)):
        return None
    return place


def validate_ferrers(g: Graph, f: FerrersRepresentation) -> bool:
    """Shape is a staircase, rows are independent, columns induce cliques."""
    if _cells(f, g.n) is None:
        return False
    return all(is_independent_set(g, row) for row in f.rows) and all(
        is_clique(g, col) for col in f.columns
    )


def validate_ferrers_against_cotree(t: Cotree, f: FerrersRepresentation) -> bool:
    """Equivalent validity check driven by the tree instead of the graph.

    A row is independent iff no 1-node has that row in two of its subtrees;
    dually for columns and 0-nodes.  Small-to-large set merging keeps this
    near-linear, which the large randomized suites need.  No shape is
    compared: the first l columns and the h_l rows reaching past them colour
    the graph, so kappa_l <= h_l, and both sum to n, so the heights are kappa.
    """
    place = _cells(f, t.n)
    if place is None:
        return False

    def leaf(v: int) -> tuple[set[int], set[int]]:
        r, c = place[v]
        return {r}, {c}

    def internal(label: int, parts: list, big: int) -> tuple[set[int], set[int]] | None:
        if None in parts:
            return None  # a crossing lower down
        rows_acc, cols_acc = parts.pop(big)
        for rows_part, cols_part in parts:
            if label == 1:
                if rows_acc & rows_part:
                    return None  # a row crosses a join: not independent
            else:
                if cols_acc & cols_part:
                    return None  # a column crosses a union: not a clique
            rows_acc |= rows_part
            cols_acc |= cols_part
        return rows_acc, cols_acc

    return _fold(t, leaf, internal) is not None


# --- read-offs -------------------------------------------------------------


def _tall_columns(f: FerrersRepresentation, k: int, l: int) -> int:
    """Number of columns taller than k: the length of row k, 0 past the last
    row.  Raise ValueError unless both colouring parameters are at least 0."""
    _check_natural(k, l)
    return len(f.rows[k]) if k < len(f.rows) else 0


def read_colouring(f: FerrersRepresentation, k: int, l: int) -> KLColouring:
    """Tall columns become clique parts, remaining row segments independent parts."""
    tall = _tall_columns(f, k, l)
    if tall > l:
        raise ValueError(
            f"not ({k},{l})-colourable: {tall} columns are taller than {k}"
        )
    independent = tuple(frozenset(row[tall:]) for row in f.rows[:k] if len(row) > tall)
    cliques = tuple(map(frozenset, f.columns[:tall]))
    return KLColouring(independent, cliques)


def read_obstruction(f: FerrersRepresentation, k: int, l: int) -> BoxCertificate:
    """Top (k+1) cells of the leftmost (l+1) tall columns certify failure."""
    if _tall_columns(f, k, l) <= l:
        raise ValueError(f"graph is ({k},{l})-colourable: no obstruction")
    vertices = frozenset(v for row in f.rows[: k + 1] for v in row[: l + 1])
    return BoxCertificate(vertices, k + 1, l + 1)


# --- rendering -------------------------------------------------------------


def render_ascii(f: FerrersRepresentation) -> str:
    """Rows of labels aligned into columns."""
    width = max((len(f.label(v)) for row in f.rows for v in row), default=1)
    return "\n".join(
        " ".join(f.label(v).rjust(width) for v in row) for row in f.rows
    )


_SVG_UNIT = 40


def _escape(text: str) -> str:
    """XML character data: ``&``, ``<`` and ``>`` as entities.  This is
    ``xml.sax.saxutils.escape``, whose import pulls in ``urllib.request``,
    ``http.client``, ``ssl`` and ``email``: ~7 MB of resident memory and
    ~40 ms at every start of the command line."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(f: FerrersRepresentation) -> str:
    """SVG 1.1 document with one labelled dot per cell on a unit grid."""
    ncols = len(f.rows[0]) if f.rows else 0
    nrows = len(f.rows)
    w, h = ncols * _SVG_UNIT, nrows * _SVG_UNIT
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
    ]
    for r, row in enumerate(f.rows):
        cy = r * _SVG_UNIT + _SVG_UNIT // 2
        for c, v in enumerate(row):
            cx = c * _SVG_UNIT + _SVG_UNIT // 2
            parts.append(
                f'<circle cx="{cx}" cy="{cy}" r="{_SVG_UNIT // 3}" '
                'fill="white" stroke="black"/>'
            )
            parts.append(
                f'<text x="{cx}" y="{cy + 4}" text-anchor="middle" '
                f'font-size="12">{_escape(f.label(v))}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
