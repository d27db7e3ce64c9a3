"""Ferrers diagram representations of cographs.

Vertices are placed on a staircase grid so that every row is an independent
set and every column induces a clique.  Column heights read off the kappa
sequence, row lengths the lambda sequence.

Two builders: a naive one that re-sorts whole representations at every tree
node, and a linked-grid one that inserts every other child's columns (at
0-nodes) or rows (at 1-nodes) into the grid of the child with the most
leaves, for O(n log n) total work.  Both produce the same grid cell for
cell: concatenation order is the children's order, and sorting by size is
stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from xml.sax.saxutils import escape

from .certificate import BoxCertificate
from .cotree import Cotree, CotreeNode, postorder
from .graphs import Graph
from .sequences import (
    KLColouring,
    PartitionSequence,
    kappa_hat,
    lambda_hat,
)


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
    if not lines:
        return []
    return [
        [line[i] for line in lines if len(line) > i] for i in range(len(lines[0]))
    ]


def build_ferrers_naive(t: Cotree) -> FerrersRepresentation:
    """Rebuild the whole representation at every node.

    Cubic worst case: on a deep alternating cotree every 1-node transposes
    the whole hook built so far, at rows times columns cells.
    """
    cols: dict[CotreeNode, list[list[int]]] = {}
    for node in postorder(t.root):
        if node.is_leaf:
            cols[node] = [[node.vertex]]
            continue
        parts = [cols.pop(c) for c in node.children]
        if node.label == 0:
            merged = [col for part in parts for col in part]
            merged.sort(key=len, reverse=True)  # stable: child order preserved
            cols[node] = merged
        else:
            rows = [row for part in parts for row in _transpose(part)]
            rows.sort(key=len, reverse=True)
            cols[node] = _transpose(rows)
    return FerrersRepresentation(
        tuple(tuple(r) for r in _transpose(cols[t.root])), t.labels
    )


# --- linked-grid builder ---------------------------------------------------


class _Cell:
    __slots__ = ("v", "right", "down")

    def __init__(self, v: int) -> None:
        self.v = v
        self.right: _Cell | None = None
        self.down: _Cell | None = None


class _Grid:
    """Linked grid plus run-length indexes of column heights and row lengths.

    Runs are [size, count, first, last] with strictly decreasing sizes,
    where first/last are the first cells (top cell of a column, left cell of
    a row) of the run's boundary lines.
    """

    __slots__ = ("col_runs", "row_runs")

    def __init__(self, col_runs: list, row_runs: list) -> None:
        self.col_runs = col_runs
        self.row_runs = row_runs

    @classmethod
    def leaf(cls, v: int) -> "_Grid":
        c = _Cell(v)
        return cls([[1, 1, c, c]], [[1, 1, c, c]])


def _extract_lines(grid: _Grid, axis: int) -> list[list[_Cell]]:
    """axis 0: columns left-to-right; axis 1: rows top-to-bottom."""
    step, walk = ("right", "down") if axis == 0 else ("down", "right")
    top_left = grid.col_runs[0][2]
    lines: list[list[_Cell]] = []
    head = top_left
    while head is not None:
        line = []
        cell = head
        while cell is not None:
            line.append(cell)
            cell = getattr(cell, walk)
        lines.append(line)
        head = getattr(head, step)
    return lines


def _merge_grids(big: _Grid, small: _Grid, label: int, small_first: bool) -> None:
    """Insert small's columns (0-node) or rows (1-node) into big, in place.

    small_first says whether small is the earlier child in concatenation
    order, which decides which side of an equal-size run the block lands on.
    """
    if label == 0:
        ins_runs, cross_runs = big.col_runs, big.row_runs
        walk, link = "down", "right"
        lines = _extract_lines(small, axis=0)
    else:
        ins_runs, cross_runs = big.row_runs, big.col_runs
        walk, link = "right", "down"
        lines = _extract_lines(small, axis=1)

    idx = 0  # monotone cursor into ins_runs; line sizes arrive descending
    i = 0
    while i < len(lines):
        h = len(lines[i])
        block = [lines[i]]
        i += 1
        while i < len(lines) and len(lines[i]) == h:
            block.append(lines[i])
            i += 1
        b = len(block)

        while idx < len(ins_runs) and ins_runs[idx][0] > h:
            idx += 1
        exists = idx < len(ins_runs) and ins_runs[idx][0] == h
        if exists and not small_first:
            anchor = ins_runs[idx][3]
        elif idx > 0:
            anchor = ins_runs[idx - 1][3]
        else:
            anchor = None

        # chain the block's lines together at every cross position
        for r in range(h):
            for j in range(b - 1):
                setattr(block[j][r], link, block[j + 1][r])

        if anchor is not None:
            a = anchor
            for r in range(h):
                old = getattr(a, link)
                setattr(a, link, block[0][r])
                setattr(block[b - 1][r], link, old)
                if r + 1 < h:
                    a = getattr(a, walk)  # anchor line is at least h long
        else:
            # block becomes the leading line(s); old first line follows it
            old_cells: list[_Cell] = []
            cell = ins_runs[0][2] if ins_runs else None
            while cell is not None and len(old_cells) < h:
                old_cells.append(cell)
                cell = getattr(cell, walk)
            for r in range(h):
                nxt = old_cells[r] if r < len(old_cells) else None
                setattr(block[b - 1][r], link, nxt)

        leading = anchor is None
        if exists:
            run = ins_runs[idx]
            run[1] += b
            if small_first:
                run[2] = block[0][0]
            else:
                run[3] = block[-1][0]
        else:
            ins_runs.insert(idx, [h, b, block[0][0], block[-1][0]])
        idx += 1

        _bump_cross_runs(ins_runs, cross_runs, h, b, block[0], leading, walk)


def _bump_cross_runs(
    ins_runs: list,
    cross_runs: list,
    h: int,
    b: int,
    lead_line: list[_Cell],
    leading: bool,
    walk: str,
) -> None:
    """Account for a block of b inserted lines of size h: the first h cross
    lines each grew by b, and cross lines beyond the old count are new."""
    total = sum(run[1] for run in cross_runs)
    h_eff = min(h, total)
    acc = 0
    j = 0
    while j < len(cross_runs) and acc + cross_runs[j][1] <= h_eff:
        run = cross_runs[j]
        run[0] += b
        if leading:
            # the block's first line now starts every one of these cross lines
            run[2] = lead_line[acc]
            run[3] = lead_line[acc + run[1] - 1]
        acc += run[1]
        j += 1
    if acc < h_eff:
        # a run straddles the boundary; split it (never happens when leading,
        # because then h covers every existing cross line)
        run = cross_runs[j]
        upper_count = h_eff - acc
        boundary_hi = _cross_first_cell(ins_runs, walk, h_eff - 1)
        boundary_lo = _cross_first_cell(ins_runs, walk, h_eff)
        upper = [run[0] + b, upper_count, run[2], boundary_hi]
        lower = [run[0], run[1] - upper_count, boundary_lo, run[3]]
        cross_runs[j : j + 1] = [upper, lower]
    if h > total:
        cross_runs.append([b, h - total, lead_line[total], lead_line[h - 1]])


def _cross_first_cell(ins_runs: list, walk: str, r: int) -> _Cell:
    """First cell of cross line r: walk the first (longest) inserted-axis line."""
    cell = ins_runs[0][2]
    for _ in range(r):
        cell = getattr(cell, walk)
    return cell


def build_ferrers_fast(t: Cotree) -> FerrersRepresentation:
    """Linked-grid builder; each node merges its children into the largest one.

    Children before the largest are inserted ahead of it among equal-size
    lines, nearest first; children after it go behind, in order.
    """
    grids: dict[CotreeNode, _Grid] = {}
    for node in postorder(t.root):
        if node.is_leaf:
            grids[node] = _Grid.leaf(node.vertex)
            continue
        kids = node.children
        big = max(range(len(kids)), key=lambda i: kids[i].size)
        grid = grids.pop(kids[big])
        for child in reversed(kids[:big]):
            _merge_grids(grid, grids.pop(child), node.label, small_first=True)
        for child in kids[big + 1 :]:
            _merge_grids(grid, grids.pop(child), node.label, small_first=False)
        grids[node] = grid
    rows = tuple(
        tuple(cell.v for cell in line)
        for line in _extract_lines(grids[t.root], axis=1)
    )
    return FerrersRepresentation(rows, t.labels)


def build_ferrers(t: Cotree) -> FerrersRepresentation:
    """Ferrers diagram representation of the represented cograph."""
    return build_ferrers_fast(t)


# --- validation ------------------------------------------------------------


def validate_ferrers(g: Graph, f: FerrersRepresentation) -> bool:
    """Shape is a staircase, rows are independent, columns induce cliques."""
    lengths = [len(r) for r in f.rows]
    if any(
        lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)
    ) or any(x < 1 for x in lengths):
        return False
    seen: list[int] = [v for row in f.rows for v in row]
    if sorted(seen) != list(range(g.n)):
        return False
    for row in f.rows:
        members = frozenset(row)
        if any(g.adj[v] & members for v in members):
            return False
    for col in f.columns:
        members = frozenset(col)
        if any(members - g.adj[v] != {v} for v in members):
            return False
    return True


def validate_ferrers_against_cotree(t: Cotree, f: FerrersRepresentation) -> bool:
    """Equivalent validity check driven by the tree instead of the graph.

    A row is independent iff no 1-node has that row in two of its subtrees;
    dually for columns and 0-nodes.  Small-to-large set merging keeps this
    near-linear, which the large randomized suites need.
    """
    place: dict[int, tuple[int, int]] = {}
    for r, row in enumerate(f.rows):
        for c, v in enumerate(row):
            if v in place:
                return False
            place[v] = (r, c)
    if len(place) != t.n or set(place) != set(range(t.n)):
        return False
    lengths = [len(r) for r in f.rows]
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return False
    if PartitionSequence(lengths) != lambda_hat(t):
        return False

    sets: dict[CotreeNode, tuple[set[int], set[int]]] = {}
    for node in postorder(t.root):
        if node.is_leaf:
            r, c = place[node.vertex]
            sets[node] = ({r}, {c})
            continue
        parts = [sets.pop(ch) for ch in node.children]
        rows_acc, cols_acc = max(parts, key=lambda p: len(p[0]) + len(p[1]))
        for rows_part, cols_part in parts:
            if rows_part is rows_acc:
                continue
            if node.label == 1:
                if rows_acc & rows_part:
                    return False  # a row crosses a join: not independent
            else:
                if cols_acc & cols_part:
                    return False  # a column crosses a union: not a clique
            rows_acc |= rows_part
            cols_acc |= cols_part
        sets[node] = (rows_acc, cols_acc)
    return True


# --- read-offs -------------------------------------------------------------


def _require_natural(k: int, l: int) -> None:
    """Raise ValueError unless both colouring parameters are at least 0."""
    if k < 0 or l < 0:
        raise ValueError("k and l must be natural numbers")


def read_colouring(f: FerrersRepresentation, k: int, l: int) -> KLColouring:
    """Tall columns become clique parts, remaining row segments independent parts."""
    _require_natural(k, l)
    cols = f.columns
    tall = [c for c in cols if len(c) > k]
    if len(tall) > l:
        raise ValueError(
            f"not ({k},{l})-colourable: {len(tall)} columns are taller than {k}"
        )
    t = len(tall)
    independent = []
    for r, row in enumerate(f.rows):
        if r >= k:
            break
        rest = row[t:]
        if rest:
            independent.append(frozenset(rest))
    return KLColouring(
        tuple(independent), tuple(frozenset(c) for c in tall)
    )


def read_obstruction(f: FerrersRepresentation, k: int, l: int) -> BoxCertificate:
    """Top (k+1) cells of the leftmost (l+1) tall columns certify failure."""
    _require_natural(k, l)
    cols = f.columns
    tall = sum(1 for c in cols if len(c) > k)
    if tall <= l:
        raise ValueError(f"graph is ({k},{l})-colourable: no obstruction")
    vertices = frozenset(v for c in cols[: l + 1] for v in c[: k + 1])
    return BoxCertificate(vertices, k + 1, l + 1)


# --- rendering -------------------------------------------------------------


def render_ascii(f: FerrersRepresentation) -> str:
    """Rows of labels aligned into columns."""
    width = max((len(f.label(v)) for row in f.rows for v in row), default=1)
    return "\n".join(
        " ".join(f.label(v).rjust(width) for v in row) for row in f.rows
    )


_SVG_UNIT = 40


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
                f'font-size="12">{escape(f.label(v))}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
