"""Non-increasing integer sequences and the bottom-up colouring calculus.

``kappa_hat`` computes the minimum-independent-parts sequence of a cograph
small-to-large: each node merges its children's sequences into the one of
its ``big`` child, the child with the most leaves, for O(n log n) total
work.  A sequence is a list of [-value, count] runs, ascending as lists, so
``bisect`` finds a value's run comparing in C.  A leaf costs O(1): a node of
leaves only is built in one step, and the leaves beside a larger sibling
join the node's sequence at once.  ``lambda_hat`` is the conjugate of
kappa.  The plain-array traversals ``kappa_hat_naive`` and
``lambda_hat_naive`` are the references that the tests and benchmarks
compare against; the latter swaps the two operators, so it checks the
conjugacy on the cotree side.  Every one of them is a per-node rule walked
by the cotree module's one bottom-up fold.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

from .cotree import Cotree, _fold
from .graphs import Graph, VertexSet, is_clique, is_independent_set


class PartitionSequence(tuple):
    """Finite non-increasing sequence of positive integers: a validated tuple."""

    __slots__ = ()

    def __new__(cls, entries: Iterable[int] = ()) -> "PartitionSequence":
        self = super().__new__(cls, (int(e) for e in entries))
        for i, e in enumerate(self):
            if e < 1:
                raise ValueError(f"entry {e} is not positive")
            if i and self[i - 1] < e:
                raise ValueError("entries must be non-increasing")
        return self

    @classmethod
    def constant(cls, value: int, count: int) -> "PartitionSequence":
        """The sequence of ``count`` copies of ``value``."""
        return cls((value,) * count)

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[int, int]]) -> "PartitionSequence":
        entries: list[int] = []
        for value, mult in runs:
            if mult < 1:
                raise ValueError(f"run multiplicity {mult} is not positive")
            entries.extend([value] * mult)
        return cls(entries)

    @classmethod
    def from_text(cls, text: str) -> "PartitionSequence":
        """Parse ``3,3,1`` or run-length ``3^2,1``."""
        text = text.strip()
        if not text:
            return cls()
        runs = []
        for part in text.split(","):
            part = part.strip()
            if "^" in part:
                value, mult = part.split("^", 1)
                runs.append((int(value), int(mult)))
            else:
                runs.append((int(part), 1))
        return cls.from_runs(runs)

    @property
    def entries(self) -> tuple[int, ...]:
        """The entries as a plain tuple."""
        return tuple(self)

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """Run-length form: (value, multiplicity) with strictly decreasing values."""
        return tuple((e, len(list(group))) for e, group in groupby(self))

    @property
    def total(self) -> int:
        return sum(self)

    def to_text(self) -> str:
        return ",".join(map(str, self))

    def __repr__(self) -> str:
        return f"PartitionSequence({tuple.__repr__(self)})"


def entrywise_add(a: PartitionSequence, b: PartitionSequence) -> PartitionSequence:
    """Positional sum; the shorter sequence is zero-padded."""
    if len(a) < len(b):
        a, b = b, a
    return PartitionSequence(tuple(x + y for x, y in zip(a, b)) + a[len(b):])


def star_merge(a: PartitionSequence, b: PartitionSequence) -> PartitionSequence:
    """Multiset union sorted from largest to smallest."""
    return PartitionSequence(sorted(a + b, reverse=True))


def conjugate(s: PartitionSequence) -> PartitionSequence:
    """Reflection of the Ferrers diagram along the main diagonal.

    Entry j is the number of entries above j; as j grows, that count only
    falls, so one pointer walks s from its end: O(len(s) + s[0]) steps, not
    one per cell."""
    out: list[int] = []
    above = len(s)
    for j in range(s[0] if s else 0):
        while s[above - 1] <= j:
            above -= 1
        out.append(above)
    return PartitionSequence(out)


def _check_natural(*values: int) -> None:
    """Raise ValueError unless every colouring parameter (k or l) is at least 0."""
    if any(v < 0 for v in values):
        raise ValueError("k and l must be natural numbers")


def kappa_at(s: PartitionSequence, l: int) -> int:
    """Entry l, with the convention that entries beyond the length are 0."""
    if l < 0:
        raise ValueError("index must be a natural number")
    return s[l] if l < len(s) else 0


def is_kl_colourable(s: PartitionSequence, k: int, l: int) -> bool:
    """Decide (k,l)-colourability from the graph's kappa sequence."""
    _check_natural(k, l)
    return kappa_at(s, l) <= k


def bichromatic_number(s: PartitionSequence) -> int:
    """Least r such that every split k+l = r admits a colouring."""
    if not len(s):
        return 0  # the empty graph needs no parts at all
    return max(s[l] + l for l in range(len(s)))


def cochromatic_number(s: PartitionSequence) -> int:
    """Least r such that some split k+l = r admits a colouring."""
    if not len(s):
        return 0  # the empty graph needs no parts at all
    return min(kappa_at(s, l) + l for l in range(len(s) + 1))


# --- bottom-up computation on trees ---------------------------------------


def kappa_hat_naive(t: Cotree) -> PartitionSequence:
    """Plain-array traversal: concatenate-and-sort at 0-nodes, add at 1-nodes."""
    return PartitionSequence(_naive_values(t, star_label=0))


def lambda_hat_naive(t: Cotree) -> PartitionSequence:
    """Same traversal with the two operators swapped; conjugate to kappa."""
    return PartitionSequence(_naive_values(t, star_label=1))


def _naive_values(t: Cotree, star_label: int) -> list[int]:
    def internal(label: int, parts: list[list[int]], _big: int) -> list[int]:
        if label == star_label:
            merged: list[int] = []
            for part in parts:
                merged += part
            merged.sort(reverse=True)
            return merged
        acc = parts[0]
        for part in parts[1:]:
            if len(part) > len(acc):
                acc, part = part, acc
            for i, e in enumerate(part):
                acc[i] += e
        return acc

    return _fold(t, lambda v: [1], internal)


def kappa_hat(t: Cotree) -> PartitionSequence:
    """Kappa sequence of the represented cograph; first entry is its chromatic
    number, length its clique cover number.

    Each node merges its children into its largest, on [-value, count] runs:
    a binary search for [-value] and an insert per run at a 0-node, an
    entrywise add at a 1-node, where run boundaries of either operand force
    a strict decrease in the sum, so no runs coalesce.  A leaf is None.  A
    node of c leaves is [1]*c or [c]; other leaves join the run of 1s at a
    0-node, and the first entry at a 1-node, all at once.
    """

    def internal(label: int, parts: list, big: int) -> list[list[int]]:
        acc = parts[big]
        if acc is None:  # the largest child is a leaf, so every child is
            return [[-1, len(parts)]] if label == 0 else [[-len(parts), 1]]
        leaves = 0
        for part in parts:
            if part is None:
                leaves += 1
            elif part is acc:
                continue
            elif label:  # add part into acc's prefix, splitting at its boundaries
                i = 0
                for value, count in part:
                    while count:
                        if i == len(acc):
                            acc.append([value, count])
                            i += 1
                            break
                        run = acc[i]
                        i += 1
                        if count < run[1]:
                            run[1] -= count
                            acc.insert(i - 1, [run[0] + value, count])
                            break
                        run[0] += value
                        count -= run[1]
            else:  # a multiset union: add up equal values' counts
                i = 0
                for run in part:
                    i = bisect_left(acc, run[:1], i)
                    if i < len(acc) and acc[i][0] == run[0]:
                        acc[i][1] += run[1]
                    else:
                        acc.insert(i, run)
        if not leaves:
            return acc
        if label == 0:
            if acc[-1][0] == -1:
                acc[-1][1] += leaves
            else:
                acc.append([-1, leaves])
        elif acc[0][1] > 1:  # only its first entry grows: split it off
            acc[0][1] -= 1
            acc.insert(0, [acc[0][0] - leaves, 1])
        else:
            acc[0][0] -= leaves
        return acc

    runs = _fold(t, lambda v: None, internal) or [[-1, 1]]
    return PartitionSequence.from_runs((-value, count) for value, count in runs)


def lambda_hat(t: Cotree) -> PartitionSequence:
    """Lambda sequence: the conjugate of kappa, as it is for every graph."""
    return conjugate(kappa_hat(t))


# --- explicit colourings ---------------------------------------------------


@dataclass(frozen=True)
class KLColouring:
    """Partition of the vertices into independent parts and clique parts."""

    independent_parts: tuple[VertexSet, ...]
    clique_parts: tuple[VertexSet, ...]

    def parts(self) -> tuple[VertexSet, ...]:
        return self.independent_parts + self.clique_parts


def validate_colouring(
    g: Graph, colouring: KLColouring, k: int | None = None, l: int | None = None
) -> bool:
    """Check disjointness, coverage and part validity (and part counts if given)."""
    parts = colouring.parts()
    if sum(len(p) for p in parts) != g.n:
        return False
    union: set[int] = set()
    for p in parts:
        union |= p
    if union != set(range(g.n)):
        return False
    if k is not None and len(colouring.independent_parts) > k:
        return False
    if l is not None and len(colouring.clique_parts) > l:
        return False
    return all(is_independent_set(g, p) for p in colouring.independent_parts) and all(
        is_clique(g, p) for p in colouring.clique_parts
    )

