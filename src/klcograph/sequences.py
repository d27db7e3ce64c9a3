"""Non-increasing integer sequences and the bottom-up colouring calculus.

``kappa_hat`` computes the minimum-independent-parts sequence of a cograph
small-to-large: each node merges its children's sequences into the one of
its ``big`` child, the child with the most leaves, for O(n log n) total
work.  A sequence is a list of runs, each packed into one int,
``-value * (n + 1) + count``, so a list is ascending and ``bisect`` finds a
value's run comparing ints; no run is a container for the garbage collector
to track.  A leaf costs O(1): a node of leaves only is built in one step,
and the leaves beside a larger sibling join the node's sequence at once.
The per-node rule is ``_kappa_rule``, which the certificate module folds
too: it changes only the big child's list, so every other child's list is
still that child's kappa after the fold.  ``lambda_hat`` is the conjugate of
kappa.  The plain-array traversal ``kappa_hat_naive`` is the reference
that the tests and benchmarks compare against; on ``complement_cotree(t)``,
whose flipped labels swap the two operators, it is lambda's reference, so it
checks the conjugacy on the cotree side.  Each of the two is a per-node
rule walked by the cotree module's one bottom-up fold.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby
from typing import Iterable

from .cotree import Cotree, _fold


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
    def runs(self) -> tuple[tuple[int, int], ...]:
        """Run-length form: (value, multiplicity) with strictly decreasing values."""
        return tuple((e, len(list(group))) for e, group in groupby(self))

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
    return max((s[l] + l for l in range(len(s))), default=0)  # 0 parts for no vertex


def cochromatic_number(s: PartitionSequence) -> int:
    """Least r such that some split k+l = r admits a colouring."""
    return min(kappa_at(s, l) + l for l in range(len(s) + 1))


# --- bottom-up computation on trees ---------------------------------------


def kappa_hat_naive(t: Cotree) -> PartitionSequence:
    """Plain-array traversal: concatenate-and-sort at 0-nodes, add at 1-nodes.
    On ``complement_cotree(t)`` it gives t's lambda."""

    def internal(label: int, parts: list[list[int]], _big: int) -> list[int]:
        if label == 0:
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

    return PartitionSequence(_fold(t, lambda v: [1], internal))


def _kappa_rule(n: int):
    """``kappa_hat``'s per-node rule for ``_fold`` on a tree of n leaves.

    A leaf is None.  A node's runs are packed ints, ``-value * (n + 1) +
    count``, ascending, so ``bisect`` finds a value's run comparing ints.  Each
    node merges its children into its largest child's list, ``acc``: a binary
    search for the value and an insert per run at a 0-node, an entrywise add
    at a 1-node, where run boundaries of either operand force a strict
    decrease in the sum, so no runs coalesce.  A node of c leaves is [1]*c or
    [c]; other leaves join the run of 1s at a 0-node, and the first entry at
    a 1-node, all at once.  Only ``acc`` changes: every other child's list is
    left as its kappa.
    """
    m = n + 1
    ones = -m  # every run of 1s is above it, every other run below

    def internal(label: int, parts: list, big: int) -> list[int]:
        acc = parts[big]
        if acc is None:  # the largest child is a leaf, so every child is
            return [len(parts) - m] if label == 0 else [1 - len(parts) * m]
        leaves = 0
        for part in parts:
            if part is None:
                leaves += 1
            elif part is acc:
                continue
            elif label:  # add part into acc's prefix, splitting at its boundaries
                i = 0
                for run in part:
                    count = run % m
                    value = run - count  # -value * m
                    while count:
                        if i == len(acc):
                            acc.append(value + count)
                            i += 1
                            break
                        old = acc[i]
                        have = old % m
                        if count < have:
                            acc[i] = old - count
                            acc.insert(i, old - have + value + count)
                            i += 1
                            break
                        acc[i] = old + value
                        i += 1
                        count -= have
            else:  # a multiset union: add up equal values' counts
                i = 0
                for run in part:
                    count = run % m
                    i = bisect_left(acc, run - count, i)
                    if i < len(acc) and acc[i] - run + count < m:
                        acc[i] += count
                    else:
                        acc.insert(i, run)
        if not leaves:
            return acc
        if label == 0:
            if acc[-1] > ones:  # a run of 1s
                acc[-1] += leaves
            else:
                acc.append(leaves + ones)
        else:
            first = acc[0]
            if first % m == 1:
                acc[0] = first - leaves * m
            else:  # only its first entry grows: split it off
                acc[0] = first - 1
                acc.insert(0, first - first % m - leaves * m + 1)
        return acc

    return internal


def _leaf(v: int) -> None:
    return None


def _kappa_entry(runs: list[int] | None, j: int, n: int) -> int:
    """Entry j of the kappa that ``_kappa_rule(n)`` left as ``runs`` (None
    at a leaf), 0 beyond its length."""
    if runs is None:
        return 0 if j else 1
    m = n + 1
    for run in runs:
        count = run % m
        if j < count:
            return -(run // m)
        j -= count
    return 0


def _kappa_above(runs: list[int], k: int, n: int) -> int:
    """How many entries of the kappa that ``_kappa_rule(n)`` left as ``runs``
    at an internal node exceed k."""
    m = n + 1
    total = 0
    for run in runs:
        if run >= -k * m:  # value <= k, and so are the runs after it
            break
        total += run % m
    return total


def kappa_hat(t: Cotree) -> PartitionSequence:
    """Kappa sequence of the represented cograph; first entry is its chromatic
    number, length its clique cover number.  One fold of ``_kappa_rule``."""
    m = t.n + 1
    runs = _fold(t, _leaf, _kappa_rule(t.n)) or [1 - m]
    return PartitionSequence.from_runs((-(run // m), run % m) for run in runs)


def lambda_hat(t: Cotree) -> PartitionSequence:
    """Lambda sequence: the conjugate of kappa, as it is for every graph."""
    return conjugate(kappa_hat(t))
