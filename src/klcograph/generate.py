"""Seed-reproducible cotree generators for tests and benchmarks.

A random cotree depends only on the draws that its generator makes, in a
fixed order, from the seed's ``randrange`` stream (``Random._randbelow``):
the root's label, then per internal node, in the order the walk meets them,
its child count and its cuts, each drawn as ``randint`` and ``sample`` would
draw them.  The tests pin the trees, the lists and the generator's state
after the call against the generator first written with those two calls.
Drawing directly, ``random_cotree(2**16, 5)`` takes 62 ms, against 198 ms
through the two calls, and ``random_cotree(2**20, 5)`` 1.1-1.3 s, against
3.1-3.2 s (Python 3.11, 2-core VM; medians of calls alternated in one
process).
"""

from __future__ import annotations

import random
from math import ceil, log

from .cotree import Cotree


def _check_count(name: str, value: object, least: int) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool) of at least ``least``."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")


def random_cotree(
    n: int,
    seed: int | random.Random = 0,
    max_children: int = 4,
) -> Cotree:
    """Random cotree with n leaves: top-down budget splitting, labels alternate."""
    _check_count("n", n, 1)
    _check_count("max_children", max_children, 2)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    # every draw is _randbelow's, the one draw that randrange, randint and
    # sample make, so the tree is the one those calls would give
    below = rng._randbelow
    # the walk meets the nodes in the reverse of postorder, so it writes the
    # lists backwards, and the leaves right to left
    codes: list[int] = []
    counts: list[int] = []
    bigs: list[int] = []
    leaves = n
    # (budget, label); the root's label is randrange(2)
    stack: list[tuple[int, int]] = [(n, below(2) if n > 1 else 0)]
    push = stack.append
    while stack:
        budget, label = stack.pop()
        if budget == 1:
            leaves -= 1
            codes.append(leaves)
            counts.append(0)
            bigs.append(0)
            continue
        # randint(2, min(max_children, budget)) children, so k cuts
        k = 1 + below((max_children if max_children < budget else budget) - 1)
        codes.append(~label)
        counts.append(k + 1)
        label = 1 - label
        if k == 1:
            cut = 1 + below(budget - 1)
            rest = budget - cut
            bigs.append(0 if cut >= rest else 1)
            push((cut, label))
            push((rest, label))
            continue
        # sample(range(1, budget), k): a pool of the budget - 1 cuts while
        # that list is smaller than a set of k, else redraws into a set
        size = budget - 1
        if size <= (21 if k <= 5 else 21 + 4 ** ceil(log(k * 3, 4))):
            pool = list(range(1, budget))
            cuts = []
            for left in range(size, size - k, -1):
                j = below(left)
                cuts.append(pool[j])
                pool[j] = pool[left - 1]
            cuts.sort()
        else:
            chosen: set[int] = set()
            for _ in range(k):
                cut = 1 + below(size)
                while cut in chosen:
                    cut = 1 + below(size)
                chosen.add(cut)
            cuts = sorted(chosen)
        cuts.append(budget)
        prev = most = big = 0
        for i, cut in enumerate(cuts):
            if cut - prev > most:
                most = cut - prev
                big = i
            push((cut - prev, label))
            prev = cut
        bigs.append(big)
    codes.reverse()
    counts.reverse()
    bigs.reverse()
    return Cotree._of(codes, counts, bigs, n)


def deep_alternating_cotree(n: int, top_label: int = 0) -> Cotree:
    """Spine of depth n-1 with one leaf hanging off each level.

    Adversarial for the rebuild-per-node algorithms: the sequence and grid
    at depth d have size about d, so total work is quadratic.
    """
    _check_count("n", n, 1)
    if type(top_label) is not int or top_label not in (0, 1):
        raise ValueError(f"top label must be the int 0 or 1, got {top_label!r}")
    # in postorder: leaf 0, then per level its leaf v and the node over the
    # spine and v, whose first largest child is the spine
    codes = [0]
    label = top_label if n % 2 == 0 else 1 - top_label
    for v in range(1, n):
        codes += (v, ~label)
        label = 1 - label
    return Cotree._of(codes, [0] + [0, 2] * (n - 1), [0] * (2 * n - 1), n)
