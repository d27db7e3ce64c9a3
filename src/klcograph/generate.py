"""Seed-reproducible cotree generators for tests and benchmarks."""

from __future__ import annotations

import random

from .cotree import Cotree


def random_cotree(
    n: int,
    seed: int | random.Random = 0,
    max_children: int = 4,
) -> Cotree:
    """Random cotree with n leaves: top-down budget splitting, labels alternate."""
    if n < 1:
        raise ValueError("need at least one leaf")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    # the walk meets the nodes in the reverse of postorder, so it writes the
    # lists backwards, and the leaves right to left
    codes: list[int] = []
    counts: list[int] = []
    bigs: list[int] = []
    leaves = n
    # (budget, forced label or None)
    stack: list[tuple[int, int | None]] = [(n, None)]
    while stack:
        budget, label = stack.pop()
        if budget == 1:
            leaves -= 1
            codes.append(leaves)
            counts.append(0)
            bigs.append(0)
            continue
        if label is None:
            label = rng.randrange(2)
        t = rng.randint(2, min(max_children, budget))
        cuts = sorted(rng.sample(range(1, budget), t - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        codes.append(~label)
        counts.append(t)
        bigs.append(parts.index(max(parts)))
        below = 1 - label
        stack.extend([(part, below) for part in parts])
    codes.reverse()
    counts.reverse()
    bigs.reverse()
    return Cotree._of(codes, counts, bigs, n)


def deep_alternating_cotree(n: int, top_label: int = 0) -> Cotree:
    """Spine of depth n-1 with one leaf hanging off each level.

    Adversarial for the rebuild-per-node algorithms: the sequence and grid
    at depth d have size about d, so total work is quadratic.
    """
    if n < 1:
        raise ValueError("need at least one leaf")
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
