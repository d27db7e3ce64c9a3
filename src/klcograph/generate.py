"""Seed-reproducible cotree generators for tests and benchmarks."""

from __future__ import annotations

import random

from .cotree import Cotree, CotreeNode


def random_cotree(
    n: int,
    seed: int | random.Random = 0,
    max_children: int = 4,
) -> Cotree:
    """Random cotree with n leaves: top-down budget splitting, labels alternate."""
    if n < 1:
        raise ValueError("need at least one leaf")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    root = CotreeNode()
    leaves = n  # the walk meets the leaves right to left
    # (node, budget, forced label or None)
    stack: list[tuple[CotreeNode, int, int | None]] = [(root, n, None)]
    while stack:
        node, budget, label = stack.pop()
        if budget == 1:
            leaves -= 1
            node.vertex = leaves
            node.children = ()  # the one empty tuple that every leaf shares
            continue
        node.label = rng.randrange(2) if label is None else label
        t = rng.randint(2, min(max_children, budget))
        cuts = sorted(rng.sample(range(1, budget), t - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        for part in parts:
            child = CotreeNode()
            node.children.append(child)
            stack.append((child, part, 1 - node.label))
    return Cotree(root, n)


def deep_alternating_cotree(n: int, top_label: int = 0) -> Cotree:
    """Spine of depth n-1 with one leaf hanging off each level.

    Adversarial for the rebuild-per-node algorithms: the sequence and grid
    at depth d have size about d, so total work is quadratic.
    """
    if n < 1:
        raise ValueError("need at least one leaf")
    if type(top_label) is not int or top_label not in (0, 1):
        raise ValueError(f"top label must be the int 0 or 1, got {top_label!r}")
    node = CotreeNode(vertex=0)
    label = top_label if n % 2 == 0 else 1 - top_label
    for v in range(1, n):
        node = CotreeNode(label=label, children=[node, CotreeNode(vertex=v)])
        label = 1 - label
    return Cotree(node, n)
