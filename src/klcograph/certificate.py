"""Induced box-cograph obstructions, and the answer to a (k,l) query.

A cograph fails to be (k-1,l-1)-colourable exactly when it contains an
induced box cograph of dimension k times l.  ``certify_non_colourable``
finds either certificate, an explicit colouring or a box, from the kappa
calculus alone: one fold of ``kappa_hat``'s rule that keeps each node's
children's runs, then one top-down walk that gives each child its share of
the parts or of the box.  A non-big child's share is one query on its runs,
which the fold left intact; the big child gets what is left, which the
parent's own answer makes enough.  ``ferrers.read_obstruction`` reads the
box off the Ferrers diagram instead (the top k cells of its leftmost l
columns), as the paper does; it is tested on its own.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Union

from .cotree import Cotree, P4Witness, _descend, _fold, build_cotree
from .graphs import Graph, VertexSet, induced_subgraph
from .sequences import (
    KLColouring,
    PartitionSequence,
    _check_natural,
    _kappa_above,
    _kappa_entry,
    _kappa_rule,
    _leaf,
    kappa_hat_naive,
)


@dataclass(frozen=True)
class BoxCertificate:
    """Vertex set inducing a box cograph of dimension k times l.

    The constructor stores the vertices as a frozenset and raises ValueError
    unless k, l >= 1 and there are k * l distinct vertices.
    """

    vertices: VertexSet
    k: int
    l: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        if self.k < 1 or self.l < 1:
            raise ValueError("certificate dimensions must be at least 1 times 1")
        if len(self.vertices) != self.k * self.l:
            raise ValueError(
                f"certificate has {len(self.vertices)} vertices, expected {self.k * self.l}"
            )


def box_cograph_failure(g: Graph, cert: BoxCertificate) -> str | None:
    """None if the certificate verifies, otherwise a short reason code."""
    if not all(0 <= v < g.n for v in cert.vertices):
        return "vertices-out-of-range"
    sub = induced_subgraph(g, cert.vertices)
    built = build_cotree(sub)
    if isinstance(built, P4Witness):
        return "not-a-cograph"
    if kappa_hat_naive(built) != PartitionSequence.constant(cert.k, cert.l):
        return "kappa-not-constant"
    return None


def verify_box_cograph(g: Graph, cert: BoxCertificate) -> bool:
    """True iff cert.vertices induce a box cograph of dimension k times l."""
    return box_cograph_failure(g, cert) is None


def certify_non_colourable(
    t: Cotree, k: int, l: int
) -> Union[KLColouring, BoxCertificate]:
    """Either an explicit (k,l)-colouring or a (k+1)x(l+1) obstruction,
    decided from the root's kappa and found by one descent."""
    _check_natural(k, l)
    rule = _kappa_rule(t.n)
    # every child's runs, in one flat list: a list per node would be one
    # more container per node for the garbage collector to scan
    kept: list = []

    def keep(label: int, parts: list, big: int) -> list[int]:
        kept.extend(parts)
        return rule(label, parts, big)

    if _kappa_entry(_fold(t, _leaf, keep), l, t.n) <= k:
        return _colouring(t, kept, k, l)
    return _box(t, kept, k + 1, l + 1)


def _colouring(t: Cotree, kept: list, k: int, l: int) -> KLColouring:
    """The descent to a (k,l)-colouring, at demands (k', l', first
    independent part, first clique part): each node may use k' independent
    parts and l' cliques from those offsets on.  At a 0-node the children
    share the independent parts, and each non-big child takes as many
    cliques as its kappa has entries above k', at fresh offsets; at a
    1-node, dually, the children share the cliques, and each non-big child
    takes kappa_{l'} independent parts.  A leaf's demand is the part it
    joins: the shared part of its kind if there is one, else a fresh part
    of the other kind."""
    n = t.n
    independent: defaultdict[int, list[int]] = defaultdict(list)
    cliques: defaultdict[int, list[int]] = defaultdict(list)

    def internal(label: int, parts: list, big: int, d: tuple[int, int, int, int]) -> list:
        k, l, first, clique = d
        out: list = []
        shared = None  # the part that leaf children share
        for j, runs in enumerate(parts):
            if runs is None:
                if l if label else k:
                    if shared is None:
                        shared = cliques[clique] if label else independent[first]
                    out.append(shared)
                elif label:
                    out.append(independent[first])
                    first += 1
                    k -= 1
                else:
                    out.append(cliques[clique])
                    clique += 1
                    l -= 1
            elif j == big:
                out.append(None)
            elif label:
                need = _kappa_entry(runs, l, n)
                out.append((need, l, first, clique))
                first += need
                k -= need
            else:
                need = _kappa_above(runs, k, n)
                out.append((k, need, first, clique))
                clique += need
                l -= need
        if parts[big] is not None:
            out[big] = (k, l, first, clique)
        return out

    # the root's demand; a lone vertex's is its part
    root = (k, l, 0, 0) if kept else (independent if k else cliques)[0]
    _descend(t, kept, root, internal)
    return KLColouring(
        tuple(frozenset(independent[i]) for i in sorted(independent)),
        tuple(frozenset(cliques[i]) for i in sorted(cliques)),
    )


def _box(t: Cotree, kept: list, k: int, l: int) -> BoxCertificate:
    """The descent to an induced k x l box, at demands (k', l'): a 0-node's
    non-big children give min(#{entries >= k'}, what is left) of the l'
    columns, a 1-node's min(kappa_{l'-1}, what is left) of the k' rows, in
    child order, and the big child the rest.  A zero share skips a subtree.
    A leaf reached is a 1 x 1 box, and its demand is the box's list."""
    n = t.n
    box: list[int] = []

    def internal(label: int, parts: list, big: int, d: tuple[int, int]) -> list:
        k, l = d
        out: list = [None] * len(parts)
        for j, runs in enumerate(parts):
            if j == big:
                continue
            if runs is None:  # a leaf, kappa [1], is a 1 x 1 box
                if (l if label else k) == 1:
                    out[j] = box
                    if label:
                        k -= 1
                    else:
                        l -= 1
            elif label:
                give = min(_kappa_entry(runs, l - 1, n), k)
                if give:
                    out[j] = (give, l)
                    k -= give
            else:
                give = min(_kappa_above(runs, k - 1, n), l)
                if give:
                    out[j] = (k, give)
                    l -= give
            if not (k and l):
                return out
        out[big] = (k, l) if parts[big] is not None else box
        return out

    _descend(t, kept, (k, l) if kept else box, internal)
    return BoxCertificate(box, k, l)
