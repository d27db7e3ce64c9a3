"""Induced box-cograph obstructions.

A cograph fails to be (k-1,l-1)-colourable exactly when it contains an
induced box cograph of dimension k times l.  Such a certificate, like an
explicit colouring, is read off the Ferrers diagram representation: the top
k cells of its leftmost l columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .cotree import Cotree, P4Witness, build_cotree
from .ferrers import FerrersRepresentation, _tall_columns, build_ferrers, read_colouring
from .graphs import Graph, VertexSet, induced_subgraph
from .sequences import KLColouring, PartitionSequence, kappa_hat_naive


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


def read_obstruction(f: FerrersRepresentation, k: int, l: int) -> BoxCertificate:
    """Top (k+1) cells of the leftmost (l+1) tall columns certify failure."""
    if _tall_columns(f, k, l) <= l:
        raise ValueError(f"graph is ({k},{l})-colourable: no obstruction")
    vertices = frozenset(v for row in f.rows[: k + 1] for v in row[: l + 1])
    return BoxCertificate(vertices, k + 1, l + 1)


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
    """Either an explicit (k,l)-colouring or a (k+1)x(l+1) obstruction, both
    read off one Ferrers diagram."""
    f = build_ferrers(t)
    if _tall_columns(f, k, l) <= l:
        return read_colouring(f, k, l)
    return read_obstruction(f, k, l)
