"""Exhaustive ground truth for small graphs.

Everything here works on vertex bitmasks of a fixed parent graph, with
per-invocation memo tables.  One memo maps each mask to its whole kappa
sequence up to the first 0, and chi is its entry 0.  A mask's sequence comes
from those of the masks left once a maximal independent set or a maximal
clique through its lowest vertex is removed (Lawler 1976), enumerated once
per mask by Bron-Kerbosch seeded at that vertex, on an explicit stack: each
side's elementwise minimum, which ends with its shortest sequence since
entries past a sequence's end are 0.  A mask of at most three vertices is
read off its vertex and edge counts instead: it has no P4, and its edge
count fixes it up to isomorphism.  Lambda is kappa's conjugate, as the
paper proves for every graph, so no second engine runs on the complement.
Box-cograph membership follows the recursive definition, except that a
disconnected graph is a member iff its components are members with one
chromatic number: by induction on their number, since a disjoint union's
chromatic number is its parts' largest.  A set connected in one graph is
split in the other, so each set is searched at most once on each side.  A
part's chromatic number in the complement is its clique cover number theta,
the length of its kappa sequence, so both sides share one engine and its
memo.  Results are exact; exceeding the vertex budget is an error, never an
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .sequences import PartitionSequence, _check_natural

# The cliques through v are the maximal cliques of G[N(v)], at most
# 4 * 3^11 < 10^6 of them while |N(v)| <= 37 (Moon & Moser 1965), so this
# guard can only trip at n >= 39.
_MAX_CLIQUES_ENUMERATED = 1_000_000


# kappa of a graph on at most three vertices with m edges is _SMALL[n][m]
_SMALL = (
    ((),),
    ((1,),),
    ((1, 1), (2,)),
    ((1, 1, 1), (2, 1), (2, 1), (3,)),
)


class BudgetExceededError(ValueError):
    """Raised when a graph is too large for exhaustive computation."""


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 12

    def __post_init__(self) -> None:
        if self.max_vertices < 1:
            raise ValueError("max_vertices must be at least 1")


DEFAULT_BUDGET = OracleBudget()


def _adj_masks(g: Graph) -> list[int]:
    return [sum(1 << w for w in g.adj[v]) for v in range(g.n)]


def _maximal_cliques(adj: list[int], mask: int) -> list[int]:
    """Maximal cliques of the subgraph induced by the nonempty ``mask`` that
    contain its lowest vertex v: Bron-Kerbosch started from r = {v} and
    p = mask & N(v), on an explicit stack of (r, p, x) states.  It pivots on
    the lowest vertex of p | x.  Any pivot from p | x lists each maximal
    clique once, and the masks that the engine enumerates hold 5.4 vertices
    on average over small-many's n <= 12 graphs (perfbench), too few for a
    search for the best pivot to pay for itself."""
    found: list[int] = []
    low = mask & -mask
    stack = [(low, mask & adj[low.bit_length() - 1], 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                found.append(r)
                if len(found) > _MAX_CLIQUES_ENUMERATED:
                    raise BudgetExceededError("maximal clique enumeration limit hit")
            continue
        px = p | x
        cand = p & ~adj[(px & -px).bit_length() - 1]
        while cand:
            bit = cand & -cand
            cand ^= bit
            nv = adj[bit.bit_length() - 1]
            stack.append((r | bit, p & nv, x & nv))
            p ^= bit
            x |= bit
    return found


class _Engine:
    """Exact kappa over one fixed graph, given by the adjacency masks of the
    graph and of its complement.  One dict maps each mask met to its whole
    kappa sequence up to the first 0, filled once per mask."""

    def __init__(self, adj: list[int], co: list[int]) -> None:
        self.adj = adj
        self.co = co
        self._seqs: dict[int, tuple[int, ...]] = {}

    def seq(self, mask: int) -> tuple[int, ...]:
        """Entries kappa(mask, 0), kappa(mask, 1), ... up to the first 0.

        Some optimal colouring puts the lowest vertex in a maximal part:
        growing its part keeps every other part valid once the added
        vertices leave them.  So with ``ind`` and ``cl`` the least sequences
        left once a maximal independent set or a maximal clique through it
        is removed, entry 0 is 1 + ind[0] and entry l >= 1 is
        min(1 + ind[l], cl[l - 1]), reading past a sequence's end as 0.

        A mask of at most three vertices induces a cograph, since a P4 needs
        four, and its n vertices and m edges fix it up to isomorphism: the
        empty graph, K2 plus K1 or P3, or Kn.  Their sequences are
        ``_SMALL[n][m]``.
        """
        known = self._seqs.get(mask)
        if known is not None:
            return known
        n = mask.bit_count()
        if n <= 3:
            m, rest = 0, mask
            while rest:
                low = rest & -rest
                rest ^= low
                m += (self.adj[low.bit_length() - 1] & rest).bit_count()
            known = self._seqs[mask] = _SMALL[n][m]
            return known
        ind = self._least(self.co, mask)
        cl = self._least(self.adj, mask)
        ind += (0,) * (len(cl) + 1 - len(ind))
        known = self._seqs[mask] = (
            1 + ind[0],
            *[i + 1 if i < c else c for i, c in zip(ind[1:], cl)],
        )
        return known

    def _least(self, adj: list[int], mask: int) -> tuple[int, ...]:
        """Elementwise least sequence of the masks left once each maximal
        clique of ``adj`` through the lowest vertex of ``mask`` is removed.
        It ends with the shortest one, whose entries past its end are 0."""
        seqs = [self.seq(mask ^ s) for s in _maximal_cliques(adj, mask)]
        return seqs[0] if len(seqs) == 1 else tuple(map(min, *seqs))


def _engine(g: Graph, budget: OracleBudget) -> _Engine:
    if g.n > budget.max_vertices:
        raise BudgetExceededError(
            f"graph has {g.n} vertices, budget allows {budget.max_vertices}"
        )
    adj = _adj_masks(g)
    full = (1 << g.n) - 1
    return _Engine(adj, [full & ~m & ~(1 << v) for v, m in enumerate(adj)])


def kappa_hat_oracle(
    g: Graph, budget: OracleBudget = DEFAULT_BUDGET
) -> PartitionSequence:
    """Kappa sequence: chi is ``kappa_at(s, 0)``, kappa_l is ``kappa_at(s, l)``
    and (k,l)-colourability is ``is_kl_colourable(s, k, l)``.  The lambda
    sequence is ``conjugate(s)``."""
    return PartitionSequence(_engine(g, budget).seq((1 << g.n) - 1))


def is_kl_colourable_exhaustive(g: Graph, k: int, l: int) -> bool:
    """Independent second route: raw search over part assignments (n <= 8)."""
    _check_natural(k, l)
    if g.n > 8:
        raise BudgetExceededError("exhaustive partition search limited to n <= 8")
    adj = _adj_masks(g)
    # at most n parts are non-empty, so more slots than n change nothing
    ind_parts = [0] * min(k, g.n)
    cl_parts = [0] * min(l, g.n)

    def place(v: int) -> bool:
        if v == g.n:
            return True
        bit = 1 << v
        # a part may take v unless it holds a neighbour (independent parts)
        # or a non-neighbour (clique parts); of the empty parts, try one
        for parts, clash in ((ind_parts, adj[v]), (cl_parts, ~adj[v])):
            seen_empty = False
            for i, part in enumerate(parts):
                if part == 0:
                    if seen_empty:
                        continue
                    seen_empty = True
                if part & clash:
                    continue
                parts[i] |= bit
                if place(v + 1):
                    return True
                parts[i] &= ~bit
        return False

    return place(0)


# --- recursive box-cograph membership --------------------------------------


def _components_mask(adj: list[int], mask: int) -> list[int]:
    comps = []
    todo = mask
    while todo:
        start = todo & -todo
        comp = start
        frontier = start
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = adj[v] & todo & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        todo &= ~comp
    return comps


def box_cograph_dimension(
    g: Graph, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[int, int] | None:
    """(chromatic number, clique cover number) if g is a box cograph, else None.

    Membership follows the recursive definition: K1 is in; the class is closed
    under complement; and under disjoint unions of two members with equal
    chromatic number, so a disconnected graph is in iff its components are,
    all with one chromatic number.
    """
    if g.n == 0:
        return None
    eng = _engine(g, budget)
    full = (1 << g.n) - 1
    # a part's chromatic number in g, and in g's complement: the length of
    # its kappa sequence, theta, is the least l with a (0,l)-colouring
    sides = ((eng.adj, lambda c: eng.seq(c)[0]), (eng.co, lambda c: len(eng.seq(c))))

    def member(side: int, mask: int) -> bool:
        # side 0 tests the induced subgraph of g, side 1 that of its
        # complement; a set connected on its side is split on the other
        if mask & (mask - 1) == 0:
            return True  # single vertex
        for side in (side, 1 - side):
            adj, chi = sides[side]
            comps = _components_mask(adj, mask)
            if len(comps) > 1:
                first = chi(comps[0])
                return all(chi(c) == first and member(side, c) for c in comps)
        return False  # connected in both: contains a P4

    if not member(0, full):
        return None
    kappa = eng.seq(full)
    return (kappa[0], len(kappa))
