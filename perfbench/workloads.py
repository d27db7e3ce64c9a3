"""The four workloads: their inputs, their queries and the independent check of each answer.

A workload's inputs form one *round*: a fixed multiset of sizes whose
inputs are drawn from the seed.  A run repeats whole rounds, so the size mix
of the measured queries does not depend on how fast the program is.

A query is one input taken from the public entry point to its full answer.
Checks run after the query, outside its timed region, and return ``None``
or a ``(layer, reason)`` pair.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from types import SimpleNamespace

import gen

# -- shared checks ---------------------------------------------------------


def kappa_ref(lib, inp):
    """Reference kappa sequence of a cograph input, from the plain-array engine."""
    if "kappa" not in inp.info:
        inp.info["kappa"] = lib.kappa_hat_naive(inp.tree)
    return inp.info["kappa"]


def graph_of(lib, inp):
    if "graph" not in inp.info:
        edges = [(u, v) for u, nbrs in enumerate(inp.adjacency()) for v in nbrs if u < v]
        inp.info["graph"] = lib.Graph.from_edges(inp.n, edges)
    return inp.info["graph"]


def kl_command(name, kappa, u: float, colourable: bool) -> tuple[str, ...]:
    """``check``/``certify`` at l = u * len(kappa), with k on the given side of kappa[l]."""
    l = int(u * len(kappa))
    k = kappa[l] if colourable else kappa[l] - 1
    return (name, "-k", str(k), "-l", str(l))


def kl_of(cmd) -> tuple[int, int]:
    return int(cmd[cmd.index("-k") + 1]), int(cmd[cmd.index("-l") + 1])


def params_of(kappa) -> dict:
    """The ``params`` answer, from the definitions: entries beyond the end are 0."""
    es = list(kappa) + [0]
    return {
        "chi": es[0],
        "theta": len(es) - 1,
        "bichromatic": max((es[l] + l for l in range(len(es) - 1)), default=0),
        "cochromatic": min(es[l] + l for l in range(len(es))),
    }


def transpose(rows) -> tuple[tuple[int, ...], ...]:
    if not rows:
        return ()
    return tuple(
        tuple(row[c] for row in rows if len(row) > c) for c in range(len(rows[0]))
    )


def colouring_fits_cotree(tree, col, k: int, l: int) -> bool:
    """Check a (k,l)-colouring against the cotree without building the graph.

    Two vertices are adjacent iff their lowest common ancestor is a 1-node,
    so a part is independent iff no 1-node sees it in two child subtrees, and
    a clique iff no 0-node does.  Part-id sets merge small into large.
    """
    if len(col.independent_parts) > k or len(col.clique_parts) > l:
        return False
    owner: list = [None] * tree.n
    for kind, parts in ((0, col.independent_parts), (1, col.clique_parts)):
        for i, part in enumerate(parts):
            for v in part:
                if not 0 <= v < tree.n or owner[v] is not None:
                    return False
                owner[v] = (kind, i)
    if any(o is None for o in owner):
        return False
    sets: dict[int, tuple[set, set]] = {}
    for node in gen.postorder(tree.root):
        if not node.children:
            kind, i = owner[node.vertex]
            sets[id(node)] = ({i}, set()) if kind == 0 else (set(), {i})
            continue
        parts = [sets.pop(id(c)) for c in node.children]
        acc = max(parts, key=lambda p: len(p[0]) + len(p[1]))
        for part in parts:
            if part is acc:
                continue
            clash = acc[0] & part[0] if node.label == 1 else acc[1] & part[1]
            if clash:
                return False
            acc[0].update(part[0])
            acc[1].update(part[1])
        sets[id(node)] = acc
    return True


def induced_subcotree(lib, tree, vertices):
    """Cotree of the subgraph induced by ``vertices``, relabelled 0..|S|-1 by id."""
    index = {v: i for i, v in enumerate(sorted(vertices))}
    built: dict[int, object] = {}
    for node in gen.postorder(tree.root):
        if not node.children:
            v = index.get(node.vertex)
            built[id(node)] = None if v is None else lib.CotreeNode(vertex=v)
            continue
        kids = [b for c in node.children if (b := built.pop(id(c))) is not None]
        if len(kids) > 1:
            built[id(node)] = lib.CotreeNode(label=node.label, children=kids)
        else:
            built[id(node)] = kids[0] if kids else None
    return lib.Cotree(built[id(tree.root)], len(index))


# Box graphs with more edges than this are checked on the sub-cotree only:
# the largest tree-workload boxes have thousands of vertices.
BOX_GRAPH_MAX_EDGES = 20_000


def check_box_on_tree(lib, hooks, tree, cert, k: int, l: int):
    if (cert.k, cert.l) != (k, l) or len(cert.vertices) != k * l:
        return "box-wrong-size"
    sub = induced_subcotree(lib, tree, cert.vertices)
    if lib.kappa_hat_naive(sub) != lib.PartitionSequence.constant(k, l):
        return "box-kappa-not-constant"
    hooks.boxes.append(k * l)
    sizes: dict[int, int] = {}
    edges = 0
    for node in gen.postorder(sub.root):
        if not node.children:
            sizes[id(node)] = 1
            continue
        parts = [sizes.pop(id(c)) for c in node.children]
        total = sum(parts)
        if node.label == 1:
            edges += (total * total - sum(p * p for p in parts)) // 2
        sizes[id(node)] = total
    if edges <= BOX_GRAPH_MAX_EDGES:
        adj = gen.cotree_adjacency(sub.root, sub.n)
        g = lib.Graph.from_edges(sub.n, [(u, v) for u in range(sub.n) for v in adj[u] if u < v])
        cert = lib.BoxCertificate(frozenset(range(sub.n)), k, l)
        with hooks.check_span():
            if not lib.verify_box_cograph(g, cert):
                return "box-not-verified"
    return None


def same_tree(a, b) -> bool:
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if (x.label, x.vertex, len(x.children)) != (y.label, y.vertex, len(y.children)):
            return False
        stack.extend(zip(x.children, y.children))
    return True


# -- tree workloads ---------------------------------------------------------


class TreeWorkload:
    """Library queries on generated cotrees; no parsing or recognition runs."""

    ROUNDS = 3  # rounds of distinct inputs

    def __init__(self, classes, deep):
        self.classes = classes  # (size, inputs per round)
        self.deep = deep  # deep_alternating_cotree with both top labels, no round trip

    def setup(self, lib, rng) -> list[list[tuple]]:
        rounds = []
        for r in range(self.ROUNDS):
            inputs = []
            for n in gen.size_classes(self.classes, rng):
                if self.deep:
                    for top in (0, 1):
                        tree = lib.deep_alternating_cotree(n, top)
                        inputs.append(gen.Input(f"deep-top{top}", n, tree=tree))
                else:
                    tree = lib.random_cotree(n, rng.randrange(2**32))
                    inputs.append(gen.Input("random", n, tree=tree))
            # where in the kappa sequence the (k, l) pairs sit, stratified over the round
            positions = [(j + rng.random()) / len(inputs) for j in range(len(inputs))]
            rng.shuffle(positions)
            for inp, u in zip(inputs, positions):
                inp.params = (u,)
            rounds.append([(inp, [None]) for inp in inputs])
        return rounds

    def prepare(self, lib, inp, spec):
        return gen.clone_cotree(lib, inp.tree), inp.params[0]

    def execute(self, lib, arg):
        t, u = arg
        kap = lib.kappa_hat(t)
        lam = lib.lambda_hat(t)
        f = lib.build_ferrers(t)
        cols = f.columns
        l = min(int(u * len(kap)), len(kap) - 1)
        k = kap[l]
        yes = lib.certify_non_colourable(t, k, l)
        no = lib.certify_non_colourable(t, k - 1, l)
        back = None
        if not self.deep:
            back = lib.cotree_from_text(lib.cotree_to_text(t))
        return kap, lam, f, cols, (k, l, yes), (k - 1, l, no), back

    def check(self, lib, hooks, inp, specs, outs):
        return [None if out is None else self._check_one(lib, hooks, inp, out) for out in outs]

    def _check_one(self, lib, hooks, inp, out):
        tree = inp.tree
        kap, lam, f, cols, (k, l, yes), (k2, l2, no), back = out
        ref = kappa_ref(lib, inp)
        if kap != ref:
            return "sequences", "kappa-mismatch"
        if lam != lib.conjugate(ref):
            return "sequences", "lambda-mismatch"
        if not lib.validate_ferrers_against_cotree(tree, f):
            return "ferrers", "ferrers-invalid"
        if cols != transpose(f.rows):
            return "ferrers", "columns-mismatch"
        if not hasattr(yes, "independent_parts") or not colouring_fits_cotree(tree, yes, k, l):
            return "certificate", "colouring-invalid"
        if not hasattr(no, "vertices"):
            return "certificate", "box-missing"
        reason = check_box_on_tree(lib, hooks, tree, no, k2 + 1, l2 + 1)
        if reason:
            return "certificate", reason
        if not self.deep and (back.n != tree.n or not same_tree(back.root, tree.root)):
            return "cotree", "roundtrip-mismatch"
        return None


# -- CLI workloads ----------------------------------------------------------


def run_cli(lib, argv, stdin_text):
    """klcograph.cli.main in-process, stdin and stdout redirected; returns (code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = lib.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def check_cli(lib, hooks, inp, cmd, code, stdout, expect=None):
    """Check one CLI answer on a graph input; ``expect`` is the oracle output to trust."""
    if code not in (0, 1, 2):
        return "cli", f"exit-{code}"
    g = graph_of(lib, inp)
    if inp.tree is None and cmd[0] not in ("kappa", "lambda", "params"):
        want = 1
    elif inp.tree is None and "--oracle" not in cmd:
        want = 1
    elif cmd[0] in ("check", "certify"):
        k, l = kl_of(cmd)
        want = 0 if lib.kappa_at(kappa_ref(lib, inp), l) <= k else 1
    else:
        want = 0
    if code != want:
        return "cli", f"exit-{code}-expected-{want}"
    if code == 1:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "cli", "payload-not-json"
        if inp.tree is None:
            vs = [int(x) for x in payload.get("p4", ())]
            ok = len(vs) == 4 and lib.P4Witness(*vs).holds_in(g)
            return None if ok else ("cotree", "p4-invalid")
        k, l = kl_of(cmd)
        return check_box_payload(lib, hooks, g, payload, k + 1, l + 1)
    if cmd[0] == "recognize":
        return check_cotree_json(inp, stdout)
    if "--oracle" in cmd:
        ref = expect
    else:
        ref = kappa_ref(lib, inp)
    if cmd[0] == "kappa":
        ok = parse_seq(stdout) == tuple(ref)
        return None if ok else ("sequences", "kappa-mismatch")
    if cmd[0] == "lambda":
        ok = parse_seq(stdout) == tuple(lib.conjugate(ref))
        return None if ok else ("sequences", "lambda-mismatch")
    if cmd[0] == "params":
        ok = json.loads(stdout) == params_of(ref)
        return None if ok else ("sequences", "params-mismatch")
    if cmd[0] == "check":
        k, l = kl_of(cmd)
        ok = json.loads(stdout) == {"colourable": True, "k": k, "l": l}
        return None if ok else ("cli", "check-payload")
    if cmd[0] == "certify":
        k, l = kl_of(cmd)
        payload = json.loads(stdout)
        col = lib.KLColouring(
            tuple(frozenset(int(x) for x in p) for p in payload["independent_sets"]),
            tuple(frozenset(int(x) for x in p) for p in payload["cliques"]),
        )
        ok = lib.validate_colouring(g, col, k, l)
        return None if ok else ("certificate", "colouring-invalid")
    if cmd[0] == "ferrers":
        rows = tuple(tuple(int(x) for x in row) for row in json.loads(stdout))
        ok = lib.validate_ferrers_against_cotree(inp.tree, lib.FerrersRepresentation(rows))
        return None if ok else ("ferrers", "ferrers-invalid")
    raise ValueError(f"no check for {cmd}")


def parse_seq(text: str) -> tuple[int, ...]:
    text = text.strip()
    return tuple(int(x) for x in text.split(",")) if text else ()


def check_box_payload(lib, hooks, g, payload, k, l):
    if (payload.get("k"), payload.get("l")) != (k, l):
        return "certificate", "box-wrong-size"
    vs = [int(x) for x in payload["vertices"]]
    if len(set(vs)) != k * l or not all(0 <= v < g.n for v in vs):
        return "certificate", "box-wrong-size"
    members = set(vs)
    edges = sorted((min(u, v), max(u, v)) for u, v in ((int(a), int(b)) for a, b in payload["induced_edges"]))
    want = sorted((u, v) for u, v in g.edges() if u in members and v in members)
    if edges != want:
        return "certificate", "box-edges-mismatch"
    hooks.boxes.append(k * l)
    with hooks.check_span():
        ok = lib.verify_box_cograph(g, lib.BoxCertificate(frozenset(vs), k, l))
    return None if ok else ("certificate", "box-not-verified")


def check_cotree_json(inp, stdout):
    """The returned cotree must evaluate back to the input graph."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * inp.n + 100))  # nesting depth of the JSON text
    try:
        obj = json.loads(stdout)
    except ValueError:
        return "cotree", "cotree-json-invalid"
    finally:
        sys.setrecursionlimit(limit)
    root = SimpleNamespace(label=None, vertex=None, children=[])
    seen: set[int] = set()
    stack = [(obj, root)]
    while stack:
        data, node = stack.pop()
        if "vertex" in data:
            v = data["vertex"]
            if not (isinstance(v, int) and 0 <= v < inp.n) or v in seen:
                return "cotree", "cotree-bad-leaf"
            seen.add(v)
            node.vertex = v
            continue
        node.label = data["label"]
        for child_data in data["children"]:
            child = SimpleNamespace(label=None, vertex=None, children=[])
            node.children.append(child)
            stack.append((child_data, child))
    if len(seen) != inp.n or gen.cotree_adjacency(root, inp.n) != inp.adjacency():
        return "cotree", "cotree-not-input"
    return None


class CliWorkload:
    """Queries are ``(format, command)`` pairs run through ``klcograph.cli.main``."""

    def prepare(self, lib, inp, spec):
        fmt, cmd = spec
        return [cmd[0], "-", "--format", fmt, *cmd[1:]], inp.texts[fmt]

    def execute(self, lib, arg):
        return run_cli(lib, *arg)


class GraphQueryWorkload(CliWorkload):
    """cli.main on cographs and near-cographs, each given as an edge list and as graph6."""

    COMMANDS = (
        ("recognize", "--json"),
        ("kappa",),
        ("lambda",),
        ("check",),
        ("certify",),
        ("ferrers", "--json"),
        ("params",),
    )
    # Families by descending size: the largest graph of every round is a deep
    # cograph above 490 vertices, where the recursive JSON serialization of
    # ``recognize --json`` is a known failure.
    FAMILIES = ("deep", "near-random", "random", "near-deep")
    # The families take turns within each class.  Sizes vary by only 2% within a
    # class because graph6 decoding is O(bytes^2), about n^4; every top deep
    # graph stays above 490 vertices.
    CLASSES = ((540, 4), (300, 4), (160, 8), (80, 8), (40, 4))
    ROUNDS = 3  # rounds of distinct inputs

    def setup(self, lib, rng) -> list[list[tuple]]:
        return [self._round(lib, rng, r) for r in range(self.ROUNDS)]

    def _round(self, lib, rng, r) -> list[tuple]:
        groups = []
        slot = {True: 0, False: 0}  # next command, for cographs and near-cographs
        kl_queries = 0
        flips = {}  # near-cographs made so far, per family
        sizes = gen.size_classes(self.CLASSES, rng, spread=0.02)
        for rank, n in enumerate(sizes):
            family = self.FAMILIES[rank % len(self.FAMILIES)]
            if family.endswith("deep"):
                tree = lib.deep_alternating_cotree(n, rank // 4 % 2)
            else:
                tree = gen.half_dense_cotree(lib, n, rng)
            adj = gen.cotree_adjacency(tree.root, n)
            cograph = not family.startswith("near")
            if cograph:
                inp = gen.Input(family, n, tree=tree)
            else:
                # One flip position per round, near the middle of its third of the
                # vertices, and the kinds of flip take turns: on the deep family the
                # cost climbs steeply with both, and every run gets the same mix.
                position = (r + 0.4 + 0.2 * rng.random()) / self.ROUNDS
                kind = (flips.get(family, 0) + r) % 4
                flips[family] = flips.get(family, 0) + 1
                adj, flip = gen.near_cograph(adj, rng, position, kind)
                inp = gen.Input(family, n, base=tree, flip=flip)
            inp.m = sum(map(len, adj)) // 2
            inp.texts = {"edges": gen.edge_list_text(adj), "g6": gen.graph6_text(adj)}
            specs = []
            for fmt in ("edges", "g6"):
                cmd = self.COMMANDS[slot[cograph] % len(self.COMMANDS)]
                slot[cograph] += 1
                if cmd[0] in ("check", "certify"):
                    if cograph:
                        # check and certify each get one colourable and one non-colourable pair
                        colourable = kl_queries // 2 % 2 == 0
                        u = (kl_queries + rng.random()) / 4 % 1
                        cmd = kl_command(cmd[0], lib.kappa_hat_naive(tree), u, colourable)
                        kl_queries += 1
                    else:
                        cmd = (cmd[0], "-k", "1", "-l", "1")
                specs.append((fmt, cmd))
            groups.append((inp, specs))
        return groups[::-1]

    def check(self, lib, hooks, inp, specs, outs):
        return [
            None if out is None else check_cli(lib, hooks, inp, cmd, *out)
            for (fmt, cmd), out in zip(specs, outs)
        ]


class SmallManyWorkload(CliWorkload):
    """Thousands of n <= 12 graphs through cli.main; the only workload using the oracle."""

    ORACLE = (("kappa", "--oracle"), ("lambda", "--oracle"), ("params", "--oracle"))
    SIZES = range(4, 13)
    DENSITIES = 16  # edge-probability strata over [0.25, 0.75] per size, for random graphs
    COGRAPHS = 4  # small cographs per size
    ROUNDS = 3  # rounds of distinct inputs

    def setup(self, lib, rng) -> list[list[tuple]]:
        rounds = []
        for _ in range(self.ROUNDS):
            groups = []
            for n in self.SIZES:
                for j in range(self.DENSITIES):
                    p = 0.25 + 0.5 * (j + rng.random()) / self.DENSITIES
                    inp = gen.Input("random", n, adj=gen.random_graph(n, p, rng))
                    inp.m = sum(map(len, inp.adj)) // 2
                    groups.append((inp, self.ORACLE))
                for j in range(self.COGRAPHS):
                    tree = lib.random_cotree(n, rng.randrange(2**32))
                    inp = gen.Input("cograph", n, adj=gen.cotree_adjacency(tree.root, n), tree=tree)
                    inp.m = sum(map(len, inp.adj)) // 2
                    kappa = lib.kappa_hat_naive(tree)
                    u = (j + rng.random()) / self.COGRAPHS
                    groups.append((inp, self.ORACLE + (
                        kl_command("check", kappa, u, j % 2 == 0),
                        kl_command("certify", kappa, u, j % 2 == 1),
                    )))
            rng.shuffle(groups)
            for i, (inp, cmds) in enumerate(groups):
                fmt = ("edges", "g6")[i % 2]
                encode = gen.edge_list_text if fmt == "edges" else gen.graph6_text
                text = encode(inp.adj)
                inp.texts = {fmt: text}
                groups[i] = (inp, [(fmt, cmd) for cmd in cmds])
            rounds.append(groups)
        return rounds

    def check(self, lib, hooks, inp, specs, outs):
        results = {}
        for (fmt, cmd), out in zip(specs, outs):
            if out is not None and out[0] == 0 and cmd[0] in ("kappa", "lambda"):
                try:
                    results[cmd[0]] = lib.PartitionSequence(parse_seq(out[1]))
                except ValueError:
                    pass
        kappa = results.get("kappa")
        if inp.tree is not None:
            kappa = kappa_ref(lib, inp)
        verdicts = []
        for (fmt, cmd), out in zip(specs, outs):
            if out is None:
                verdicts.append(None)  # the failure is already recorded
                continue
            code, stdout = out
            if cmd[0] in ("kappa", "lambda") and code == 0 and cmd[0] not in results:
                verdicts.append(("oracle", "sequence-unparseable"))
            elif cmd[0] == "kappa" and kappa is not None and results.get("kappa") != kappa:
                verdicts.append(("oracle", "oracle-kappa-not-cotree-kappa"))
            elif kappa is None:
                verdicts.append(None if code == 0 else ("cli", f"exit-{code}-expected-0"))
            elif cmd[0] == "lambda" and "lambda" in results and results["lambda"] != lib.conjugate(kappa):
                verdicts.append(("oracle", "oracle-not-conjugate"))
            else:
                verdicts.append(check_cli(lib, hooks, inp, cmd, code, stdout, expect=kappa))
        return verdicts


WORKLOADS = {
    "tree-random": TreeWorkload(((2048, 3), (4096, 5), (12000, 2)), deep=False),
    "tree-deep": TreeWorkload(((512, 2), (1024, 5), (2048, 1)), deep=True),
    "graph-query": GraphQueryWorkload(),
    "small-many": SmallManyWorkload(),
}
