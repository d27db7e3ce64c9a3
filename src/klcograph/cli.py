"""Command-line interface.

Every graph command is a function ``(args, g) -> str`` that returns its
standard output.  ``main`` reads and parses the input once, prints what the
command returns, and turns the one negative exception, which carries a JSON
witness (a P4 or a box-cograph certificate), into exit 1.  Exit codes: 0
success, 1 negative answer (not colourable / not a cograph), 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from typing import Sequence

from .certificate import BoxCertificate, KLColouring, certify_non_colourable
from .cotree import (
    Cotree,
    P4Witness,
    build_cotree,
    cotree_to_json,
    cotree_to_text,
)
from .ferrers import (
    FerrersRepresentation,
    build_ferrers,
    build_ferrers_naive,
    render_ascii,
    render_svg,
)
from .generate import deep_alternating_cotree, random_cotree
from .graphs import Graph, parse_edge_list, parse_graph6
from .oracle import DEFAULT_BUDGET, OracleBudget, kappa_hat_oracle
from .sequences import (
    PartitionSequence,
    bichromatic_number,
    cochromatic_number,
    conjugate,
    is_kl_colourable,
    kappa_at,
    kappa_hat,
    kappa_hat_naive,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


class _Negative(Exception):
    """A negative answer; its one argument is the JSON witness ``main`` prints."""


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    if args.format == "g6":
        return parse_graph6(text)
    return parse_edge_list(text)


def _cert_payload(g: Graph, cert: BoxCertificate) -> str:
    vs = sorted(cert.vertices)
    # the order of filtering g.edges(), scanning only the certificate's vertices
    edges = [
        [g.label(u), g.label(v)]
        for u in vs
        for v in g.adj[u]
        if v > u and v in cert.vertices
    ]
    return json.dumps(
        {
            "k": cert.k,
            "l": cert.l,
            "vertices": [g.label(v) for v in vs],
            "induced_edges": edges,
        }
    )


def _need_cotree(g: Graph) -> Cotree:
    built = build_cotree(g)
    if isinstance(built, P4Witness):
        raise _Negative(json.dumps({"p4": [g.label(v) for v in built.vertices()]}))
    return built


def _kappa(args: argparse.Namespace, g: Graph) -> PartitionSequence:
    """The step kappa, lambda and params share: g's kappa sequence, by the
    oracle or off the cotree.  lambda prints its conjugate, which is the
    lambda sequence of every graph, and params reads chi and theta off it."""
    if args.oracle:
        return kappa_hat_oracle(g, OracleBudget(args.budget or DEFAULT_BUDGET.max_vertices))
    if not g.n:
        return PartitionSequence()
    return kappa_hat(_need_cotree(g))


def _colouring(args: argparse.Namespace, g: Graph, t: Cotree) -> KLColouring:
    """The step check and certify share: a (k,l)-colouring of g off its
    cotree t, or ``_Negative`` with the box certificate."""
    result = certify_non_colourable(t, args.k, args.l)
    if isinstance(result, BoxCertificate):
        raise _Negative(_cert_payload(g, result))
    return result


def cmd_recognize(args: argparse.Namespace, g: Graph) -> str:
    t = _need_cotree(g)
    return cotree_to_json(t) if args.json else cotree_to_text(t)


def cmd_check(args: argparse.Namespace, g: Graph) -> str:
    # kappa answers; certify runs only for the certificate of a no
    if g.n and not is_kl_colourable(kappa_hat(t := _need_cotree(g)), args.k, args.l):
        _colouring(args, g, t)  # raises _Negative
    return json.dumps({"colourable": True, "k": args.k, "l": args.l})


def cmd_certify(args: argparse.Namespace, g: Graph) -> str:
    col = _colouring(args, g, _need_cotree(g)) if g.n else KLColouring((), ())
    return json.dumps(
        {
            "independent_sets": [
                sorted(g.label(v) for v in part) for part in col.independent_parts
            ],
            "cliques": [
                sorted(g.label(v) for v in part) for part in col.clique_parts
            ],
        }
    )


def cmd_ferrers(args: argparse.Namespace, g: Graph) -> str:
    f = build_ferrers(_need_cotree(g)) if g.n else FerrersRepresentation(())
    if args.style == "svg":
        return render_svg(f)
    if args.style == "json":
        return json.dumps([[f.label(v) for v in row] for row in f.rows])
    return render_ascii(f)


def cmd_params(args: argparse.Namespace, g: Graph) -> str:
    seq = _kappa(args, g)
    return json.dumps(
        {
            "chi": kappa_at(seq, 0),
            "theta": len(seq),
            "bichromatic": bichromatic_number(seq),
            "cochromatic": cochromatic_number(seq),
        }
    )


def cmd_bench(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    print("n,naive_ms,fast_ms")
    for n in args.sizes:
        for _ in range(args.trials):
            if args.adversarial:
                t = deep_alternating_cotree(n)
            else:
                t = random_cotree(n, rng)
            if args.algorithm == "kappa":
                naive_fn, fast_fn = kappa_hat_naive, kappa_hat
            else:
                naive_fn, fast_fn = build_ferrers_naive, build_ferrers
            t0 = time.perf_counter()
            naive_out = naive_fn(t)
            t1 = time.perf_counter()
            fast_out = fast_fn(t)
            t2 = time.perf_counter()
            if naive_out != fast_out:
                print("variant mismatch", file=sys.stderr)
                return EXIT_NEGATIVE
            print(f"{n},{(t1 - t0) * 1000:.3f},{(t2 - t1) * 1000:.3f}")
    return EXIT_OK


def _natural(text: str, low: int = 0) -> int:
    """An integer option of at least ``low``: 0 for k and l, 1 for counts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < low:
        kind = "a natural number" if low == 0 else f"at least {low}"
        raise argparse.ArgumentTypeError(f"must be {kind}, got {value}")
    return value


_positive = functools.partial(_natural, low=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klcograph",
        description="(k,l)-colourability of cographs: sequences, witnesses, diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="input file, or - for standard input")
        p.add_argument(
            "--format", choices=("edges", "g6"), default="edges",
            help="edge-list (default) or graph6",
        )

    def add_oracle(p: argparse.ArgumentParser, oracle_help: str | None = None) -> None:
        p.add_argument("--oracle", action="store_true", help=oracle_help)
        p.add_argument(
            "--budget", type=_positive,
            help=f"oracle vertex limit (default {DEFAULT_BUDGET.max_vertices})",
        )
        p.set_defaults(usage_error=p.error)  # main rejects --budget without --oracle

    p = sub.add_parser("recognize", help="build the cotree or report a P4")
    add_input(p)
    p.add_argument("--json", action="store_true", help="emit the cotree as JSON")
    p.set_defaults(fn=cmd_recognize)

    for name, fn in (
        ("kappa", lambda args, g: _kappa(args, g).to_text()),
        ("lambda", lambda args, g: conjugate(_kappa(args, g)).to_text()),
    ):
        p = sub.add_parser(name, help=f"print the {name} sequence")
        add_input(p)
        add_oracle(p, "brute force; works on non-cographs within the budget")
        p.set_defaults(fn=fn)

    for name, about, fn in (
        ("check", "decide (k,l)-colourability", cmd_check),
        ("certify", "colouring or box-cograph certificate", cmd_certify),
    ):
        p = sub.add_parser(name, help=about)
        add_input(p)
        p.add_argument("-k", type=_natural, required=True)
        p.add_argument("-l", type=_natural, required=True)
        p.set_defaults(fn=fn)

    p = sub.add_parser("ferrers", help="Ferrers diagram representation")
    add_input(p)
    style = p.add_mutually_exclusive_group()
    style.add_argument(
        "--ascii", dest="style", action="store_const", const="ascii", default="ascii"
    )
    style.add_argument("--svg", dest="style", action="store_const", const="svg")
    style.add_argument("--json", dest="style", action="store_const", const="json")
    p.set_defaults(fn=cmd_ferrers)

    p = sub.add_parser("params", help="chi, theta, bichromatic, cochromatic")
    add_input(p)
    add_oracle(p)
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("bench", help="naive vs fast timing table (CSV)")
    p.add_argument("--sizes", type=_positive, nargs="+", default=[1024, 2048, 4096])
    p.add_argument("--trials", type=_positive, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--adversarial", action="store_true")
    p.add_argument("--algorithm", choices=("kappa", "ferrers"), default="kappa")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that ``main`` reuses: building one costs more than running
    a command on a small graph.  Sharing is safe, since ``parse_args``
    returns a fresh namespace on every call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "budget", None) is not None and not args.oracle:
            args.usage_error("argument --budget: only with --oracle")
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        if args.command == "bench":
            return cmd_bench(args)
        print(args.fn(args, _load_graph(args)))
    except _Negative as exc:
        print(exc.args[0])
        return EXIT_NEGATIVE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
