"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

These tests pin the library's headline guarantees: exact fixture values,
conjugacy, vertex sums, oracle agreement, certificate soundness, diagram
validity, growth-rate envelopes, and round-trip identities.
"""

import random
import time

from klcograph import (
    BoxCertificate,
    KLColouring,
    PartitionSequence,
    box_cograph_dimension,
    build_cotree,
    build_ferrers,
    build_ferrers_naive,
    certify_non_colourable,
    complement,
    conjugate,
    deep_alternating_cotree,
    entrywise_add,
    evaluate_cotree,
    induced_subgraph,
    is_kl_colourable,
    kappa_hat,
    kappa_hat_naive,
    kappa_hat_oracle,
    lambda_hat,
    lambda_hat_oracle,
    random_cotree,
    validate_colouring,
    validate_ferrers,
    validate_ferrers_against_cotree,
    verify_box_cograph,
)
from klcograph.sequences import kappa_at

from helpers import (
    EXAMPLE_7,
    _doubling_ratio,
    cycle_graph,
    nonisomorphic_graphs,
    path_graph,
    random_graph,
)


def report(number, name, passed, detail=""):
    print(f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'}")
    if detail:
        print(detail)
    assert passed, f"criterion {number} ({name}) failed" + (
        f"\n{detail}" if detail else ""
    )


def test_criterion_1_oracle_fixture_values():
    start = time.perf_counter()
    ok = kappa_hat_oracle(EXAMPLE_7) == (3, 3, 1)
    ok &= lambda_hat_oracle(EXAMPLE_7) == (3, 2, 2)
    ok &= time.perf_counter() - start < 1.0

    start = time.perf_counter()
    p4_seq = kappa_hat_oracle(path_graph(4))
    ok &= p4_seq == (2, 1) and sum(p4_seq) == 3 != 4
    ok &= time.perf_counter() - start < 1.0

    start = time.perf_counter()
    c5_seq = kappa_hat_oracle(cycle_graph(5))
    ok &= c5_seq == (3, 2, 1) and sum(c5_seq) == 6 != 5
    ok &= time.perf_counter() - start < 1.0
    report(1, "oracle fixture values", ok)


def test_criterion_2_entrywise_add_example():
    result = entrywise_add(
        PartitionSequence([3, 2, 2, 1]), PartitionSequence([3, 2, 1])
    )
    report(2, "entrywise addition example", result == PartitionSequence([6, 4, 3, 1]))


def test_criterion_3_conjugacy_oracle():
    start = time.perf_counter()
    classes = nonisomorphic_graphs(5)
    ok = len(classes) == 34
    for n in range(1, 5):
        classes.extend(nonisomorphic_graphs(n))
    for g in classes:
        ok &= conjugate(kappa_hat_oracle(g)) == lambda_hat_oracle(g)
    rng = random.Random(1003)
    for _ in range(500):
        g = random_graph(rng.randint(6, 7), rng.random(), rng)
        ok &= conjugate(kappa_hat_oracle(g)) == lambda_hat_oracle(g)
    ok &= time.perf_counter() - start < 120.0
    report(3, "conjugacy of oracle sequences", ok)


def test_criterion_4_vertex_sum():
    start = time.perf_counter()
    rng = random.Random(1004)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 2000)
        t = random_cotree(n, rng)
        ok &= sum(kappa_hat(t)) == n
    ok &= time.perf_counter() - start < 30.0
    report(4, "kappa entries sum to vertex count", ok)


def test_criterion_5_kappa_variants_agree():
    rng = random.Random(1005)
    ok = True
    for _ in range(200):
        t = random_cotree(rng.randint(1, 10), rng)
        g = evaluate_cotree(t)
        oracle = kappa_hat_oracle(g)
        ok &= kappa_hat_naive(t) == oracle
        ok &= kappa_hat(t) == oracle
    for n in (1000, 10_000, 100_000):
        t = random_cotree(n, rng)
        ok &= kappa_hat_naive(t) == kappa_hat(t)
    report(5, "kappa variants agree", ok)


def test_criterion_6_certificates_sound_and_complete():
    start = time.perf_counter()
    rng = random.Random(1006)
    ok = True
    for _ in range(100):
        t = random_cotree(rng.randint(1, 10), rng)
        g = evaluate_cotree(t)
        oracle = kappa_hat_oracle(g)
        for k in range(4):
            for l in range(4):
                result = certify_non_colourable(t, k, l)
                colourable = is_kl_colourable(oracle, k, l)
                if colourable:
                    ok &= isinstance(result, KLColouring)
                    ok &= validate_colouring(g, result, k, l)
                else:
                    ok &= isinstance(result, BoxCertificate)
                    ok &= result.k == k + 1 and result.l == l + 1
                    ok &= len(result.vertices) == (k + 1) * (l + 1)
                    ok &= verify_box_cograph(g, result)
                    sub = induced_subgraph(g, result.vertices)
                    ok &= kappa_hat_oracle(sub) == PartitionSequence.constant(
                        k + 1, l + 1
                    )
                    if sub.n <= 8:
                        ok &= box_cograph_dimension(sub) == (k + 1, l + 1)
    ok &= time.perf_counter() - start < 300.0
    report(6, "colouring or verified obstruction", ok)


def test_criterion_7_ferrers_representations_valid():
    rng = random.Random(1007)
    ok = True
    graph_checked = 0
    for _ in range(500):
        n = rng.randint(1, 2000)
        t = random_cotree(n, rng)
        fast = build_ferrers(t)
        naive = build_ferrers_naive(t)
        ok &= fast.rows == naive.rows
        ok &= fast.n == n
        ok &= len(fast.rows) == kappa_hat(t)[0]
        ok &= len(fast.columns) == len(kappa_hat(t))
        ok &= validate_ferrers_against_cotree(t, fast)
        # direct adjacency check; materializing dense graphs above this
        # size dominates the runtime without adding coverage
        if n <= 600:
            ok &= validate_ferrers(evaluate_cotree(t), fast)
            graph_checked += 1
    ok &= graph_checked >= 50
    report(7, "Ferrers representations valid and variants agree", ok)


def test_criterion_8_growth_rates():
    checks = []  # (passed, what was measured)
    # fast variants: linearithmic envelope on random cotrees
    trees = {exp: random_cotree(2**exp, seed=exp) for exp in (13, 14, 15, 16)}
    for fn in (kappa_hat, build_ferrers):
        for exp in (13, 14, 15):
            ratio = _doubling_ratio(fn, trees[exp], trees[exp + 1])
            checks.append((
                ratio <= 2.6,
                f"{fn.__name__} on random_cotree, 2^{exp} -> 2^{exp + 1}: "
                f"ratio {ratio:.2f}, bound <= 2.6",
            ))
    # naive variants: super-linear growth on nested-star chains.  Measured
    # per doubling: kappa_hat_naive about 3.7 at 2^14 -> 2^15 (a pure
    # quadratic gives 4; the linear per-node overhead is not yet negligible),
    # build_ferrers_naive about 7.5, since _transpose of a hook costs
    # rows x columns at every 1-node, which makes the build cubic here.
    # kappa_hat_naive's margin over the floor is about 5%, so it gets more
    # trials: over one series of 40 paired trials, 1 of the 36 medians of 5
    # consecutive trials read below 3.5, none of the 32 medians of 9 did.
    naive_cases = ((kappa_hat_naive, 14, 9), (build_ferrers_naive, 9, 5))
    for fn, exp, trials in naive_cases:
        ratio = _doubling_ratio(
            fn,
            deep_alternating_cotree(2**exp),
            deep_alternating_cotree(2 ** (exp + 1)),
            trials,
        )
        checks.append((
            ratio > 3.5,
            f"{fn.__name__} on deep_alternating_cotree, 2^{exp} -> 2^{exp + 1}: "
            f"ratio {ratio:.2f}, bound > 3.5",
        ))
    detail = "\n".join(
        f"  {'ok' if passed else 'FAILED'}: {what}" for passed, what in checks
    )
    report(
        8,
        "fast linearithmic, naive superlinear",
        all(passed for passed, _ in checks),
        detail,
    )


def test_criterion_9_round_trip_and_duality():
    rng = random.Random(1009)
    ok = True
    for _ in range(500):
        t = random_cotree(rng.randint(1, 60), rng)
        g = evaluate_cotree(t)
        rebuilt = build_cotree(g)
        ok &= evaluate_cotree(rebuilt) == g
        co = build_cotree(complement(g))
        # kappa_l(G) = lambda_l(complement of G), entry by entry
        ok &= kappa_hat(rebuilt) == lambda_hat(co)
    report(9, "round-trip and complement duality", ok)
