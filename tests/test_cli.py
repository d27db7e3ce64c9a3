import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from klcograph import (
    BoxCertificate,
    FerrersRepresentation,
    Graph,
    KLColouring,
    P4Witness,
    build_cotree,
    complement,
    complement_cotree,
    cotree_from_text,
    cotree_to_text,
    evaluate_cotree,
    is_kl_colourable,
    kappa_hat,
    kappa_hat_naive,
    kappa_hat_oracle,
    parse_edge_list,
    parse_graph6,
    random_cotree,
    render_svg,
    validate_colouring,
    verify_box_cograph,
)
import klcograph
from klcograph import cli
from klcograph.cli import main

from helpers import (
    EXAMPLE_7,
    all_cotrees,
    cycle_graph,
    encode_graph6,
    l_copies_of_k_clique,
    path_graph,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text("0 1\n1 2\n0 2\n")
    return str(p)


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.txt"
    p.write_text("0 1\n1 2\n2 3\n")
    return str(p)


def test_recognize_cograph(capsys, k3_file):
    code, out, _ = run(capsys, "recognize", k3_file)
    assert code == 0
    assert out.strip() == "1(0,1,2)"


def test_recognize_output_reads_back(capsys, tmp_path):
    # recognize prints the tree and a newline; the reader takes both back, a
    # lone leaf as much as any other tree
    for n in range(1, 7):
        for t in all_cotrees(n):
            assert cotree_from_text(cotree_to_text(t) + "\n") == t
    p = tmp_path / "k1.txt"
    p.write_text("1\n")
    code, out, _ = run(capsys, "recognize", str(p))
    assert (code, out) == (0, "0\n")
    assert cotree_from_text(out) == build_cotree(parse_edge_list("1\n"))


def test_recognize_p4_exits_one_with_witness(capsys, p4_file):
    code, out, _ = run(capsys, "recognize", p4_file)
    assert code == 1
    payload = json.loads(out)
    assert payload["p4"] == ["0", "1", "2", "3"]


def test_recognize_json_on_deep_cograph(capsys, tmp_path):
    from klcograph import deep_alternating_cotree, evaluate_cotree

    g = evaluate_cotree(deep_alternating_cotree(600))
    p = tmp_path / "deep.txt"
    p.write_text("600\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
    code, out, err = run(capsys, "recognize", str(p), "--json")
    assert code == 0, err
    # the nesting is too deep for json.loads; count the leaves instead
    assert out.startswith('{"label": ') and out.count('"vertex": ') == 600


def test_recognize_graph6_k4(capsys, tmp_path):
    p = tmp_path / "k4.g6"
    p.write_text("C~")
    code, out, _ = run(capsys, "recognize", str(p), "--format", "g6")
    assert code == 0
    assert out.strip() == "1(0,1,2,3)"


def test_recognize_non_ascii_graph6_exits_two(capsys, tmp_path):
    p = tmp_path / "bad.g6"
    p.write_text("Cé", encoding="utf-8")
    code, out, err = run(capsys, "recognize", str(p), "--format", "g6")
    assert code == 2
    assert out == ""
    assert "non-ASCII" in err


def test_recognize_malformed_exits_two(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not an edge list\n")
    code, _, err = run(capsys, "recognize", str(p))
    assert code == 2
    assert "error" in err


def test_kappa_and_lambda_outputs(capsys, k3_file):
    code, out, _ = run(capsys, "kappa", k3_file)
    assert (code, out.strip()) == (0, "3")
    code, out, _ = run(capsys, "lambda", k3_file)
    assert (code, out.strip()) == (0, "1,1,1")


def test_kappa_naive_flag_is_rejected(capsys, k3_file):
    for command in ("kappa", "lambda"):
        code, out, _ = run(capsys, command, k3_file, "--naive")
        assert (code, out) == (2, "")


def _write_edges(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges()))
    return str(p)


def _random_cographs(seed, count, max_n):
    rng = random.Random(seed)
    return [evaluate_cotree(random_cotree(rng.randint(1, max_n), rng)) for _ in range(count)]


def test_sequence_text_matches_naive_references(capsys, tmp_path):
    for i, g in enumerate(_random_cographs(31, 20, 30)):
        path = _write_edges(tmp_path, f"g{i}.txt", g)
        t = build_cotree(g)
        for command, tree in (("kappa", t), ("lambda", complement_cotree(t))):
            code, out, _ = run(capsys, command, path)
            assert (code, out) == (0, kappa_hat_naive(tree).to_text() + "\n")


def test_kappa_oracle_handles_non_cograph(capsys, p4_file):
    code, out, _ = run(capsys, "kappa", p4_file, "--oracle")
    assert (code, out.strip()) == (0, "2,1")


def test_kappa_without_oracle_rejects_non_cograph(capsys, p4_file):
    code, out, _ = run(capsys, "kappa", p4_file)
    assert code == 1
    assert "p4" in json.loads(out)


def test_lambda_oracle_on_non_cographs(capsys, tmp_path):
    # C5 is self-complementary, so its lambda sequence equals its kappa sequence
    for name, g, expected in (("c5", cycle_graph(5), "3,2,1"), ("ex7", EXAMPLE_7, "3,2,2")):
        code, out, err = run(capsys, "lambda", _write_edges(tmp_path, f"{name}.txt", g), "--oracle")
        assert (code, out, err) == (0, expected + "\n", "")
    # lambda is by definition kappa of the complement; the CLI prints kappa's conjugate
    for name, g in (("c5", cycle_graph(5)), ("p4", path_graph(4))):
        expected = kappa_hat_oracle(complement(g)).to_text()
        code, out, err = run(capsys, "lambda", _write_edges(tmp_path, f"{name}.txt", g), "--oracle")
        assert (code, out, err) == (0, expected + "\n", "")


def test_oracle_budget_flag_exits_two(capsys, tmp_path, k3_file, p4_file):
    path = _write_edges(tmp_path, "c4.txt", cycle_graph(4))
    code, out, err = run(capsys, "kappa", path, "--oracle", "--budget", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    # a budget below 1, or one without --oracle, is a usage error while
    # parsing, before any answer reaches stdout
    for command in ("kappa", "lambda", "params"):
        for source, extra, message in (
            (p4_file, ("--budget", "0"), "argument --budget: must be at least 1, got 0"),
            (k3_file, ("--budget", "-7"), "argument --budget: must be at least 1, got -7"),
            (k3_file, ("--oracle", "--budget", "0"), "must be at least 1, got 0"),
            (k3_file, ("--budget", "5"), "argument --budget: only with --oracle"),
        ):
            code, out, err = run(capsys, command, source, *extra)
            assert (code, out) == (2, ""), (command, extra)
            assert message in err, (command, extra)
    for argv in (("--budget", "5", "--oracle"), ("--oracle", "--budget", "5")):
        assert run(capsys, "kappa", p4_file, *argv) == (0, "2,1\n", "")


def test_check_colourable(capsys, k3_file):
    code, out, _ = run(capsys, "check", k3_file, "-k", "1", "-l", "1")
    assert code == 0
    assert json.loads(out)["colourable"] is True


def test_check_not_colourable_emits_certificate(capsys, k3_file):
    code, out, _ = run(capsys, "check", k3_file, "-k", "2", "-l", "0")
    assert code == 1
    payload = json.loads(out)
    assert payload["k"] == 3 and payload["l"] == 1
    assert payload["vertices"] == ["0", "1", "2"]


def _check_cographs():
    return _random_cographs(32, 6, 16) + [l_copies_of_k_clique(3, 4)]


def test_check_and_certify_agree(capsys, tmp_path):
    for i, g in enumerate(_check_cographs()):
        path = _write_edges(tmp_path, f"g{i}.txt", g)
        for k in range(5):
            for l in range(5):
                argv = (path, "-k", str(k), "-l", str(l))
                check = run(capsys, "check", *argv)
                certify = run(capsys, "certify", *argv)
                assert check[0] == certify[0] in (0, 1)
                if check[0] == 1:
                    assert check[1] == certify[1]
                else:
                    assert json.loads(check[1]) == {"colourable": True, "k": k, "l": l}


def test_check_answers_a_yes_without_the_diagram(capsys, monkeypatch, tmp_path):
    # kappa answers check; certify_non_colourable, which folds kappa again
    # and descends to the box, runs only for the certificate of a no
    yes = []
    for i, g in enumerate(_check_cographs()):
        path = _write_edges(tmp_path, f"g{i}.txt", g)
        for k in range(5):
            for l in range(5):
                argv = ("check", path, "-k", str(k), "-l", str(l))
                code, out, _ = run(capsys, *argv)
                if code == 0:
                    yes.append((argv, out))
    assert len(yes) > 20

    def no_diagram(*args):
        raise AssertionError("check built the diagram for a yes")

    monkeypatch.setattr(cli, "certify_non_colourable", no_diagram)
    for argv, out in yes:
        assert run(capsys, *argv) == (0, out, ""), argv


def test_certificate_edges_are_the_filtered_edge_list(capsys, tmp_path):
    for i, g in enumerate(_random_cographs(33, 30, 40)):
        path = _write_edges(tmp_path, f"g{i}.txt", g)
        kappa = kappa_hat(build_cotree(g))
        l = i % len(kappa)
        argv = (path, "-k", str(kappa[l] - 1), "-l", str(l))
        for command in ("check", "certify"):
            code, out, _ = run(capsys, command, *argv)
            assert code == 1
            payload = json.loads(out)
            members = {int(v) for v in payload["vertices"]}
            assert payload["induced_edges"] == [
                [str(u), str(v)] for u, v in g.edges() if u in members and v in members
            ]


def test_certify_emits_colouring_when_feasible(capsys, k3_file):
    code, out, _ = run(capsys, "certify", k3_file, "-k", "0", "-l", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["cliques"] == [["0", "1", "2"]]
    assert payload["independent_sets"] == []


def test_negative_parameters_exit_two_naming_the_flag(capsys, k3_file):
    for command in ("check", "certify"):
        for flag, argv in (("-k", ("-k", "-1", "-l", "0")), ("-l", ("-k", "0", "-l", "-2"))):
            code, out, err = run(capsys, command, k3_file, *argv)
            assert code == 2
            assert out == ""
            assert f"argument {flag}: must be a natural number" in err
        code, out, err = run(capsys, command, k3_file, "-k", "x", "-l", "0")
        assert (code, out) == (2, "")
        assert "argument -k: invalid integer: 'x'" in err


def test_ferrers_outputs(capsys, k3_file):
    code, out, _ = run(capsys, "ferrers", k3_file)
    assert code == 0
    assert out.split() == ["0", "1", "2"]
    code, out, _ = run(capsys, "ferrers", k3_file, "--svg")
    assert code == 0 and "<svg" in out
    code, out, _ = run(capsys, "ferrers", k3_file, "--json")
    assert code == 0
    assert json.loads(out) == [["0"], ["1"], ["2"]]


def test_params_cograph_and_oracle(capsys, k3_file, tmp_path):
    code, out, _ = run(capsys, "params", k3_file)
    assert code == 0
    assert json.loads(out) == {
        "chi": 3,
        "theta": 1,
        "bichromatic": 3,
        "cochromatic": 1,
    }
    p = tmp_path / "example.g6"
    p.write_text(encode_graph6(EXAMPLE_7))
    code, out, _ = run(capsys, "params", str(p), "--format", "g6", "--oracle")
    assert code == 0
    assert json.loads(out) == {
        "chi": 3,
        "theta": 3,
        "bichromatic": 4,
        "cochromatic": 3,
    }


def test_params_oracle_on_empty_graph(capsys, tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("0\n")
    code, out, _ = run(capsys, "params", str(p), "--oracle")
    assert code == 0
    assert json.loads(out) == {"chi": 0, "theta": 0, "bichromatic": 0, "cochromatic": 0}


GRAPH_COMMANDS = (
    ("recognize",),
    ("recognize", "--json"),
    ("kappa",),
    ("lambda",),
    ("params",),
    ("check", "-k", "1", "-l", "1"),
    ("certify", "-k", "1", "-l", "1"),
    ("ferrers", "--ascii"),
    ("ferrers", "--svg"),
    ("ferrers", "--json"),
)


def test_every_graph_command_reports_a_p4_with_exit_one():
    g = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3)])
    expected = json.dumps({"p4": [str(v) for v in build_cotree(g).vertices()]}) + "\n"
    edges = "".join(f"{u} {v}\n" for u, v in g.edges())
    for fmt, text in (("edges", edges), ("g6", encode_graph6(g))):
        for command in GRAPH_COMMANDS:
            argv = [command[0], "-", "--format", fmt, *command[1:]]
            assert run_on_stdin(argv, text) == (1, expected, ""), argv


EMPTY_GRAPH_ANSWERS = {
    ("kappa",): "",
    ("lambda",): "",
    ("params",): '{"chi": 0, "theta": 0, "bichromatic": 0, "cochromatic": 0}',
    ("check", "-k", "1", "-l", "1"): '{"colourable": true, "k": 1, "l": 1}',
    ("certify", "-k", "1", "-l", "1"): '{"independent_sets": [], "cliques": []}',
    ("ferrers", "--ascii"): "",
    ("ferrers", "--svg"): render_svg(FerrersRepresentation(())),
    ("ferrers", "--json"): "[]",
}


@pytest.mark.parametrize("fmt, text", (("edges", "0\n"), ("g6", "?")), ids=("edges", "g6"))
def test_empty_graph_answers_without_the_oracle(fmt, text):
    for command in GRAPH_COMMANDS:
        argv = [command[0], "-", "--format", fmt, *command[1:]]
        code, out, err = run_on_stdin(argv, text)
        if command[0] == "recognize":
            # no cotree has zero leaves
            assert (code, out) == (2, "") and err.startswith("error: "), argv
        else:
            assert (code, out, err) == (0, EMPTY_GRAPH_ANSWERS[command] + "\n", ""), argv
        if command[0] in ("kappa", "lambda", "params"):
            assert run_on_stdin([*argv, "--oracle"], text) == (code, out, err), argv


def test_bench_csv_shape(capsys):
    for extra in ((), ("--algorithm", "ferrers"), ("--adversarial",),
                  ("--algorithm", "ferrers", "--adversarial")):
        code, out, _ = run(
            capsys, "bench", "--sizes", "64", "128", "--trials", "2", *extra
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,naive_ms,fast_ms"
        assert len(lines) == 5
        for line in lines[1:]:
            n, naive_ms, fast_ms = line.split(",")
            assert int(n) in (64, 128)
            assert float(naive_ms) >= 0 and float(fast_ms) >= 0


def test_bench_reports_a_variant_mismatch(capsys, monkeypatch):
    # the fast engine is checked against the naive one on every tree
    monkeypatch.setattr(cli, "kappa_hat", lambda t: kappa_hat_naive(t) + (1,))
    code, out, err = run(capsys, "bench", "--sizes", "16", "--trials", "1")
    assert code == 1
    assert out == "n,naive_ms,fast_ms\n"
    assert err == "variant mismatch\n"


def test_bench_counts_must_be_positive(capsys):
    # the CSV header is printed only once the arguments are known to be good
    for extra, message in (
        (("--sizes", "0"), "argument --sizes: must be at least 1, got 0"),
        (("--sizes", "64", "-3"), "argument --sizes: must be at least 1, got -3"),
        (("--trials", "0"), "argument --trials: must be at least 1, got 0"),
        (("--sizes", "4", "--trials", "-1"), "argument --trials: must be at least 1"),
    ):
        code, out, err = run(capsys, "bench", *extra)
        assert (code, out) == (2, ""), extra
        assert message in err, extra


FRESH_MAIN = "import sys; from klcograph.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_in_fresh_process(argv):
    """(exit code, stdout) of ``main(argv)`` as the first call of a new interpreter."""
    paths = (str(Path(klcograph.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", FRESH_MAIN, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout


def test_reused_parser_leaks_no_state_between_calls(capsys, monkeypatch, k3_file, p4_file):
    # each later call would answer differently if it inherited the earlier
    # call's options: the style, the oracle, or -k and -l
    sequences = (
        (("ferrers", k3_file, "--svg"), ("ferrers", k3_file)),
        (("kappa", p4_file, "--oracle", "--budget", "5"), ("kappa", p4_file)),
        (("check", k3_file, "-k", "-1", "-l", "0"), ("check", k3_file, "-k", "1", "-l", "1")),
        (
            ("check", k3_file, "-k", "1", "-l", "1"),
            ("certify", k3_file),
            ("certify", k3_file, "-k", "0", "-l", "1"),
        ),
    )
    fresh = {argv: _run_in_fresh_process(argv) for calls in sequences for argv in calls}
    builds = []
    real_build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build_parser())
    cli._parser.cache_clear()
    try:
        for calls in sequences:
            for argv in calls:
                code, out, _ = run(capsys, *argv)
                assert (code, out) == fresh[argv], argv
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_unknown_command_exits_two(capsys):
    assert main(["definitely-not-a-command"]) == 2


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "kappa", "/nonexistent/path.txt")
    assert code == 2


def test_vertex_id_above_the_ceiling_exits_two(capsys, tmp_path):
    p = tmp_path / "huge.txt"
    p.write_text("0 100000000\n")
    code, out, err = run(capsys, "recognize", str(p))
    assert code == 2
    assert out == "" and err.startswith("error: ")


# Vertex ids in fuzzed edge lists stay at or below 10**4: below the parser's
# ceiling of 2**20 vertices, one edge "0 1000000" still makes a graph of 10**6
# vertices, whose recognition takes seconds per example.
FUZZ_MAX_ID = 10**4
FUZZ_COMMANDS = (
    ("recognize",),
    ("recognize", "--json"),
    ("kappa",),
    ("lambda",),
    ("params",),
    ("check", "-k", "1", "-l", "1"),
    ("certify", "-k", "2", "-l", "1"),
    ("ferrers", "--json"),
)
FUZZ_CHARS = "0123456789 \t\n-#~?@_>{é\x00"


@st.composite
def mutated_graph_text(draw):
    """An edge list or graph6 string of a small graph, with a few characters
    inserted, deleted or replaced."""
    fmt = draw(st.sampled_from(("edges", "g6")))
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=30)) if u != v]
    if fmt == "g6":
        text = encode_graph6(Graph.from_edges(n, edges))
    else:
        if draw(st.booleans()):
            n = draw(st.integers(n, FUZZ_MAX_ID))  # a sparse id
            edges.append((0, n - 1))
        header = f"{n}\n" if draw(st.booleans()) else ""
        text = header + "".join(f"{u} {v}\n" for u, v in edges)
    edits = st.tuples(
        st.sampled_from("idr"), st.integers(0, 10**6), st.sampled_from(FUZZ_CHARS)
    )
    for op, at, char in draw(st.lists(edits, max_size=4)):
        i = at % (len(text) + 1)
        if op == "i":
            text = text[:i] + char + text[i:]
        elif op == "d":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + char + text[i + 1 :]
    for token in text.split():
        try:
            assume(abs(int(token)) <= FUZZ_MAX_ID)
        except ValueError:
            pass
    return fmt, text


def run_on_stdin(argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(mutated_graph_text())
def test_cli_exit_code_contract_on_mutated_input(case):
    fmt, text = case
    for command in FUZZ_COMMANDS:
        code, out, err = run_on_stdin([command[0], "-", "--format", fmt, *command[1:]], text)
        assert code in (0, 1, 2), (command, code, err)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ")
        if code != 1:
            continue
        payload = json.loads(out)
        if "p4" in payload:
            g = parse_graph6(text) if fmt == "g6" else parse_edge_list(text)
            assert P4Witness(*(int(x) for x in payload["p4"])).holds_in(g)
        else:
            assert command[0] in ("check", "certify") and "vertices" in payload


def _spellings(g):
    """g's edge list with a header in the regular layout, and the same list
    spelt with CRLF, tabs, blank lines, comments, "+1" ids and "007" ids."""
    lines = [str(g.n)] + [f"{u} {v}" for u, v in g.edges()]

    def ids(prefix):
        return "".join(" ".join(prefix + t for t in ln.split()) + "\n" for ln in lines)

    regular = "\n".join(lines) + "\n"
    return regular, {
        "crlf": regular.replace("\n", "\r\n"),
        "tab": regular.replace(" ", "\t"),
        "blank": regular.replace("\n", "\n\n"),
        "comment": "# header\n" + regular.replace("\n", "\n# edge\n"),
        "plus": ids("+"),
        "zeros": ids("00"),
    }


def test_every_graph_command_reads_each_edge_list_spelling_alike():
    # GRAPH_COMMANDS' check and certify answer no on these; a wider (k, l)
    # gives a yes and a colouring
    yes = (("check", "-k", "3", "-l", "3"), ("certify", "-k", "3", "-l", "3"))
    for g in _random_cographs(34, 4, 12) + [path_graph(4)]:
        regular, spellings = _spellings(g)
        for command in GRAPH_COMMANDS + yes:
            argv = [command[0], "-", *command[1:]]
            expected = run_on_stdin(argv, regular)
            assert expected[0] in (0, 1), (argv, expected)
            for name, text in spellings.items():
                assert run_on_stdin(argv, text) == expected, (name, argv)


def test_check_and_certify_payloads_verify_on_the_graph(tmp_path):
    graphs = _random_cographs(35, 10, 30) + _random_cographs(36, 6, 10)
    for i, g in enumerate(graphs + [complement(g) for g in graphs]):
        path = _write_edges(tmp_path, f"g{i}.txt", g)
        # the payload lists edges in the order of the graph main reads
        g = parse_edge_list(Path(path).read_text())
        oracle = kappa_hat_oracle(g) if g.n <= 10 else None
        for k in range(4):
            for l in range(4):
                argv = (path, "-k", str(k), "-l", str(l))
                for command in ("check", "certify"):
                    code, out, err = run_on_stdin([command, *argv], "")
                    assert code in (0, 1) and err == "", (command, argv, err)
                    payload = json.loads(out)
                    if code == 1:
                        members = {int(v) for v in payload["vertices"]}
                        assert (payload["k"], payload["l"]) == (k + 1, l + 1)
                        assert verify_box_cograph(g, BoxCertificate(members, k + 1, l + 1))
                        assert payload["induced_edges"] == [
                            [str(u), str(v)] for u, v in g.edges()
                            if u in members and v in members
                        ]
                    elif command == "certify":
                        col = KLColouring(
                            *(
                                tuple(frozenset(map(int, part)) for part in payload[key])
                                for key in ("independent_sets", "cliques")
                            )
                        )
                        assert validate_colouring(g, col, k, l), argv
                    if command == "check" and oracle is not None:
                        assert code == (not is_kl_colourable(oracle, k, l)), argv


def test_certify_payload_is_pinned(capsys, tmp_path):
    # the box certify prints for random_cotree(30, 1) at (1, 4), as found by
    # the descent; tests/test_certificate.py pins the library's answers
    g = evaluate_cotree(random_cotree(30, 1))
    code, out, _ = run(capsys, "certify", _write_edges(tmp_path, "g.txt", g), "-k", "1", "-l", "4")
    assert code == 1
    assert json.loads(out) == {
        "k": 2,
        "l": 5,
        "vertices": ["18", "19", "20", "21", "23", "24", "26", "27", "28", "29"],
        "induced_edges": [
            ["18", "21"], ["18", "23"], ["18", "24"], ["19", "21"], ["19", "23"],
            ["19", "24"], ["20", "21"], ["20", "23"], ["20", "24"], ["26", "27"],
            ["28", "29"],
        ],
    }
