"""Layout rules for the package sources."""

import ast
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import klcograph

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
IMPORTS = (ast.Import, ast.ImportFrom)


def _sources():
    """(file name, parsed module) for every module of the package."""
    for path in sorted(Path(klcograph.__file__).parent.rglob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_import_inside_a_function():
    # an import inside a function hides a cycle between modules
    found = []
    for name, tree in _sources():
        for fn in ast.walk(tree):
            if isinstance(fn, FUNCTIONS):
                found += [
                    f"{name}:{node.lineno} in {getattr(fn, 'name', 'lambda')}"
                    for node in ast.walk(fn)
                    if isinstance(node, IMPORTS)
                ]
    assert not found, "imports inside functions: " + ", ".join(found)


def test_no_assert_statement_in_sources():
    # python -O strips assert statements, so no check may rely on one
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements: " + ", ".join(found)


# The functions that may write to stdout: commands return their text, and
# main prints it; bench streams its CSV row by row.
PRINTERS = {("cli.py", "main"), ("cli.py", "cmd_bench")}

def _calls(callee, allowed):
    """file:line of each call of a function named ``callee``, plain or as an
    attribute, outside the top-level definitions that ``allowed`` names as
    (file name, definition name)."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in _sources()
        for top in tree.body
        if (name, getattr(top, "name", None)) not in allowed
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def _exits(node):
    """Whether ``node`` raises SystemExit itself or through ``sys.exit``."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "SystemExit"
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "exit"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "sys"
    )


def test_one_answer_path_through_the_cli():
    # every answer leaves through cli.main, which maps the one negative
    # exception to exit 1; a print or an exit elsewhere would bypass it
    prints, exits = _calls("print", PRINTERS), []
    for name, tree in _sources():
        for fn in ast.walk(tree):
            if isinstance(fn, FUNCTIONS):
                exits += [f"{name}:{node.lineno}" for node in ast.walk(fn) if _exits(node)]
    assert not prints, "print outside cli.main and cli.cmd_bench: " + ", ".join(prints)
    assert not exits, "SystemExit raised in a function: " + ", ".join(exits)


# The definitions in graphs.py that may raise GraphFormatError: the edge-list
# line loop, which names the first bad line, and the graph6 reader.  The bulk
# edge-list decoder returns None and leaves every error to the line loop.
FORMAT_ERRORS = {"_edge_list_by_line", "parse_graph6", "_graph6_read_n"}


def test_only_the_line_loop_and_graph6_raise_format_errors():
    found = []
    for top in dict(_sources())["graphs.py"].body:
        where = getattr(top, "name", "module level")
        if where in FORMAT_ERRORS:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "GraphFormatError":
                    found.append(f"graphs.py:{node.lineno} in {where}")
    assert not found, "GraphFormatError raised elsewhere: " + ", ".join(found)


def test_one_bottom_up_walk():
    # every bottom-up walk goes through cotree._fold over the lists; a walk
    # over a tree of nodes would bring a second walk, and node-keyed dicts,
    # back with a new loop
    found = _calls("postorder", set())
    assert not found, "postorder in the package: " + ", ".join(found)


# The cotree's lists and the node attributes of its view, which only
# cotree.py reads, so that the layout can change behind the constructor,
# the view and _fold.
LAYOUT = {"codes", "counts", "bigs", "children", "size"}
LAYOUT_MODULES = {"cotree.py"}


def test_node_layout_stays_in_the_cotree_module():
    found = [
        f"{name}:{node.lineno} .{node.attr}"
        for name, tree in _sources()
        if name not in LAYOUT_MODULES
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT
    ]
    assert not found, "cotree layout read outside cotree.py: " + ", ".join(found)


def _package_imports(tree):
    """(module, name) for each name that a module takes from a package
    module, the module given as in a relative import ("" for the package)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "klcograph":
                    yield a.name.removeprefix("klcograph").lstrip("."), None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "klcograph":
                    continue  # the standard library
                module = module.removeprefix("klcograph").lstrip(".")
            for a in node.names:
                yield module, a.name


def test_certify_builds_no_ferrers_diagram():
    # certify answers from one kappa fold and one descent; a call of the
    # diagram's builder, or any import from the diagram's module, would
    # bring it back
    found = [
        where
        for where in _calls("build_ferrers", set())
        if where.startswith("certificate.py:")
    ]
    found += [
        f"certificate.py: from .{module} import {name}"
        for module, name in _package_imports(dict(_sources())["certificate.py"])
        if "ferrers" in (module, name)
    ]
    assert not found, "the Ferrers diagram in certificate.py: " + ", ".join(found)


def test_the_diagram_validators_run_no_kappa_engine():
    # a diagram's column heights are kappa once its rows are independent and
    # its columns cliques, so ferrers.py takes only the sequence type from
    # sequences.py, and the tree validator does not lean on the engines that
    # it is used to check
    taken = {
        name
        for module, name in _package_imports(dict(_sources())["ferrers.py"])
        if module == "sequences"
    }
    assert taken == {"PartitionSequence"}


def test_each_witness_lives_beside_its_producer():
    # certificate.py alone produces and checks a (k,l) witness: the diagram
    # takes nothing from it, and the sequence calculus takes no graph
    sources = dict(_sources())
    for importer, module in (("ferrers.py", "certificate"), ("sequences.py", "graphs")):
        taken = [name for m, name in _package_imports(sources[importer]) if m == module]
        assert not taken, f"{importer} imports {taken} from {module}"


# The private names that a package module takes from another package module,
# as "importer: module.name", and the private attributes that it reads off a
# class imported from another package module, as "importer: Class.name".  A
# new reach into another module's internals shows as one line of this
# literal.
CROSS_MODULE_PRIVATE = [
    "certificate.py: cotree._descend",
    "certificate.py: cotree._fold",
    "certificate.py: sequences._check_natural",
    "certificate.py: sequences._kappa_above",
    "certificate.py: sequences._kappa_entry",
    "certificate.py: sequences._kappa_rule",
    "certificate.py: sequences._leaf",
    "ferrers.py: cotree._fold",
    "generate.py: Cotree._of",
    "oracle.py: sequences._check_natural",
    "sequences.py: cotree._fold",
]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_cross_module_private_names_are_pinned():
    found = set()
    for name, tree in _sources():
        imported = set()  # the names taken from other package modules
        for module, taken in _package_imports(tree):
            if taken is None:
                continue
            imported.add(taken)
            if _private(taken):
                found.add(f"{name}: {module}.{taken}")
        found |= {
            f"{name}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and _private(node.attr)
        }
    assert sorted(found) == CROSS_MODULE_PRIVATE


# The definitions that may write a node's size: the node's own
# __init__, and the view that builds the nodes from the lists.
SIZERS = {("cotree.py", "CotreeNode.__init__"), ("cotree.py", "Cotree.root")}


def _definitions():
    """(file name, "name" or "Class.name", node) for every top-level
    statement of the package, and every statement in a top-level class."""
    for name, tree in _sources():
        for top in tree.body:
            for part in top.body if isinstance(top, ast.ClassDef) else [top]:
                where = getattr(top, "name", "?")
                if part is not top:
                    where += "." + getattr(part, "name", "?")
                yield name, where, part


def test_one_walk_writes_the_sizes():
    found = [
        f"{name}:{node.lineno} .{node.attr} in {where}"
        for name, where, part in _definitions()
        for node in ast.walk(part)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr == "size"
        and (name, where) not in SIZERS
    ]
    assert not found, "size written outside Cotree.root: " + ", ".join(found)


# The definitions that turn nested input into the lists, or the lists into
# nodes.  Each hands its per-node rule to cotree._unfold or cotree._fold, so
# a loop of its own would be a second walk.
NESTED_WALKERS = {"Cotree.__init__", "Cotree.root", "cotree_from_json"}
LOOPS = (ast.For, ast.AsyncFor, ast.While)


def test_one_walk_from_nested_input():
    seen, found = set(), []
    for name, where, part in _definitions():
        if name == "cotree.py" and where in NESTED_WALKERS:
            seen.add(where)
            found += [
                f"cotree.py:{node.lineno} in {where}"
                for node in ast.walk(part)
                if isinstance(node, LOOPS)
            ]
    assert seen == NESTED_WALKERS, "walkers not found: " + ", ".join(NESTED_WALKERS - seen)
    assert not found, "a loop of its own: " + ", ".join(found)


# The oracle is the reference that the cotree engines are checked against:
# it may use the graph type, and the sequence type with its argument check,
# but nothing that computes an answer from a cotree.
ORACLE_IMPORTS = {"graphs": None, "sequences": {"PartitionSequence", "_check_natural"}}


def test_oracle_imports_only_the_reference_layer():
    found = []
    for node in ast.walk(dict(_sources())["oracle.py"]):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "klcograph"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "klcograph":
                    continue  # the standard library
                module = module.removeprefix("klcograph").lstrip(".")
            allowed = ORACLE_IMPORTS.get(module, set())
            found += [
                f"{module}.{a.name}"
                for a in node.names
                if allowed is not None and a.name not in allowed
            ]
    assert not found, "oracle.py imports beyond graphs and the sequence type: " + ", ".join(found)


def test_the_command_line_imports_no_network_stack():
    # xml.sax.saxutils alone pulled in urllib.request, http.client, ssl and
    # email: ~7 MB of resident memory at every start of the command line
    code = (
        "import sys, klcograph.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "{'email', 'http', 'ssl', 'urllib', 'xml'}))"
    )
    src = str(Path(klcograph.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


# The package's public names, modules aside, one a line: a name added or
# removed shows as one line of this literal.
PUBLIC_NAMES = [
    "BoxCertificate",
    "BudgetExceededError",
    "Cotree",
    "CotreeNode",
    "FerrersRepresentation",
    "Graph",
    "GraphFormatError",
    "KLColouring",
    "OracleBudget",
    "P4Witness",
    "PartitionSequence",
    "bichromatic_number",
    "box_cograph_dimension",
    "box_cograph_failure",
    "build_cotree",
    "build_ferrers",
    "build_ferrers_naive",
    "certify_non_colourable",
    "check_cotree",
    "cochromatic_number",
    "complement",
    "complement_cotree",
    "conjugate",
    "cotree_from_json",
    "cotree_from_text",
    "cotree_to_json",
    "cotree_to_text",
    "deep_alternating_cotree",
    "disjoint_union",
    "entrywise_add",
    "evaluate_cotree",
    "induced_subgraph",
    "is_kl_colourable",
    "is_kl_colourable_exhaustive",
    "join",
    "kappa_at",
    "kappa_hat",
    "kappa_hat_naive",
    "kappa_hat_oracle",
    "lambda_hat",
    "parse_edge_list",
    "parse_graph6",
    "random_cotree",
    "render_ascii",
    "render_svg",
    "star_merge",
    "validate_colouring",
    "validate_ferrers",
    "validate_ferrers_against_cotree",
    "verify_box_cograph",
]


def test_public_names_are_pinned():
    found = sorted(
        name
        for name in dir(klcograph)
        if not name.startswith("_") and not isinstance(getattr(klcograph, name), ModuleType)
    )
    assert found == PUBLIC_NAMES
