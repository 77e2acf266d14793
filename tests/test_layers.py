"""The symbolic layer stands apart from the oracle layer.

qpoly, params, census and charcensus compute the closed forms without
numpy, and the symbolic commands run with numpy unimportable; importing
the package, its CLI or the orbit layer loads no dataclasses either.  The
oracle modules (gf, falinalg, orbitmethod) never import the closed
forms, so the routes stay independent.  The package still exports every
name it always did: the symbolic ones directly, the oracle ones on
first use.
"""

import ast
import doctest
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import radchar.params

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "radchar"

COMMANDS = [
    ["census", "--type", "C", "--n", "4", "--d", "2", "--q", "5", "--no-timing"],
    ["census", "--type", "U", "--n", "3", "--d", "1", "--format", "json", "--basis", "qminus1", "--no-timing"],
    ["ranks", "--class", "herm", "--n", "3", "--q", "3", "--no-timing"],
    ["verify", "--suite", "positivity", "--no-timing"],
]

# runs COMMANDS through cli.main; prints each exit code and output, then the radchar modules loaded
SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any numpy import raises ImportError
import radchar, radchar.cli
runs = []
for argv in json.loads(sys.argv[2]):
    with redirect_stdout(io.StringIO()) as out:
        code = radchar.cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"runs": runs, "modules": sorted(m for m in sys.modules if m.startswith("radchar"))}))
"""


def _run_commands(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, json.dumps(COMMANDS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_symbolic_commands_run_without_numpy():
    blocked, normal = _run_commands("blocked"), _run_commands("normal")
    assert [code for code, _ in blocked["runs"]] == [0] * len(COMMANDS)
    assert blocked["runs"] == normal["runs"]
    assert "radchar.falinalg" not in blocked["modules"]
    assert "radchar.orbitmethod" not in blocked["modules"]


ORACLE_MODULES = {"gf", "falinalg", "orbitmethod"}
CLOSED_FORMS = {"census", "charcensus"}


def imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(enclosing function, or "" at module level; module name) of every import, relative ones without the dot."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                found.extend((scope, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                if child.module:
                    found.append((scope, child.module))
                else:  # from . import x
                    found.extend((scope, alias.name) for alias in child.names)
            visit(child, scope)

    visit(tree, "")
    return found


def _imports_of(module: str) -> list[tuple[str, str]]:
    path = SRC / f"{module}.py"
    return imports(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("module", sorted(ORACLE_MODULES))
def test_oracles_never_import_the_closed_forms(module):
    assert [name for _, name in _imports_of(module) if name.split(".")[0] in CLOSED_FORMS] == []


@pytest.mark.parametrize("module", ["qpoly", "params", "census", "charcensus"])
def test_symbolic_layer_loads_oracles_only_in_the_brute_histogram(module):
    found = [
        (scope, name)
        for scope, name in _imports_of(module)
        if name.split(".")[0] in ORACLE_MODULES | {"numpy"} and scope != "brute_rank_census"
    ]
    assert found == []


# prints the modules that importing the package and its CLI adds, then those the orbit layer adds
IMPORT_SCRIPT = """
import json, sys
before = set(sys.modules)
import radchar, radchar.cli
cli = set(sys.modules) - before
import radchar.orbitmethod
print(json.dumps([sorted(cli), sorted(set(sys.modules) - before - cli)]))
"""


def test_import_loads_no_dataclasses():
    # dataclasses brings inspect, ast, dis and tokenize: about a third of the CLI's start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    cli, oracle = map(set, json.loads(done.stdout))
    assert "radchar.cli" in cli and "radchar.orbitmethod" in oracle
    assert cli & {"dataclasses", "inspect"} == set()
    # numpy itself imports inspect, so the orbit layer is held to dataclasses alone
    assert "dataclasses" not in oracle


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    assert [(scope, name) for scope, name in _imports_of(module) if name == "dataclasses"] == []


def test_import_finder_sees_every_form():
    source = """
import numpy as np
from . import gf
from .falinalg import rank
def brute_rank_census():
    import numpy
    from .orbitmethod import RadicalContext
class A:
    def f(self):
        if True:
            from numpy import zeros
"""
    assert imports(ast.parse(source)) == [
        ("", "numpy"), ("", "gf"), ("", "falinalg"),
        ("brute_rank_census", "numpy"), ("brute_rank_census", "orbitmethod"), ("f", "numpy"),
    ]


# every name the package exports, with the module it comes from
EXPORTS = {
    "census": (
        "brute_rank_census", "census_polynomial", "rank_censuses", "skew_rank_census", "skewherm_rank_census",
        "sym_rank_census",
    ),
    "charcensus": (
        "DegreeCensus", "DegreeCensusRow", "census_table", "char_count_poly", "degree_exponents", "qminus1_report",
        "sum_of_squares_check",
    ),
    "falinalg": ("FfMatrix", "rank"),
    "gf": ("BudgetExceeded", "FieldCtx", "field_create", "field_for_order", "quadratic_extension"),
    "orbitmethod": (
        "OrbitCensus", "OrbitRecord", "RadicalContext", "RadicalParams", "class_count_brute", "coadjoint_act",
        "coefficient_matrix", "group_inv", "group_mul", "orbit_census", "orbit_of", "orbit_partition",
        "pairing_nondegeneracy_check", "radical_order",
    ),
    "qpoly": ("QPoly", "gaussian_binomial"),
}


@pytest.mark.parametrize("module, name", [(module, name) for module, names in EXPORTS.items() for name in names])
def test_every_export_is_its_modules_object(module, name):
    exported = getattr(importlib.import_module("radchar"), name)
    namespace = {}
    exec(f"from radchar import {name}", namespace)
    assert namespace[name] is exported is getattr(importlib.import_module(f"radchar.{module}"), name)
    assert name in dir(radchar)


# the names params took over, by the module that defined them before
MOVED = {
    "gf": ("BudgetExceeded", "odd_prime_power"),
    "falinalg": ("DEFAULT_ENUM_BUDGET", "SymmetryClass", "class_dimension"),
    "orbitmethod": ("TYPES", "d_range", "RadicalParams", "radical_order"),
}


@pytest.mark.parametrize("module, name", [(module, name) for module, names in MOVED.items() for name in names])
def test_moved_names_keep_their_old_import_paths(module, name):
    assert getattr(importlib.import_module(f"radchar.{module}"), name) is getattr(radchar.params, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'orbit_walk'"):
        radchar.orbit_walk
    assert radchar.orbitmethod is importlib.import_module("radchar.orbitmethod")


def test_the_scalar_element_layer_is_gone():
    for name in ("FieldElement", "frobenius", "norm", "relative_trace", "trace_pairing", "twisted_trace_pairing"):
        with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
            getattr(radchar, name)
        assert name not in dir(radchar)


def test_readme_examples_run():
    blocks = re.findall(r"```pycon\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    # one session: the second block reuses the first one's imports
    runner = doctest.DocTestRunner()
    runner.run(doctest.DocTestParser().get_doctest("\n".join(blocks), {}, "README", "README.md", 0))
    assert runner.summarize(verbose=False) == (0, 9)
