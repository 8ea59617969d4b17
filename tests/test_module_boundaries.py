"""Module boundaries inside the gaplab package.

No module uses another module's ``_``-prefixed names, neither through
``from .x import _name`` nor as an attribute ``x._name`` of an imported
sibling module.  Only ``dynamics`` builds the dense phase-average matrix,
and no run path builds it at d = 48, T = 8.  Only ``linalg`` writes
the three-operand ``einsum`` of the quadratic forms and the two-operand
one of the per-row powers.  The runner takes the phase
forms through ``dynamics.PhaseForms`` and reads none of the routines
behind it.  Importing the command line
tool leaves out ``scipy.integrate``, which only the oracles use, and
importing the sampler loads no module but ``linalg``.  The package root
imports nothing and exports only ``__version__``, so each module's
``__all__`` is the one list of its exports.  Every name a module imports
is read in it.
Every function and method is read somewhere in the package, unless it
is one of the few kept for the tests
(``TEST_FACING``): code that no command, run path or oracle reaches is
deleted, not exported.  Every name in a module's ``__all__`` is bound in
that module, so deleting a function also deletes its export.  An attribute read whose name is a dataclass field
of the package reads the field, not a module-level function of the same
name; methods are still read through attributes.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gaplab"


def private_uses(source: str) -> list:
    """Private names of sibling modules that a module's source reaches."""
    tree = ast.parse(source)
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("gaplab")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module in (None, "gaplab"):
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            siblings.update(a.asname or a.name for a in node.names if a.name.startswith("gaplab"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_names(path):
    assert private_uses(path.read_text()) == []


def test_private_uses_are_detected():
    assert private_uses("from .spectra import gap_count, _cluster_sorted") == ["spectra._cluster_sorted"]
    assert private_uses("from . import jsonio\njsonio._hidden(1)") == ["jsonio._hidden"]
    assert private_uses("from .spectra import gap_count\nimport numpy as np\nnp._x") == []


def calls_of(source: str, name: str) -> int:
    """Number of calls ``name(...)`` or ``x.name(...)`` in a module's source."""
    return sum(
        1
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    )


def test_only_dynamics_builds_the_phase_matrix():
    callers = {p.name for p in PACKAGE.glob("*.py") if calls_of(p.read_text(), "gap_phase_matrix")}
    assert callers == {"dynamics.py"}
    assert calls_of("R = dynamics.gap_phase_matrix(g, 1.0)\ngap_phase_matrix(g, 2.0)", "gap_phase_matrix") == 2


def einsums(source: str, operands: int) -> int:
    """Number of ``einsum(subscripts, ...)`` calls on ``operands`` operands, bare or as an attribute, in a module's source."""
    return sum(
        1
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "einsum" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and len(node.args) == 1 + operands
    )


def test_only_linalg_writes_the_three_operand_einsum():
    """Its rounding is pinned by the stored reports, so ``linalg.quadratic_forms`` writes it once."""
    counts = {p.name: einsums(p.read_text(), 3) for p in PACKAGE.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"linalg.py": 1}
    source = "np.einsum('sd,de,se->s', x, a, y)\neinsum('ij,ij->i', g, g)\neinsum('i,ij,j', u, M, v)"
    assert einsums(source, 3) == 2


def test_only_linalg_writes_the_two_operand_einsum():
    """The per-row powers sum a lone row in another order than a row of a stack, so ``linalg.row_powers``,
    which pads a lone row, writes their ``einsum`` once."""
    counts = {p.name: einsums(p.read_text(), 2) for p in PACKAGE.glob("*.py")}
    assert {name: n for name, n in counts.items() if n} == {"linalg.py": 1}
    source = "np.einsum('sd,sd->s', x.conj(), x)\neinsum('sc,sc->s', g, g)\neinsum('i,ij,j', u, M, v)\nnp.einsum('ii', a)"
    assert einsums(source, 2) == 2


#: The routines behind ``dynamics.PhaseForms``, which pick and evaluate a forms route.
FORMS_INTERNALS = {
    "gap_coefficients", "gap_phase_matrix", "gauss_rule", "kernel_nodes", "state_amplitudes",
}


def imported_names(source: str) -> set:
    """Names that a module's ``from ... import`` statements bind from other modules."""
    return {a.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom) for a in node.names}


def test_forms_internals_are_defined_in_dynamics():
    """Each name the runner must leave alone is a function of ``dynamics`` today, so none guards a deleted name."""
    defined = {name for name, method in defined_functions((PACKAGE / "dynamics.py").read_text()) if not method}
    assert FORMS_INTERNALS <= defined


def test_runner_leaves_the_forms_route_to_dynamics():
    source = (PACKAGE / "runner.py").read_text()
    assert (imported_names(source) | names_read(source)) & FORMS_INTERNALS == set()
    assert imported_names("from .dynamics import (PhaseForms,\n    gap_coefficients)\nimport os") == {
        "PhaseForms", "gap_coefficients",
    }


def test_no_run_path_builds_the_phase_matrix_at_d48(monkeypatch, tmp_path):
    """At d = 48 and T = 8 both the norm and the moments forms take their Gauss rules."""
    from gaplab import cli, dynamics

    def refuse(*args, **kwargs):
        raise AssertionError("a run path built the P x P phase matrix")

    monkeypatch.setattr(dynamics, "gap_phase_matrix", refuse)
    config = tmp_path / "d48.json"
    config.write_text(json.dumps({
        "schema": "gaplab-scenario/1", "dimension": 48, "seed": 11, "hamiltonian": {"kind": "random"},
        "rho": {"kind": "random"}, "observable": {"kind": "random_projector", "rank": 24},
        "mc": {"n_states": 200, "n_times": 64}, "horizons": [8.0], "kappas": [0.5, 1.5], "epsilon": 0.1,
        "delta": 0.1, "checks": ["spectral", "variance", "moments", "equilibration", "concentration"],
    }))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "report.json")]) == 0


def test_importing_the_cli_leaves_out_scipy_integrate():
    """Only the quadrature oracles use scipy.integrate, and they import it when called."""
    code = "import sys, gaplab.cli; print('scipy.integrate' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_importing_the_sampler_loads_only_linear_algebra():
    """The package root re-exports nothing, so ``gaplab.sampling`` loads ``gaplab.linalg`` and no runner stack."""
    code = "import sys, gaplab.sampling; print(sorted(m for m in sys.modules if m.split('.')[0] == 'gaplab'))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == str(["gaplab", "gaplab.linalg", "gaplab.sampling"])


def test_the_package_root_exports_only_its_version():
    import gaplab

    assert gaplab.__all__ == ["__version__"]
    assert imported_names((PACKAGE / "__init__.py").read_text()) == set()


def test_a_one_lane_run_leaves_out_the_forked_lanes(tmp_path):
    """``gaplab.lanes`` is imported only by an ensemble that forks, so a one-lane run never compiles it,
    also where the concentration checks would run beside forked lanes."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "schema": "gaplab-scenario/1", "dimension": 6, "seed": 7, "hamiltonian": {"kind": "random"},
        "rho": {"kind": "uniform"}, "observable": {"kind": "random_projector"}, "horizons": [4.0],
        "kappas": [1.0], "checks": ["moments", "equilibration", "concentration"],
        "mc": {"n_states": 600, "n_times": 8}, "concentration": {"n_states": 300},
    }))
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "report.json")]
    code = f"import sys, gaplab.cli; gaplab.cli.main({argv!r}); print('gaplab.lanes' in sys.modules, file=sys.stderr)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stderr.strip() == "False"


def imported_modules(source: str) -> set:
    """Top-level modules that a module's ``import`` and absolute ``from ... import`` statements name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
    return names


def test_the_forked_lanes_import_only_what_they_use_of_the_standard_library():
    """A run that forks imports ``gaplab.lanes``, compiling it from source where no bytecode is written.  It
    takes pipes, fork, wait, signals and usage from ``os``, ``signal`` and ``resource``, and ``pickle`` for
    the lanes' outcomes: no process or thread pool, no ``fcntl``, no numpy."""
    modules = imported_modules((PACKAGE / "lanes.py").read_text())
    assert modules <= sys.stdlib_module_names
    assert modules & {"multiprocessing", "threading", "concurrent", "fcntl", "select", "numpy"} == set()
    assert imported_modules("import os.path\nfrom multiprocessing import Pipe\nfrom . import runner") == {
        "os", "multiprocessing"
    }


def unused_imports(source: str) -> list:
    """Names that a module's imports bind but its code never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            bound.extend(a.asname or a.name.split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_detected():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .linalg import operator_norm, trace_norm\nx = np.eye(2)\ny = trace_norm(x)\nos = 1"
    )
    assert unused_imports(source) == ["os", "operator_norm"]


#: Functions that only the tests call: the slow oracles, the exact
#: per-state variances they are checked against, and the file writers that
#: build test inputs.
TEST_FACING = (
    "expectation_curve_variance",
    "expectation_curve_variance_infinite",
    "expectation_curve_variance_quadrature",
    "gap_variance_exact",
    "k_integral",
    "k_pair_integral",
    "mixture_curve_deviation",
    "mixture_curve_deviation_quadrature",
    "sample_gap_diagonal",
    "sample_gap_resampling_oracle",
    "save_matrix",
    "save_spectrum",
)


def defined_functions(source: str) -> list:
    """(name, is_method) of the top-level functions and the methods of top-level classes, dunders aside."""
    found = []
    for node in ast.parse(source).body:
        method = isinstance(node, ast.ClassDef)
        body = node.body if method else [node]
        found += [(n.name, method) for n in body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(n, method) for n, method in found if not (n.startswith("__") and n.endswith("__"))]


def dataclass_fields(source: str) -> set:
    """Field names of the classes a module's source declares with ``@dataclass`` or ``@dataclass(...)``."""
    fields = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            fields.update(n.target.id for n in node.body if isinstance(n, ast.AnnAssign))
    return fields


def names_read(source: str, fields: frozenset = frozenset()) -> set:
    """Every name a module's source reads, bare or as an attribute, except attributes named in ``fields``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr not in fields)
    }


def unread_functions(sources: dict) -> list:
    """``module:name`` of every function and method that no module reads.

    A method is read through any attribute of its name.  A module-level
    function is read by its bare name or through an attribute, except an
    attribute named as a dataclass field of the package: that reads the
    field.
    """
    fields = frozenset().union(*(dataclass_fields(s) for s in sources.values()))
    read = set().union(*(names_read(s) for s in sources.values()))
    read_as_function = set().union(*(names_read(s, fields) for s in sources.values()))
    return [f"{name}:{fn}" for name, s in sorted(sources.items()) for fn, method in defined_functions(s)
            if fn not in (read if method else read_as_function)]


def test_every_function_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    unread = [u for u in unread_functions(sources) if u.split(":")[1] not in TEST_FACING]
    assert unread == []


def test_unread_functions_are_detected():
    source = (
        "class A:\n    def __init__(self): pass\n    def used(self): pass\n    def spare(self): pass\n"
        "def helper(): pass\ndef lonely(): pass\nA().used()\nx = helper\n"
    )
    assert defined_functions(source) == [("used", True), ("spare", True), ("helper", False), ("lonely", False)]
    assert unread_functions({"a.py": source, "__init__.py": "from .a import lonely"}) == ["a.py:spare", "a.py:lonely"]


def test_a_dataclass_field_does_not_read_a_function_of_its_name():
    """The attribute ``r.spread`` reads the field, so the function ``spread`` stays unread; the method
    ``Gaps.total`` is still read through ``g.total``, though a field has its name too."""
    source = (
        "from dataclasses import dataclass\n@dataclass(frozen=True)\nclass Record:\n    spread: float\n"
        "    total: int\nclass Gaps:\n    def total(self): pass\ndef spread(x): pass\n"
        "r = Record(1.0, 2)\ng = Gaps()\ny = r.spread + g.total()\n"
    )
    assert dataclass_fields(source) == {"spread", "total"}
    assert unread_functions({"a.py": source}) == ["a.py:spread"]


def unbound_exports(module) -> list:
    """Names in a module's ``__all__`` that the module does not bind."""
    return [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize(
    "name", ["gaplab"] + [f"gaplab.{p.stem}" for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
)
def test_every_export_is_bound(name):
    module = importlib.import_module(name)
    assert module.__all__ and unbound_exports(module) == []


def test_unbound_exports_are_detected():
    module = types.ModuleType("stale")
    module.kept = 1
    module.__all__ = ["kept", "deleted"]
    assert unbound_exports(module) == ["deleted"]
