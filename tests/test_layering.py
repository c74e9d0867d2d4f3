"""The package's import structure: no module imports inside a function
(but for one deferred standard-library import), and each imports only
the modules before it in ``ORDER`` (the noise model and its weight basis,
then the collision step, then the tables read off it), so the modules
form no import cycle."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest
import support

import noisygrover
from noisygrover import collision, markov
from noisygrover.markov import markov_evolve
from noisygrover.measures import positive_increment_sum

SRC = Path(__file__).resolve().parent.parent / "src" / "noisygrover"

# Each module may import only the modules to its left.
ORDER = ("linalg", "grover", "noise", "collision", "markov", "measures", "cli")


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def test_the_order_names_every_module():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(ORDER + ("__init__",))


# The one import a function may make: cli._run_grid loads the process
# pool's module only when --jobs asks for more than one process, so no
# --jobs 1 run pays for concurrent.futures (logging and threading with it).
DEFERRED = {("cli", "_run_grid", "concurrent.futures")}


@pytest.mark.parametrize("name", ORDER + ("__init__",))
def test_no_import_inside_a_function(name):
    nested = [
        (func.name, node.lineno)
        for func in ast.walk(_tree(name))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (
            isinstance(node, ast.Import)
            and all((name, func.name, a.name) in DEFERRED for a in node.names)
        )
    ]
    assert nested == []


@pytest.mark.parametrize("name", ORDER)
def test_intra_package_imports_point_left(name):
    allowed = set(ORDER[: ORDER.index(name)])
    imported = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "noisygrover" for a in node.names), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert (node.module or "").split(".")[0] != "noisygrover", node.lineno
            elif node.module is None:
                # ``from . import x``: a module of the package, or an
                # attribute of __init__ (``__version__``), which every
                # module's import has already run.
                imported |= {a.name for a in node.names if a.name in ORDER}
            else:
                imported.add(node.module.split(".")[0])
    assert imported <= allowed, sorted(imported - allowed)


# Names that left the package: (module, class or None, name, whether
# tests/support.py holds it now). The moved ones are references that only
# tests call: the dense ones, and the orbit basis with the backflow
# witness's split operators on it (``measures._split_operators`` before it
# moved to the weight basis, now ``orbit_split_operators``); the deleted
# ones had no reader outside the tests. No module defines or imports the
# orbit basis's builders: every caller runs on the weight basis, and
# support.py keeps the orbit basis's one builder (``dicke_powers_loop``,
# ``dicke_operators_loop``) as the independent reference. ``noise``'s
# ``_orbit_class`` and ``_orbit_representatives`` are now ``_weight_class``
# and ``_class_representatives``: they give the weight basis's d'.
# ``random_pure_state`` is the reference that ``verify_dilation``'s probes,
# drawn a stack at a time, must equal; ``KrausSet._boxes`` went when
# ``apply_kraus`` became the plain dense sum, and ``markov._POPULATIONS``
# (the walker populations 0.4999999999999999) when the start became
# exactly rho / 2 per label block.
GONE = (
    ("linalg", None, "random_density", True),
    ("markov", None, "initial_joint_state", True),
    ("measures", None, "blp_pair", True),
    ("measures", None, "StatePair", True),
    ("collision", "KrausSet", "completeness_defect", True),
    ("collision", "KrausSet", "unitality_defect", True),
    ("noise", "NoiseSpec", "m", False),
    ("noise", "MarkovNoiseParams", "p_g", False),
    ("noise", "MarkovNoiseParams", "p_gp", False),
    ("cli", None, "_dilation_step", False),
    ("measures", None, "orbit_split_operators", True),
    ("noise", None, "orbit_basis", True),
    ("noise", None, "_dicke_operators", False),
    ("noise", None, "_dicke_powers", False),
    ("noise", None, "_kron", False),
    ("cli", None, "ORBIT_MAX_DIM", False),
    ("cli", None, "_orbit_dim", False),
    ("noise", None, "_orbit_class", False),
    ("noise", None, "_orbit_representatives", False),
    ("linalg", None, "random_pure_state", True),
    ("collision", "KrausSet", "_boxes", False),
    ("markov", None, "_POPULATIONS", False),
)


@pytest.mark.parametrize("module, cls, name, moved", GONE, ids=[g[2] for g in GONE])
def test_test_only_names_left_the_package(module, cls, name, moved):
    holders = [noisygrover] + [importlib.import_module(f"noisygrover.{m}") for m in ORDER]
    if cls is not None:
        holders.append(getattr(importlib.import_module(f"noisygrover.{module}"), cls))
    assert [h for h in holders if hasattr(h, name)] == []
    assert hasattr(support, name) == moved


def test_positive_increment_sum_takes_no_threshold():
    assert list(inspect.signature(positive_increment_sum).parameters) == ["series"]


def test_markov_evolve_takes_no_validate():
    # Callers that want the check run require_density on the kept blocks.
    params = list(inspect.signature(markov_evolve).parameters)
    assert params == ["inst", "spec", "params", "steps", "bath"]


def test_the_step_loop_takes_no_marked_index():
    # Success is read at entry (0, 0), where the weight basis puts |w>; a
    # caller whose basis puts it elsewhere reads its entry off kept blocks.
    for func in (
        collision.collision_evolve, collision.collision_first_max, collision._label_steps
    ):
        assert "marked" not in inspect.signature(func).parameters, func.__name__


def test_the_history_walk_cuts_its_runs_with_the_one_stack_rule():
    # history_oracle takes its runs from collision._chunks, as the rest of
    # the verification layer does, and reads no budget of its own.
    assert markov._chunks is collision._chunks
    assert not hasattr(markov, "_BATCH_ENTRIES")


def test_the_witnesses_import_no_orbit_builder():
    # n_cp and n_blp run on the weight basis of one system, and need no
    # list of position classes either.
    orbit = {"_dicke_operators", "_dicke_powers", "orbit_basis", "_class_representatives"}
    assert orbit.isdisjoint(vars(importlib.import_module("noisygrover.measures")))
