"""Structural guards on the package source.

Each family is defined once, by its entry in the table in families.py;
code elsewhere asks the family for its behaviour instead of testing
which family it is. dataio is the one CSV reader and writer: only it
imports csv, every table goes through dataio.write_rows, output files
and streams are opened in one place, dataio.open_sink, and the CLI
opens no file itself. Series run one after another, with no thread pool.
The package exports a fixed public API. Every fit is one row of the
batched Newton kernel in natural coordinates, so no module imports
scipy.optimize and a Family carries no reparameterisation; numerics
holds only CDF inversion, and the gamma/Weibull shape floor
alpha/(1+alpha) is spelled once, in families.py. Full fits,
leave-one-out fits and bootstrap replicates all reach the kernel
through estimator._solve_rows, so the kernel is named only in
estimator.py; its Newton step takes eigenvalues in closed form, so
estimator.py calls no eigh, and only tuning._loo_points asks
estimator._one_step_starts for its rows' starts. No module silences
warnings process-wide with warnings.catch_warnings. Tuning and model
selection share one step that turns a batch of alphas into scored fits,
tuning.score_alphas, which is not underscored, and selection.py uses
nothing private of tuning's. Model selection ranks the families at one
alpha: selection.py names neither the one alpha search,
tuning.alpha_search, nor the coarse grid, select_model makes one
score_alphas call, and the select command has no --fast. Alpha is a
row axis of the kernel, so each batch is one Newton solve,
estimator.fit_alphas, which outside estimator.py only score_alphas
calls: neither tuning nor selection calls fit, and selection.py imports
nothing from estimator. Alpha is a row axis of the sandwich too:
asymptotics reaches the closed-form moments only through
families._moment_rows, and its sandwich, standard errors and efficiency
tables only through _sandwich_rows, which selection calls once per
alpha batch, in _rics, never sandwich once per fit; _rics scores the
batches of ric and select_model. The divergence H
is reduced in one place, families._divergence, which with _moment_rows
alone takes a family's mass, and J is inverted once, by the sandwich:
RIC's trace comes from its avar, so no module solves a linear system.
The terms of alpha alone have one form, numpy arrays with an entry per
point, and no table of math functions; the CLI defines each flag that
several commands share once.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import dpdfit
from dpdfit import numerics
from dpdfit.cli import parse_args

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpdfit"
MODULES = sorted(PACKAGE.glob("*.py"))
FAMILY_NAMES = {"EXPONENTIAL", "GAMMA", "LOGNORMAL", "WEIBULL"}

# The package re-exports each module's __all__; this is the public API.
PUBLIC_API = [
    "__version__", "AreTable", "BootstrapResult", "COARSE_GRID",
    "ContaminationScheme", "DataError", "DomainError", "DpdError", "DpdValidityError",
    "EXPONENTIAL", "FAMILIES", "Family", "FitError", "FitResult", "GAMMA",
    "InversionError", "LOGNORMAL", "OutlierSummary", "ParamVector", "REPORT_COLUMNS",
    "Sample", "SandwichMatrices", "SelectionError", "SelectionRecord",
    "SelectionReport", "SingularInformationError", "TuningError", "TuningResult",
    "WEIBULL", "adjusted_median", "are", "asymptotic_se", "bootstrap_se", "cdf",
    "check_dpd_valid", "cvm_distance", "density", "dpd_mass_integral", "dpd_weights",
    "estimating_residual", "fit", "fit_alphas", "if_supremum", "influence_function", "load_csv",
    "load_panel", "log_density", "objective_h", "outlier_summary", "quantile", "ric",
    "sample_family", "sandwich", "save_csv", "score", "select_alpha", "select_model",
    "simulate_contaminated", "v_alpha", "weighted_moments", "write_report_rows",
]


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_family(node):
    if isinstance(node, ast.Name):
        return node.id in FAMILY_NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_family(e) for e in node.elts)
    return False


def _family_tests(tree):
    """Line numbers of comparisons against a named family (is, ==, in)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            if any(_names_family(side) for side in [node.left, *node.comparators]):
                lines.append(node.lineno)
    return lines


def _calls(tree):
    """(call node, enclosing function name) for every call in the tree."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            found.append((node, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _calls_to(tree, name):
    """Enclosing function of every call spelled name, e.g. csv.writer or open."""
    return [func for node, func in _calls(tree) if ast.unparse(node.func) == name]


def _write_probes(tree):
    """(line, enclosing function) of every hasattr(..., "write")."""
    return [
        (node.lineno, func)
        for node, func in _calls(tree)
        if ast.unparse(node.func) == "hasattr"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "write"
    ]


SHAPE_FLOOR = {"alpha/(1+alpha)", "alpha/(1.0+alpha)", "alpha/(alpha+1)", "alpha/(alpha+1.0)"}


def _shape_floors(tree):
    """Line numbers of the expression alpha / (1 + alpha), in code only."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and ast.unparse(node).replace(" ", "") in SHAPE_FLOOR
    ]


def _imports(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_package_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "families.py"], ids=lambda p: p.name)
def test_no_family_identity_branches_outside_families(path):
    assert _family_tests(_tree(path)) == [], f"{path.name} branches on a named family"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_write_probe_only_in_open_sink(path):
    stray = [line for line, func in _write_probes(_tree(path)) if func != "open_sink"]
    assert stray == [], f"{path.name} probes for .write outside open_sink at lines {stray}"


def test_open_sink_is_the_one_write_probe():
    probes = [(p.name, func) for p in MODULES for _, func in _write_probes(_tree(p))]
    assert probes == [("dataio.py", "open_sink")]


def test_only_dataio_imports_csv():
    assert [p.name for p in MODULES if "csv" in _imports(_tree(p))] == ["dataio.py"]


def test_csv_writer_only_in_write_rows():
    found = [(p.name, func) for p in MODULES for func in _calls_to(_tree(p), "csv.writer")]
    assert found == [("dataio.py", "write_rows")]


def test_cli_opens_no_file():
    assert _calls_to(_tree(PACKAGE / "cli.py"), "open") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_thread_pool(path):
    assert not any(name.startswith("concurrent") for name in _imports(_tree(path)))


def test_public_api():
    assert dpdfit.__all__ == PUBLIC_API
    assert all(hasattr(dpdfit, name) for name in PUBLIC_API)


def test_family_has_one_back_transform():
    fields = {f.name for f in dataclasses.fields(dpdfit.Family)}
    assert fields.isdisjoint({"from_log", "to_log", "unlog", "un"})


def test_numerics_exports_only_the_kernels():
    assert numerics.__all__ == ["invert_cdf"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_optimize(path):
    tree = _tree(path)
    names = _imports(tree) | {
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    assert not any(n == "scipy.optimize" or n.startswith("scipy.optimize.") for n in names)


def test_shape_floor_spelled_once_in_families():
    found = [p.name for p in MODULES for _ in _shape_floors(_tree(p))]
    assert found == ["families.py"]


def _names(tree):
    """Every identifier and attribute name used in the tree."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    } | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_newton_kernel_named_only_in_estimator():
    found = [p.name for p in MODULES if "_newton_rows" in _names(_tree(p))]
    assert found == ["estimator.py"]


def test_newton_step_takes_no_eigh():
    tree = _tree(PACKAGE / "estimator.py")
    assert "eigh" not in _names(tree)
    assert _calls_ending(tree, "eigh") == _calls_ending(tree, "eig") == []


def test_one_step_starts_only_for_leave_one_out():
    found = [
        (p.name, func) for p in MODULES for func in _calls_ending(_tree(p), "_one_step_starts")
    ]
    assert found == [("tuning.py", "_loo_points")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_catch_warnings(path):
    assert "catch_warnings" not in _names(_tree(path))


def test_selection_uses_nothing_private_from_tuning():
    tree = _tree(PACKAGE / "selection.py")
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("tuning", "dpdfit.tuning")
        for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("_")]
    attributes = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "tuning"
    ]
    assert not [name for name in attributes if name.startswith("_")]


def test_searches_fit_through_fit_alphas():
    found = [
        (p.name, func)
        for p in MODULES
        if p.name != "estimator.py"
        for func in _calls_ending(_tree(p), "fit_alphas")
    ]
    assert found == [("tuning.py", "score_alphas")]
    for name in ("selection.py", "tuning.py"):
        tree = _tree(PACKAGE / name)
        assert _calls_to(tree, "fit") == _calls_ending(tree, ".fit") == []
    assert "fit" not in _names(_tree(PACKAGE / "tuning.py"))


def test_selection_ranks_at_one_alpha():
    tree = _tree(PACKAGE / "selection.py")
    assert not {"alpha_search", "COARSE_GRID"} & _names(tree)
    assert _calls_to(tree, "score_alphas") == ["ric", "select_model"]
    assert not hasattr(parse_args(["select", "--input", "series.csv"]), "fast")


def test_selection_imports_nothing_from_estimator():
    tree = _tree(PACKAGE / "selection.py")
    assert not {"estimator", "dpdfit.estimator"} & _imports(tree)
    assert "estimator" not in _names(tree)


def _calls_ending(tree, suffix):
    """Enclosing function of every call whose callee is spelled ...suffix."""
    return [func for node, func in _calls(tree) if ast.unparse(node.func).endswith(suffix)]


def test_moments_reached_only_through_the_rows_form():
    tree = _tree(PACKAGE / "asymptotics.py")
    assert "weighted_moments" not in _names(tree)
    assert _calls_ending(tree, ".moments") == _calls_ending(tree, ".mass") == []
    assert sorted(_calls_to(tree, "_moment_rows")) == [
        "_sandwich_rows", "_sandwich_rows", "influence_function"
    ]
    assert sorted(_calls_to(tree, "_sandwich_rows")) == ["are", "sandwich"]
    found = sorted(
        (p.name, func) for p in MODULES for func in _calls_ending(_tree(p), "family.moments")
    )
    assert found == [("estimator.py", "_weighted_terms"), ("families.py", "_moment_rows")]


def test_selection_scores_a_batch_with_one_sandwich_call():
    tree = _tree(PACKAGE / "selection.py")
    assert "sandwich" not in _names(tree)
    assert _calls_to(tree, "_sandwich_rows") == ["_rics"]
    assert _calls_to(tree, "_rics") == ["ric", "select_model"]


def test_divergence_reduced_once():
    assert not [p.name for p in MODULES if "_divergence_terms" in _names(_tree(p))]
    found = sorted((p.name, func) for p in MODULES for func in _calls_ending(_tree(p), ".mass"))
    assert found == [("families.py", "_divergence"), ("families.py", "_moment_rows")]


def test_information_matrix_inverted_once():
    assert [p.name for p in MODULES if "linalg.solve" in p.read_text(encoding="utf-8")] == []
    assert _calls_ending(_tree(PACKAGE / "asymptotics.py"), "_invert_spd_rows") == [
        "_invert_spd", "_sandwich_rows"
    ]


def test_alpha_terms_have_one_form():
    """The terms of alpha alone are numpy arrays, one entry per point,
    with no table of math functions to take them entry by entry."""
    gone = {"_each", "_ALPHA_FNS"}
    assert not [p.name for p in MODULES if gone & _names(_tree(p))]
    assert not [name for name in gone if hasattr(dpdfit.families, name)]
    assert dpdfit.families._AlphaTerms.__slots__ == (
        "alpha", "col", "zero", "k", "lift", "log1p", "any_zero", "all_zero"
    )


def test_shared_cli_flags_defined_once():
    text = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert [text.count(f'"{flag}"') for flag in ("--fast", "--theta", "--alpha")] == [1, 1, 1]
