"""Structural guards on the package source.

Each family is defined once, by its entry in the table in families.py;
code elsewhere asks the family for its behaviour instead of testing
which family it is. dataio is the one CSV reader and writer: only it
imports csv, every table goes through dataio.write_rows, output files
and streams are opened in one place, dataio.open_sink, and the CLI
opens no file itself. Series run one after another, with no thread pool.
The package exports a fixed public API. Every fit is one row of the
batched Newton kernel in natural coordinates, so no module imports
scipy.optimize and a Family carries no reparameterisation and one form
of ln f, its terms; numerics holds only CDF inversion, and the
gamma/Weibull shape floor alpha/(1+alpha) is spelled once, in
families.py. The kernel is named only in estimator.py. Every refit,
a leave-one-out fit or a bootstrap replicate, is a row of counts over
the sample, with no weights callback, and one call of
estimator._solve_rows: tuning._loo_points and uncertainty.bootstrap_se
each make one and hand it the fits, off which _solve_rows starts every
row one Newton step, its sums one einsum over all count rows with no
loop around it; there is no _one_step_starts. _solve_rows alone lays
the rows out, on the sample or on each row's drawn support, so tuning
and uncertainty compact nothing.
The kernel's Newton step takes eigenvalues in closed form, so
estimator.py calls no eigh; estimator.py takes no BLAS product (@,
matmul or dot), whose rows would move with the batch. No module silences
warnings process-wide with warnings.catch_warnings. Model selection
scores a family with one fit and one sandwich, and imports nothing from
tuning; the alpha-batch scorer, tuning._score_alphas, is tuning's own,
its score the CVM distance, with no scorer callback. Model selection
ranks the families at one alpha: selection.py names neither the coarse
grid nor the scorer, and the select command has no --fast. Alpha is a
row axis of the kernel, so
each batch of the alpha search is one Newton solve,
estimator.fit_alphas, which outside estimator.py only _score_alphas
calls: tuning calls no fit, and selection.py imports only fit from
estimator. Alpha is a row axis of the sandwich too: asymptotics reaches
the closed-form moments only through families._moment_rows, and its
sandwich, standard errors and efficiency tables only through
_sandwich_rows; selection takes one sandwich per family. The divergence H
is reduced in one place, the Newton kernel estimator._weighted_terms,
which every fit's objective, objective_h and v_alpha read, and which
with families._moment_rows alone asks a family for its tilted law
f^(1+c)/M: its mass M and the score moments under it, which each
family's one tilted entry states once and which only _moment_rows and
the kernel scale by M into integrals; families.py defines no v_alpha.
J is inverted by one function,
_invert_spd_rows, which only the sandwich and influence_function call:
RIC's trace comes from the sandwich's avar, so no module solves a
linear system.
The terms of alpha alone have one form, numpy arrays with an entry per
point, and no table of math functions; alpha = 0 rows, alone or in a
batch, take one path through the kernel, its masks, with no all-alpha =
0 flag; the kernel takes its rows' alphas and builds their terms
itself, so _AlphaTerms has no rows method. A candidate point has one
test, families._inside, which only the Newton trial (_newton_rows) and
the one-step starts (_solve_rows) call. The CLI defines each
flag that several commands share once. The one alpha search refines by grid
rounds, not by a golden-section walk: tuning.py has no _GOLDEN and no
while loop, and a refined select_alpha is at most three _score_alphas
batches, the coarse grid and one round each at k/200 and k/1000.
There is one way into a fit, estimator._fit_rows: it alone checks the
sample and builds the starts, so a family's start takes no alpha and
the margin a start's shape keeps above its floor is written once, there.
Each CLI subcommand declares its handler, with no dispatch table, and
asymptotics imports nothing from estimator: the weights f^alpha, 1 at
alpha = 0, are families.dpd_weights, which influence_function calls.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import dpdfit
from dpdfit import estimator, numerics, selection, tuning
from dpdfit.cli import parse_args
from dpdfit.tuning import _score_alphas

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


def test_only_cli_touches_the_allocator():
    """The allocator is the process's: only the dpdfit command sets its
    policy, so no library module imports ctypes."""
    found = [p.name for p in MODULES if any(n.split(".")[0] == "ctypes" for n in _imports(_tree(p)))]
    assert found == ["cli.py"]


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
    """A Family's fields are pinned: no reparameterisation, and ln f has
    one entry, its terms."""
    assert [f.name for f in dataclasses.fields(dpdfit.Family)] == [
        "tag", "param_count", "param_names", "shaped",
        "cdf", "ppf", "terms", "tilted", "start", "at_zero",
    ]


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


def test_one_step_starts_for_leave_one_out_and_bootstrap():
    """The starts are _solve_rows' own: no module names _one_step_starts,
    and the leave-one-out rows and the bootstrap replicates are each one
    _solve_rows call."""
    assert not [p.name for p in MODULES if "_one_step_starts" in p.read_text(encoding="utf-8")]
    assert not hasattr(estimator, "_one_step_starts")
    found = sorted(
        (p.name, func)
        for p in MODULES
        if p.name != "estimator.py"
        for func in _calls_ending(_tree(p), "_solve_rows")
    )
    assert found == [("tuning.py", "_loo_points"), ("uncertainty.py", "bootstrap_se")]


def _function(path, name):
    (node,) = [
        node
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return node


def test_reweighted_rows_are_counts_over_the_sample():
    """Every refit weights the sample by rows of counts over a total and
    starts off the fits: no callable is passed to _solve_rows, whose
    starts take one kernel call and one einsum over all count rows, in
    no loop, and no default; the rows' layout is _solve_rows' own, so
    neither tuning.py nor uncertainty.py compacts a support."""
    assert list(inspect.signature(estimator._solve_rows).parameters) == [
        "family", "alphas", "xs", "counts", "total", "fits"
    ]
    assert not [p.name for p in MODULES if "weights_of" in _names(_tree(p))]
    for path in MODULES:
        tree = _tree(path)
        local = _defined(path)
        for node, _ in _calls(tree):
            if ast.unparse(node.func).endswith("_solve_rows"):
                args = [*node.args, *(kw.value for kw in node.keywords)]
                assert not [a for a in args if isinstance(a, ast.Lambda)], path.name
                assert not {a.id for a in args if isinstance(a, ast.Name)} & local, path.name
    solve = _function(PACKAGE / "estimator.py", "_solve_rows")
    assert _calls_to(solve, "_weighted_terms") == ["_solve_rows"]
    assert _calls_to(solve, "np.einsum") == ["_solve_rows"]
    loops = [node for node in ast.walk(solve) if isinstance(node, (ast.For, ast.While))]
    assert loops and not [loop for loop in loops if "einsum" in _names(loop)]
    params = inspect.signature(estimator._solve_rows).parameters.values()
    assert [p.default for p in params] == [inspect.Parameter.empty] * len(params)
    for name in ("tuning.py", "uncertainty.py"):
        tree = _tree(PACKAGE / name)
        assert _calls_ending(tree, "argsort") == _calls_ending(tree, "take_along_axis") == []


def test_estimator_takes_no_blas_product():
    """A BLAS product's rows move with the batch's shape; the kernel and
    the one-step starts reduce each row by itself, so estimator.py has
    no @, matmul or dot."""
    tree = _tree(PACKAGE / "estimator.py")
    ops = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.MatMult)]
    assert ops == []
    assert not {"matmul", "dot"} & _names(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_catch_warnings(path):
    assert "catch_warnings" not in _names(_tree(path))


def test_selection_uses_nothing_private_from_tuning():
    """selection.py imports nothing from tuning at all."""
    tree = _tree(PACKAGE / "selection.py")
    assert not {"tuning", "dpdfit.tuning"} & _imports(tree)
    assert "tuning" not in _names(tree)


def test_searches_fit_through_fit_alphas():
    found = [
        (p.name, func)
        for p in MODULES
        if p.name != "estimator.py"
        for func in _calls_ending(_tree(p), "fit_alphas")
    ]
    assert found == [("tuning.py", "_score_alphas")]
    tree = _tree(PACKAGE / "tuning.py")
    assert _calls_to(tree, "fit") == _calls_ending(tree, ".fit") == []
    assert "fit" not in _names(tree)


def test_selection_ranks_at_one_alpha():
    tree = _tree(PACKAGE / "selection.py")
    assert not {"COARSE_GRID", "_score_alphas", "fit_alphas"} & _names(tree)
    assert not hasattr(parse_args(["select", "--input", "series.csv"]), "fast")


def test_alpha_refined_by_grid_rounds(monkeypatch):
    """A refined tune is the coarse grid and two finer lattice rounds, one
    _score_alphas batch each, with no golden-section search."""
    tree = _tree(PACKAGE / "tuning.py")
    assert "_GOLDEN" not in _names(tree)
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.While)]
    batches = []

    def counting(family, alphas, xs):
        batches.append(tuple(alphas))
        return _score_alphas(family, alphas, xs)

    monkeypatch.setattr(tuning, "_score_alphas", counting)
    dpdfit.select_alpha(dpdfit.GAMMA, dpdfit.sample_family(dpdfit.GAMMA, (5.0, 0.05), 40, 4))
    assert batches[0] == dpdfit.COARSE_GRID
    assert len(batches) <= 1 + 2


def test_selection_imports_only_fit_from_estimator():
    tree = _tree(PACKAGE / "selection.py")
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("estimator", "dpdfit.estimator")
        for alias in node.names
    ]
    assert imported == ["fit"]
    assert "estimator" not in _names(tree)


def test_alpha_batch_scorer_is_tunings_own():
    """The one scorer of an alpha batch is the CVM distance's, private to
    tuning: no alpha_search, no public score_alphas and no score callback,
    and selection has no batch RIC."""
    gone = {"_rics", "alpha_search", "score_alphas", "_cvm_scores"}
    assert not [p.name for p in MODULES if gone & _names(_tree(p))]
    assert not [name for name in gone if hasattr(tuning, name) or hasattr(selection, name)]
    assert list(inspect.signature(_score_alphas).parameters) == ["family", "alphas", "xs"]


def _calls_ending(tree, suffix):
    """Enclosing function of every call whose callee is spelled ...suffix."""
    return [func for node, func in _calls(tree) if ast.unparse(node.func).endswith(suffix)]


def _tilted_calls():
    return sorted((p.name, func) for p in MODULES for func in _calls_ending(_tree(p), ".tilted"))


def test_moments_reached_only_through_the_rows_form():
    tree = _tree(PACKAGE / "asymptotics.py")
    assert "weighted_moments" not in _names(tree)
    assert _calls_ending(tree, ".tilted") == []
    assert sorted(_calls_to(tree, "_moment_rows")) == [
        "_sandwich_rows", "_sandwich_rows", "influence_function"
    ]
    assert sorted(_calls_to(tree, "_sandwich_rows")) == ["are", "sandwich"]
    assert _tilted_calls() == [("estimator.py", "_weighted_terms"), ("families.py", "_moment_rows")]


def test_selection_scores_a_family_with_one_fit_and_one_sandwich(monkeypatch):
    tree = _tree(PACKAGE / "selection.py")
    assert "_sandwich_rows" not in _names(tree)
    assert _calls_to(tree, "fit") == _calls_to(tree, "sandwich") == ["ric", "select_model"]
    assert _calls_to(tree, "_criterion") == ["ric", "select_model"]
    calls = []

    def counting(func):
        def wrapped(family, *args):
            calls.append((func.__name__, family.tag))
            return func(family, *args)
        return wrapped

    monkeypatch.setattr(selection, "fit", counting(selection.fit))
    monkeypatch.setattr(selection, "sandwich", counting(selection.sandwich))
    families = list(dpdfit.FAMILIES.values())
    sample = dpdfit.sample_family(dpdfit.GAMMA, (5.0, 1.0), 60, 2)
    dpdfit.select_model(families, sample)
    assert calls == [(name, f.tag) for f in families for name in ("fit", "sandwich")]


def _defined(path):
    return {node.name for node in ast.walk(_tree(path)) if isinstance(node, ast.FunctionDef)}


def test_divergence_reduced_once():
    """Each family states its tilted law f^(1+c)/M once, in one tilted
    entry with no separate mass or moments function, and only the Newton
    kernel, which alone reduces H, and _moment_rows ask for it."""
    gone = {"_divergence_terms", "_divergence", "_h_rows"}
    assert not [p.name for p in MODULES if gone & _names(_tree(p))]
    assert not [p.name for p in MODULES if gone & _defined(p)]
    assert "v_alpha" not in _defined(PACKAGE / "families.py")
    assert dpdfit.v_alpha is estimator.v_alpha
    assert not [
        name
        for name in _defined(PACKAGE / "families.py")
        if name.startswith("_") and name.endswith(("_mass", "_moments"))
    ]
    assert _tilted_calls() == [("estimator.py", "_weighted_terms"), ("families.py", "_moment_rows")]


def test_mass_scales_the_moments_in_one_place():
    """A tilted entry gives moments under f^(1+c)/M and never multiplies
    by M: _moment_rows and the Newton kernel alone turn them into
    integrals."""
    found = sorted((p.name, func) for p in MODULES for func in _calls_ending(_tree(p), "_times"))
    assert found == [
        ("estimator.py", "_weighted_terms"), ("families.py", "_moment_rows"),
        ("families.py", "_moment_rows"),
    ]


def test_information_matrix_inverted_once():
    assert [p.name for p in MODULES if "linalg.solve" in p.read_text(encoding="utf-8")] == []
    assert _calls_ending(_tree(PACKAGE / "asymptotics.py"), "_invert_spd_rows") == [
        "_sandwich_rows", "influence_function"
    ]


def test_alpha_terms_have_one_form():
    """The terms of alpha alone are numpy arrays, one entry per point,
    with no table of math functions to take them entry by entry, no
    second form of ln f, no |u| bound guarding the alpha u u' sums and
    no all-alpha = 0 flag: alpha = 0 rows take one path, the masks. The
    kernel builds them from its rows' alphas, so they have no rows
    method to select from them."""
    gone = {"_each", "_ALPHA_FNS", "logf", "_weibull_parts", "_U_BOUND", "all_zero"}
    assert not [p.name for p in MODULES if gone & _names(_tree(p))]
    assert not [
        name for name in gone if hasattr(dpdfit.families, name) or hasattr(estimator, name)
    ]
    assert dpdfit.families._AlphaTerms.__slots__ == (
        "alpha", "col", "zero", "k", "lift", "log1p", "any_zero"
    )
    assert not hasattr(dpdfit.families._AlphaTerms, "rows")
    assert list(inspect.signature(estimator._weighted_terms).parameters)[1] == "alphas"


def test_one_test_of_a_candidate_point():
    """families._inside is the one test of a candidate point: only the
    Newton trial (_newton_rows) and the one-step starts (_solve_rows)
    call it, and estimator.py
    compares nothing against a shape floor; its one _shape_floor call is
    the start margin in _fit_rows."""
    calls = sorted((p.name, func) for p in MODULES for func in _calls_to(_tree(p), "_inside"))
    assert calls == [("estimator.py", "_newton_rows"), ("estimator.py", "_solve_rows")]
    tree = _tree(PACKAGE / "estimator.py")
    assert _calls_to(tree, "_shape_floor") == ["_fit_rows"]
    compared = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and "_shape_floor" in _names(node)
    ]
    assert compared == []


def test_shared_cli_flags_defined_once():
    text = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert [text.count(f'"{flag}"') for flag in ("--fast", "--theta", "--alpha")] == [1, 1, 1]


def _shape_margins(tree):
    """Enclosing function of every _shape_floor(...) + margin."""
    enclosing = {id(node): func for node, func in _calls(tree)}
    return [
        enclosing[id(node.left)]
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.left, ast.Call)
        and ast.unparse(node.left.func) == "_shape_floor"
    ]


def test_family_starts_take_no_alpha():
    for family in dpdfit.FAMILIES.values():
        assert len(inspect.signature(family.start).parameters) == 1, family.tag
    tree = _tree(PACKAGE / "families.py")
    starts = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_start")
    ]
    assert len(starts) == 4
    assert not [node.name for node in starts if "_shape_floor" in _names(node)]


def test_start_margin_written_once_in_fit_rows():
    found = [(p.name, func) for p in MODULES for func in _shape_margins(_tree(p))]
    assert found == [("estimator.py", "_fit_rows")]


def test_one_way_into_a_fit():
    gone = {"_checked_values", "_HANDLERS"}
    assert not [p.name for p in MODULES if gone & _names(_tree(p))]


def test_asymptotics_imports_nothing_from_estimator():
    tree = _tree(PACKAGE / "asymptotics.py")
    assert not {"estimator", "dpdfit.estimator"} & _imports(tree)
    assert "estimator" not in _names(tree)


def test_weight_rule_stated_once_outside_the_kernel():
    """f^alpha, 1 at alpha = 0, is families.dpd_weights outside the
    kernel: influence_function takes its weights there and its scores
    from score, with no terms call of its own."""
    assert dpdfit.dpd_weights is dpdfit.families.dpd_weights
    tree = _tree(PACKAGE / "asymptotics.py")
    assert _calls_to(tree, "dpd_weights") == _calls_to(tree, "score") == ["influence_function"]
    assert _calls_ending(tree, ".terms") == []
