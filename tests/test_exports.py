import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

MODULES = ["poly", "matrices", "moments", "gibbs", "pressure", "sdsolver"]
ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"orbfree.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _traced_names() -> list[str]:
    """The function or method behind each per-layer metric of the benchmark,
    '<module>.<function>[.<method>]' from '<...>.calls' and '<...>.s'; the
    counters, step times, trace overhead and module self times name none."""
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    names = []
    for metric in metrics:
        stem, _, unit = metric.rpartition(".")
        if unit in ("calls", "s") and not metric.startswith(("step.", "trace.")):
            names.append(stem)
    return sorted(set(names))


def _resolves(name: str) -> bool:
    module, *path = name.split(".")
    mod = importlib.import_module(f"orbfree.{module}")
    owner = vars(mod).get(path[0])
    if owner is None or path[0].startswith("_") or owner.__module__ != mod.__name__:
        return False
    if len(path) == 1:
        return inspect.isfunction(owner)
    if len(path) != 2 or not inspect.isclass(owner):
        return False
    member = vars(owner).get(path[1])
    if isinstance(member, staticmethod):
        member = member.__func__
    public = not path[1].startswith("_") or (path[1].startswith("__") and path[1].endswith("__"))
    return public and inspect.isfunction(member)


def test_benchmark_names_public_functions():
    # a refactor that drops or renames a traced function fails here, not in a traced run
    names = _traced_names()
    assert "gibbs.energy" in names and "poly.QC.__complex__" in names
    assert [name for name in names if not _resolves(name)] == []


def test_tracer_leaves_no_unwrapped_binding():
    # a function the benchmark wraps must not stay reachable through a
    # second binding, e.g. one function object bound on a base class and a
    # subclass; runs in its own process, since installing the tracer wraps
    # orbfree for good, and writes no bytecode into perfbench/
    script = ("import sys\n"
              "sys.path[:0] = sys.argv[1:]\n"
              "from tracer import Tracer\n"
              "tracer = Tracer()\n"
              "tracer.install()\n"
              "print(tracer.unwrapped_bindings())\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench"), str(ROOT / "src")],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_scipy_integrate_out():
    # arcsine moments are closed-form, so the runtime needs no quadrature;
    # a fresh process, since the test session imports scipy.integrate itself
    script = ("import sys\n"
              "sys.path[:0] = sys.argv[1:]\n"
              "import orbfree.cli\n"
              "print('scipy.integrate' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_runs_leave_scipy_out(tmp_path):
    # brentq is ported and eta minimizes by Newton, so no command that
    # samples, quantiles or minimizes loads any part of scipy; a fresh
    # process, since the test session imports scipy itself
    base = {"families": ["semicircle:2", "semicircle:2"], "R": 2.0, "m": 2, "seed": 3,
            "h": "0.05*x[1,1]*x[2,1] + 0.05*x[2,1]*x[1,1]"}
    specs = {
        "eta": {"Ns": [8], "basis_degree": 3, "gibbs": {"samples": 12, "budget": 10}},
        "pressure": {"Ns": [2, 4], "gibbs": {"samples": 10}},
        "freeness": {"Ns": [6], "conjugations": 3},
        "property-suite": {"Ns": [2, 4], "h2": "0.1*x[1,1]^2", "gibbs": {"samples": 10}},
    }
    for command, spec in specs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps({**base, **spec}))
    script = ("import sys\n"
              "src, work = sys.argv[1:]\n"
              "sys.path.insert(0, src)\n"
              "import orbfree.cli\n"
              "for command in ('eta', 'pressure', 'freeness', 'property-suite'):\n"
              "    code = orbfree.cli.main([command, '--spec', f'{work}/{command}.json',\n"
              "                             '--out', f'{work}/{command}'])\n"
              "    assert code == 0, (command, code)\n"
              "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "src"), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "__all__"):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in read]


def test_no_unused_imports():
    files = sorted(f for d in ("src/orbfree", "tests", "scripts") for f in (ROOT / d).rglob("*.py"))
    assert [entry for f in files for entry in _unused_imports(f)] == []


# defaulted parameters that no call in the program sets, kept on purpose
UNSET_OPTIONS_KEPT = {
    "gibbs.log_partition.beta_grid":
        "criterion 4 needs 17 beta points to meet the N = 2 quadrature oracle",
    "pressure.eta_estimate.mismatch_tol":
        "test_pressure.py's golden eta run is pinned at a tolerance of 0.3",
}


def _exported_functions():
    """(qualified name, the name a call uses, the parameters a call binds)
    for every function listed in a module's __all__ and every method
    written in the body of a listed class; dataclass-generated methods are
    not written there.  A call names a method by its attribute, and a
    class's own __init__ by the class."""
    for name in MODULES:
        mod = importlib.import_module(f"orbfree.{name}")
        for export in mod.__all__:
            obj = getattr(mod, export)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{export}", export, list(inspect.signature(obj).parameters.values())
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if not inspect.isfunction(fn) or fn.__code__.co_filename != mod.__file__:
                        continue
                    params = list(inspect.signature(fn).parameters.values())
                    if not isinstance(member, staticmethod):
                        params = params[1:]  # self or cls
                    callee = export if attr == "__init__" else attr
                    yield f"{name}.{export}.{attr}", callee, params


def _program_trees() -> list[tuple[Path, ast.Module]]:
    """The parsed files of the program and the benchmark."""
    files = sorted(f for d in ("src/orbfree", "perfbench") for f in (ROOT / d).rglob("*.py"))
    return [(f, ast.parse(f.read_text())) for f in files]


def _program_calls() -> dict[str, list[ast.Call]]:
    """Every call in the program and the benchmark, keyed by the name it
    calls: the bare name, or the attribute after the last dot."""
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _dotted(node) -> str | None:
    """'a.b.c' for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _function_calls() -> set[str]:
    """The calls in the program and the benchmark that can reach a
    module-level function: 'f' for a bare f(...), and 'orbfree.<module>.f'
    for m.f(...) where m is a name the file binds to that module, by
    `import orbfree.<module> [as m]`, `from orbfree import <module> [as m]`
    or its relative form in the package.  Likewise C.m(...), C a name bound
    by `from orbfree.<module> import C`, gives 'orbfree.<module>.C.m'."""
    calls = set()
    for path, tree in _program_trees():
        package = "orbfree" if path.parent.name == "orbfree" else None
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    head = a.name.split(".")[0]
                    aliases[a.asname or head] = a.name if a.asname else head
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, (package if node.level else None, node.module)))
                for a in node.names:
                    aliases[a.asname or a.name] = f"{base}.{a.name}"
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                calls.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                owner = _dotted(node.func.value)
                if owner:
                    head, _, rest = owner.partition(".")
                    if head in aliases:
                        calls.add(".".join(filter(None, (aliases[head], rest, node.func.attr))))
    return calls


def _bound(call: ast.Call, params) -> set[str]:
    """The parameters a call sets: those its positional arguments fill and
    those it names; a call with * or ** may set any of them."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return {p.name for p in params}
    positional = [p.name for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return set(positional[:len(call.args)]) | {k.arg for k in call.keywords}


def test_every_exported_option_is_set_by_the_program():
    # a defaulted parameter that only tests set doubles the configurations
    # the tests cover for no caller of the program
    calls = _program_calls()
    unset = []
    for qualname, callee, params in _exported_functions():
        bound = set().union(*(_bound(c, params) for c in calls.get(callee, [])))
        unset += [f"{qualname}.{p.name}" for p in params
                  if p.default is not p.empty and p.name not in bound]
    assert sorted(unset) == sorted(UNSET_OPTIONS_KEPT)


# exported functions that no call in the program makes, kept on purpose
UNCALLED_FUNCTIONS_KEPT = {
    "matrices.MatrixTuple.conjugated":
        "criterion 5 conjugates tuples by Haar unitaries, and the Gibbs tests check "
        "orbital states against it",
    "matrices.spectral_clip": "a test fixture: it clips GUE draws into the cutoff",
    "matrices.evaluate": "the matrix reference for polynomial evaluation; item 5 may use it",
    "matrices.trace_word": "the complex-arithmetic reference for one word's trace",
    "matrices.trace_evaluate":
        "the complex-arithmetic reference for scoring polynomials; BENCHMARK.json names it",
    "matrices.double_trace_evaluate":
        "the complex-arithmetic reference for scoring tensor polynomials",
    "moments.MomentTable.check_invariants": "asserted by a test",
    "moments.free_cumulants": "the reference for free_product; item 3 may use it",
    "moments.moments_from_cumulants": "the reference for free_product; item 3 may use it",
    "matrices.MatrixTuple.to_json":
        "writes the matrix-file format that the CLI reads through MatrixTuple.from_json; "
        "the CLI tests build their family files with it",
    "gibbs.step": "BENCHMARK.json names it, so it goes with the next change to the benchmark",
    "pressure.penalty_poly": "serves acceptance criterion 10",
    "sdsolver.free_haar_state": "serves acceptance criterion 7",
}


def test_every_exported_function_is_called_by_the_program():
    # an exported function only tests reach is code kept for the tests alone;
    # operator dunders are called by syntax, and a class's __init__ by its
    # name.  A method counts as called through any attribute of its name; a
    # module-level function only as f(...) or <module alias>.f(...), since a
    # method of the same name would hide it otherwise.  A method name that
    # two exported classes share counts only as <class alias>.method(...),
    # since a call through an instance would credit both
    calls = _program_calls()
    functions = _function_calls()
    exported = list(_exported_functions())
    methods = Counter(callee for qualname, callee, _ in exported if qualname.count(".") == 2)
    uncalled = []
    for qualname, callee, _ in exported:
        if callee.startswith("__") and callee.endswith("__"):
            continue
        module, *path = qualname.split(".")
        if len(path) == 1 and inspect.isfunction(getattr(importlib.import_module(
                f"orbfree.{module}"), callee)):
            called = callee in functions or f"orbfree.{qualname}" in functions
        elif methods[callee] > 1:
            called = f"orbfree.{qualname}" in functions
        else:
            called = callee in calls
        if not called:
            uncalled.append(qualname)
    assert sorted(uncalled) == sorted(UNCALLED_FUNCTIONS_KEPT)


def _exp_log_callers(path: Path) -> list[str]:
    """'<qualified function>:<line> <call>' for every call of np.exp, np.log,
    math.exp or math.log in the file, by the function it sits in
    ('<module>' outside any)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                name = _dotted(child.func)
                if name in ("np.exp", "np.log", "math.exp", "math.log"):
                    found.append(f"{owner}:{child.lineno} {name}")
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_one_log_mean_exp_in_pressure():
    # every sample-set estimate, eta included, goes through one log-mean-exp
    callers = _exp_log_callers(ROOT / "src" / "orbfree" / "pressure.py")
    assert callers and [c for c in callers if not c.startswith("_log_mean_exp:")] == []
