"""Import hygiene of the package source, and pencils that stay as built, by
an AST scan of src/adae; the one real/complex rule, by wrapping the LAPACK
entry points during real-model commands; and the public code that no CLI
command reaches, by tracing a fixed set of commands."""

import ast
import functools
import importlib
import json
import pathlib
import re
import sys

import numpy as np
import pytest
import scipy.linalg as spla

from adae.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "adae"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(node):
    """The names a module-level import statement binds."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def _exported(tree):
    """Names listed in a literal __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    bad = [f"{path.name}:{inner.lineno}"
           for node in ast.walk(_tree(path))
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           for inner in ast.walk(node)
           if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not bad, f"imports inside functions: {bad}"


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    # __init__.py re-exports what it imports, so it is not scanned
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [f"{path.name}:{node.lineno} {name}"
              for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for name in _imported_names(node) if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_pencil_matrices_never_reassigned():
    # MatrixPencil caches ||E||_2 and ||A||_2, so .E and .A are bound once,
    # in MatrixPencil.__init__, and never again
    bound = []
    for path in MODULES:
        tree = _tree(path)
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(
                           node, (ast.AugAssign, ast.AnnAssign)) else [])
            for target in targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and t.attr in ("E", "A"):
                        bound.append((path.name, t.lineno))
    cls = next(node for node in _tree(SRC / "pencil.py").body
               if isinstance(node, ast.ClassDef) and node.name == "MatrixPencil")
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    outside = [site for site in bound if site[0] != "pencil.py"
               or not init.lineno <= site[1] <= init.end_lineno]
    assert len(bound) == 2 and not outside, bound


def _spectral_call(call):
    """Is `call` a 2-norm (np.linalg.norm(x, 2) or ord=2) or an svd/svdvals
    taken through an attribute (np.linalg.svd, spla.svdvals, ...)?"""
    f = call.func
    if not isinstance(f, ast.Attribute):
        return False
    if f.attr in ("svd", "svdvals"):
        return True
    if f.attr != "norm":
        return False
    ords = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
    return any(isinstance(o, ast.Constant) and o.value == 2 for o in ords)


def test_spectral_norms_and_svds_only_in_numerics():
    # numerics.norm2 / svdvals / svd are the one place that takes them
    bad = []
    for path in MODULES:
        if path.name == "numerics.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and _spectral_call(node):
                bad.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] in ("numpy", "scipy")
                    and {a.name for a in node.names} & {"svd", "svdvals",
                                                       "norm"}):
                bad.append(f"{path.name}:{node.lineno}")
    assert not bad, f"spectral norms or SVDs outside numerics: {bad}"
    # the scan sees the forms it forbids
    calls = [ast.parse(src).body[0].value for src in (
        "np.linalg.norm(x, 2)", "np.linalg.norm(x, ord=2)",
        "spla.svdvals(x)", "np.linalg.svd(x)")]
    assert all(_spectral_call(c) for c in calls)
    assert not _spectral_call(ast.parse("np.linalg.norm(x)").body[0].value)


def test_certified_inverse_only_in_resolvents():
    # every certified inverse is of lam E - A, taken by pencil._resolvents
    # for a stack of lambda (resolvent_at is its one-lambda call); the
    # pseudo-resolvents, the chains and the sweeps negate that one
    def refs(node):
        return [n for n in ast.walk(node)
                if (isinstance(n, ast.Name) and n.id == "_certified_inverse")
                or (isinstance(n, ast.Attribute)
                    and n.attr == "_certified_inverse")]

    everywhere = [(path.name, n.lineno) for path in MODULES
                  for n in refs(_tree(path))]
    resolvents = next(node for node in _tree(SRC / "pencil.py").body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "_resolvents")
    inside = [("pencil.py", n.lineno) for n in refs(resolvents)]
    assert len(inside) == 1 and everywhere == inside, everywhere


def _imports_from(tree, module):
    """The lines of `tree` that import from the sibling `module`."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == module)
            or (isinstance(node, ast.Import)
                and any(a.name.split(".")[-1] == module for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module is None
                and any(a.name == module for a in node.names))]


def test_solver_imports_nothing_from_growth():
    # the solve pipeline needs the probe mu and the Wong chain, both from
    # chains; the growth estimates and certificates are not part of it
    assert _imports_from(_tree(SRC / "solver.py"), "growth") == []
    # the scan sees the three forms of such an import
    for src in ("from .growth import _pick_mu", "import adae.growth",
                "from . import growth"):
        assert _imports_from(ast.parse(src), "growth") == [1]


def _unraised(errors_tree, trees):
    """The subclasses of AdaeError defined in `errors_tree` that no tree in
    `trees` raises or constructs (raise X, X(...), m.X(...))."""
    errors = {node.name for node in errors_tree.body
              if isinstance(node, ast.ClassDef) and node.name != "AdaeError"
              and any(isinstance(b, ast.Name) and b.id == "AdaeError"
                      for b in node.bases)}
    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        target = (node.func if isinstance(node, ast.Call)
                  else node.exc if isinstance(node, ast.Raise) else None)
        used.add(getattr(target, "id", getattr(target, "attr", None)))
    return errors - used


def test_every_error_class_is_raised():
    # the reachability trace below leaves exception classes out, so an
    # error that nothing raises any more is caught here
    assert not _unraised(_tree(SRC / "exceptions.py"),
                         [_tree(p) for p in MODULES
                          if p.name != "exceptions.py"])
    # the scan sees each form of a use, and a class nobody raises
    planted = ast.parse("class AdaeError(Exception): pass\n" + "".join(
        f"class {c}(AdaeError): pass\n" for c in "ABCD"))
    users = ast.parse("raise A\nraise B('x')\nerr = errors.C()\n"
                      "try:\n    pass\nexcept D:\n    pass\n")
    assert _unraised(planted, [users]) == {"D"}


def test_scan_sees_the_package():
    assert {"chains.py", "cli.py", "solver.py"} <= {p.name for p in MODULES}


_LAPACK = [(spla, name) for name in ("inv", "svd", "svdvals", "expm",
                                     "lu_factor", "lu_solve", "eigvalsh",
                                     "ordqz")]
_LAPACK.append((np.linalg, "eigvalsh"))


def _watch_lapack(monkeypatch):
    """Wrap the entry points; returns (calls by name, complex-typed arrays
    with no imaginary part that reached them)."""
    calls, bad = {}, []
    for owner, name in _LAPACK:
        def watched(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            for a in args:
                if (isinstance(a, np.ndarray) and np.iscomplexobj(a)
                        and a.size and not np.any(a.imag)):
                    bad.append((_name, a.shape))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, functools.wraps(
            getattr(owner, name))(watched))
    return calls, bad


def test_real_models_reach_lapack_in_real_arithmetic(tmp_path, monkeypatch):
    # the real/complex decision is made once, where data enters: the
    # heat-wave and RLC pencils are real, so no complex-typed array whose
    # imaginary part is all zero reaches LAPACK, the QZ oracle's included.
    # Real forcing and x0 keep both solve paths real too, and implicit
    # Euler solves with its LU twice, not per step
    calls, bad = _watch_lapack(monkeypatch)
    spla.inv(np.eye(2, dtype=complex))  # the watch sees such an array
    assert bad == [("inv", (2, 2))]
    bad.clear()
    out = str(tmp_path)
    t = np.linspace(0.0, 1.0, 101)
    csv = tmp_path / "forcing.csv"
    csv.write_text("t, f\n" + "".join(
        f"{ti!r}, " + ", ".join([repr(float(np.sin(3 * ti)))] * 18) + "\n"
        for ti in t.tolist()))
    for argv in (["analyze", "--model", "heat-wave", "--m", "10"],
                 ["analyze", "--model", "rlc", "--m", "8"],
                 ["solve", "--model", "rlc", "--m", "8", "--cross-check"],
                 ["solve", "--model", "rlc", "--m", "8", "--x0", str([0.5] * 18),
                  "--forcing-csv", str(csv)],
                 ["demo", "heat-wave", "--m", "6", "--steps", "50"],
                 ["demo", "rlc", "--m", "6", "--steps", "50"],
                 ["demo", "rlc", "--m", "6", "--steps", "50", "--lossless"]):
        solves = calls.get("lu_solve", 0)
        assert main(argv + ["--out", out]) == 0, argv
        assert calls.get("lu_solve", 0) - solves <= 2, argv
    assert not bad, bad
    assert set(calls) == {name for _, name in _LAPACK}, calls


# Public functions and methods that no command of _reach_commands runs, each
# with the reason it stays.  A name that a command starts to reach, or that
# is deleted, has to leave this list too.
_UNREACHED = {
    "chains.RestrictedGenerator.dim": "acceptance criterion 03",
    "chains.build_staircase": "acceptance criterion 04",
    "chains.StaircaseForm.pattern_residual": "acceptance criterion 04",
    "growth.certify_D1": "acceptance criterion 05",
    "io.read_trajectory_csv": "acceptance criterion 12",
    "numerics.qz_canonical": "acceptance criterion 02",
    "pencil.ResolventSample.min_singular": "acceptance criterion 10",
    "pencil.pseudo_resolvent_residual": "acceptance criterion 01",
    "semigroup.degenerate_semigroup": "acceptance criterion 11",
    "semigroup.laplace_consistency": "acceptance criterion 11",
    "semigroup.evaluate": "ROADMAP item 5",
}


def _abstract(fn):
    """Is the body of `fn` (after a docstring) only `raise NotImplementedError`?"""
    body = [s for s in fn.body if not (isinstance(s, ast.Expr)
                                       and isinstance(s.value, ast.Constant))]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and ast.unparse(body[0].exc).startswith("NotImplementedError"))


def _code(obj):
    """The code object of a function, property or cached_property."""
    for attr in ("fget", "func", "__func__"):
        obj = getattr(obj, attr, obj)
    return obj.__code__


def _public_code():
    """{"module.name" or "module.Class.method": code object} for the public
    functions and methods in src/adae.  Private and dunder names, exception
    classes and abstract stubs are left out; the methods a dataclass
    generates have no source here."""
    code = {}
    for path in MODULES:
        mod = importlib.import_module(f"adae.{path.stem}")
        for node in _tree(path).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                code[f"{path.stem}.{node.name}"] = _code(vars(mod)[node.name])
            elif (isinstance(node, ast.ClassDef)
                  and not issubclass(vars(mod)[node.name], BaseException)):
                members = vars(vars(mod)[node.name])
                for fn in node.body:
                    if (isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_")
                            and not _abstract(fn)):
                        code[f"{path.stem}.{node.name}.{fn.name}"] = _code(
                            members[fn.name])
    return code


def _reach_commands(d):
    """Every command, model and forcing kind at small sizes."""
    t = np.linspace(0.0, 1.0, 101)
    (d / "f.csv").write_text("t, f1, f2, f3, f4\n" + "".join(
        f"{ti!r}, " + ", ".join([repr(float(np.sin(3 * ti)))] * 4) + "\n"
        for ti in t.tolist()))
    (d / "f.json").write_text(json.dumps({
        "breakpoints": [0.0, 0.5, 1.0],
        "pieces": [{"rows": 4, "cols": 2, "re": [1.0, 0.5] * 4},
                   {"rows": 4, "cols": 2, "re": [1.25, -1.0] * 4}]}))
    weier = ["--model", "weierstrass", "--index"]
    return ([["analyze", "--model", m, "--m", "6"] for m in ("heat-wave", "rlc")]
            + [["analyze", *weier, str(k)] for k in range(5)]
            + [["generate", *weier, "2"],
               ["analyze", "--input", str(d / "pencil.json")]]
            + [["solve", *weier, str(k), "--cross-check"] for k in range(5)]
            + [["solve", *weier, "2", "--forcing", str(d / "f.json")],
               ["solve", *weier, "2", "--forcing-csv", str(d / "f.csv")]]
            + [["demo", name, "--m", "6", "--steps", "20", *flag]
               for name, flag in (("heat-wave", []), ("rlc", []),
                                  ("rlc", ["--lossless"]))]
            + [["demo", "weierstrass"]])


def test_commands_reach_all_public_code_but_the_allowlist(tmp_path):
    # a name stays unreached only for an acceptance criterion or a ROADMAP
    # item, never as a helper that only tests call
    bad = {name: why for name, why in _UNREACHED.items()
           if not re.fullmatch(r"acceptance criterion \d\d|ROADMAP item \d+",
                               why)}
    assert not bad, f"allowlist reasons that name no criterion or item: {bad}"
    code = _public_code()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    for argv in _reach_commands(tmp_path):
        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            status = main(argv + ["--out", str(tmp_path)])
        finally:
            sys.setprofile(outer)
        assert status == 0, argv
    unreached = {name for name, c in code.items() if c not in seen}
    assert not unreached - set(_UNREACHED), \
        f"public code no command reaches: {sorted(unreached - set(_UNREACHED))}"
    assert not set(_UNREACHED) - unreached, \
        f"allowlisted but reached or gone: {sorted(set(_UNREACHED) - unreached)}"
    # the scan sees methods, properties and functions, and the trace sees them
    assert {"pencil.pseudo_resolvent", "pencil.MatrixPencil.norm_scale",
            "pencil.MatrixPencil.regular", "forcing.SampledForcing.sample",
            "cli.main"} <= set(code) - unreached
    assert "forcing.ForcingSignal.sample" not in code  # abstract
    assert not any(name.startswith("exceptions.") for name in code)
