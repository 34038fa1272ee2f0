"""Names that other code reaches by name: the package exports, and the
functions and methods the benchmark's tracer (perfbench/tracing.py) wraps
and times by name.  Deleting or renaming one must fail here first.  And
the scalar representation stays owned by ``rings``, whose rings do no
arithmetic of their own."""

import ast
import importlib.util
import inspect
import pathlib

import gmalg
from gmalg.rings import Rationals, Zmod

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(dotted):
    """'maps.is_k_commuting' or 'morita.GMAlgebra.phi_apply' in gmalg."""
    obj = importlib.import_module(f"gmalg.{dotted.split('.')[0]}")
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def test_every_exported_name_resolves():
    for name in gmalg.__all__:
        assert getattr(gmalg, name, None) is not None, name


def test_names_the_tracer_times_exist():
    tracing = _tracing()
    names = set().union(*tracing.TIMED.values())
    names |= {"jsonio.dumps", "jsonio.load_file", "maps.is_k_commuting",
              "linalg.kernel_builder"}
    # the tracer tags composite Z/n elimination "smith" by its ring, so its
    # linalg.smith_s metric times the Howell form there
    assert tracing.engine_of(Zmod(4)) == "smith"
    for name in sorted(names):
        obj = _resolve(name)
        assert inspect.isfunction(obj), name
    for layer, classes in tracing.METHODS.items():
        for cls_name, methods in classes.items():
            cls = _resolve(f"{layer}.{cls_name}")
            for meth in methods:
                assert inspect.isfunction(cls.__dict__.get(meth)), (cls_name, meth)
    for layer in tracing.LAYERS:
        importlib.import_module(f"gmalg.{layer}")


def test_point_sources_are_looked_up_where_counted():
    tracing = _tracing()
    for (layer, name), sites in tracing.POINT_SOURCES.items():
        fn = _resolve(f"{layer}.{name}")
        for site in sites:
            assert getattr(importlib.import_module(f"gmalg.{site}"), name) is fn


def test_only_rings_makes_fractions_or_divides():
    """A Q scalar is an int when it is integral (see ``rings.Rationals``).
    A Fraction made elsewhere could be integral, and ``/`` on two ints is a
    float, so only ``rings`` imports or names ``Fraction`` and divides;
    everything else divides with ``inv_opt``."""
    found = []
    for path in sorted((ROOT / "src" / "gmalg").glob("*.py")):
        if path.name == "rings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                bad = any(a.name == "fractions" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = node.module == "fractions"
            elif isinstance(node, (ast.Name, ast.Attribute)):
                bad = getattr(node, "id", getattr(node, "attr", None)) == "Fraction"
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                bad = isinstance(node.op, ast.Div)
            else:
                bad = False
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


_ARITHMETIC = {"add", "sub", "mul", "neg"}


def _is_ring(node):
    """A name ``ring``, ``rg`` or ``R``, or an attribute ``*.ring``."""
    return (isinstance(node, ast.Name) and node.id in ("ring", "rg", "R")
            or isinstance(node, ast.Attribute) and node.attr == "ring")


def test_rings_do_no_arithmetic():
    """Arithmetic is Python's, and ``ring.normal`` is the way back to normal
    form: no ring defines ``add``, ``sub``, ``mul`` or ``neg``, and no code
    in ``gmalg`` reaches for one, so a path no test exercises cannot keep
    calling a deleted method."""
    for cls in (Zmod, Rationals):
        assert _ARITHMETIC.isdisjoint(vars(cls)), cls
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "gmalg").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in _ARITHMETIC
        and _is_ring(node.value)
    ]
    assert found == []


_ELIMINATING = {"certified_kernel", "howell_form"}


def test_one_elimination_routine():
    """Every kernel and every solve in ``gmalg`` is a
    ``linalg.certified_kernel`` call or is read off a ``linalg.howell_form``
    (a ``Submodule``'s annihilator): only these two name
    ``kernel_builder`` (the accumulator the tracer proxies), no module
    defines a ``nullspace`` of its own, and every ``solve_linear`` call
    passes its four arguments, dict rows over a stated ``ncols``."""
    found = []
    for path in sorted((ROOT / "src" / "gmalg").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = f"{path.name}:{top.lineno}"
            if isinstance(top, ast.FunctionDef) and top.name == "nullspace":
                found.append(f"{where} defines nullspace")
            owner = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                name = getattr(node, "id", getattr(node, "attr", None))
                if (isinstance(node, (ast.Name, ast.Attribute)) and name == "kernel_builder"
                        and owner not in {("linalg.py", f) for f in _ELIMINATING}):
                    found.append(f"{path.name}:{node.lineno} names kernel_builder")
                if isinstance(node, ast.Call):
                    fn = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if fn == "solve_linear" and (
                            len(node.args) + len(node.keywords) != 4
                            or any(isinstance(a, ast.Starred) for a in node.args)):
                        found.append(f"{path.name}:{node.lineno} solve_linear call")
    assert found == []
