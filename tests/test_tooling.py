"""Names that other code reaches by name: the package exports, and the
functions and methods the benchmark's tracer (perfbench/tracing.py) wraps
and times by name.  Deleting or renaming one must fail here first."""

import importlib.util
import inspect
import pathlib

import gmalg

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
              "linalg.kernel_builder", "linalg.smith_form"}
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
