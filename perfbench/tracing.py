"""Runtime spans around the calls into each ``gmalg`` module.

Nothing in ``gmalg`` is edited: ``Tracer.install`` rebinds names at the
places they are looked up.  Every public module-level function of the
traced modules is wrapped in every ``gmalg`` namespace that holds it (so
``cli``'s by-name imports of ``validate_context`` and ``build_gma`` and
``maps``'s import of ``iter_vectors`` are covered), plus the few methods
that the per-layer metrics name.  ``rings`` and ``report`` get no spans:
they run once per scalar, and wrapping them would swamp the timing; their
cost stays in their callers' self time.

A span is (id, parent id, request, name, layer, engine, start, end), kept in
memory and written out by ``dump``.  Work done in ``GMALG_WORKERS`` worker
processes is not traced; it would show as ``cli`` self time (waiting).
"""

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "jsonio", "families", "morita", "algebra", "maps",
          "derivations", "linalg", "oracle")

# class methods traced in addition to the module-level functions
METHODS = {
    "algebra": {"Algebra": ("center", "engel_center", "structure_violations")},
    "morita": {"GMAlgebra": ("gma_center", "center_projections",
                             "phi_apply", "phi_inv_apply")},
}

# generator factories: counted per looking-up module, not timed (their
# items are consumed, and paid for, by the caller)
POINT_SOURCES = {
    ("algebra", "iter_vectors"): ("algebra", "maps"),
    ("oracle", "enumerate_elements"): ("oracle",),
}


def engine_of(ring):
    """Elimination engine used for a ring: mod-p numpy, Fraction or Smith."""
    if getattr(ring, "kind", None) == "Zmod":
        return "modp" if ring.is_field else "smith"
    return "fraction"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _call(self, name, layer, engine, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.request, name, layer, engine, t0, t1)

    def _wrap(self, fn, layer, name):
        tracer = self
        params = list(inspect.signature(fn).parameters)
        ring_first = bool(params) and params[0] == "ring"
        fixed_engine = "smith" if name == "linalg.smith_form" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            engine = fixed_engine or (engine_of(args[0]) if ring_first and args else None)
            out = tracer._call(name, layer, engine, fn, args, kwargs)
            tracer._after(name, args, out)
            return out

        return wrapper

    def _after(self, name, args, out):
        if name == "jsonio.dumps":
            self.counts["jsonio.bytes"] += len(out.encode())
        elif name == "jsonio.load_file":
            self.counts["jsonio.bytes"] += os.path.getsize(args[0])
        elif name == "maps.is_k_commuting":
            self.counts["maps.is_k_commuting_calls"] += 1

    def _counting(self, fn, counter):
        tracer = self

        def items(iterable):
            for item in iterable:
                tracer.counts[counter] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return items(fn(*args, **kwargs))  # fn's own errors stay eager

        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, gm):
        """Wrap the traced names of the ``gmalg`` namespace ``gm`` (an object
        with one attribute per module, as ``run`` builds it)."""
        modules = {name: getattr(gm, name) for name in LAYERS}
        namespaces = [m for m in vars(gm).values() if inspect.ismodule(m)]
        originals = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    originals[fn] = (layer, attr)
        for ns in namespaces:
            site = ns.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(ns).items()):
                if not inspect.isfunction(fn) or fn not in originals:
                    continue
                layer, name = originals[fn]
                sites = POINT_SOURCES.get((layer, name))
                if sites is not None:
                    if site in sites:
                        self._set(ns, attr, self._counting(fn, f"{site}.points"))
                    continue
                wrapped = self._wrap(fn, layer, f"{layer}.{name}")
                if (layer, name) == ("linalg", "kernel_builder"):
                    wrapped = self._proxying(wrapped)
                self._set(ns, attr, wrapped)
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    self._set(cls, meth, self._wrap(
                        cls.__dict__[meth], layer, f"{layer}.{cls_name}.{meth}"))

    def _proxying(self, kernel_builder):
        tracer = self

        @functools.wraps(kernel_builder)
        def wrapper(ring, ncols):
            return _TimedAccumulator(kernel_builder(ring, ncols), engine_of(ring), tracer)

        return wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, parent, req, name, layer, engine, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": req, "name": name,
                    "layer": layer, "engine": engine, "start": t0, "end": t1,
                }) + "\n")


class _TimedAccumulator:
    """Times the elimination calls of an accumulator from
    ``linalg.kernel_builder`` and counts rows fed and rank returned."""

    def __init__(self, acc, engine, tracer):
        self._acc = acc
        self._engine = engine
        self._tracer = tracer
        self._ranked = False

    def __getattr__(self, attr):
        return getattr(self._acc, attr)

    def _timed(self, meth, *args):
        return self._tracer._call(
            f"linalg.accumulator.{meth}", "linalg", self._engine,
            getattr(self._acc, meth), args, {})

    def _rank(self, value):
        if not self._ranked:
            self._ranked = True
            self._tracer.counts["linalg.rank_out"] += value

    def add_rows(self, block):
        self._tracer.counts["linalg.rows_in"] += len(block)
        return self._timed("add_rows", block)

    def nullspace(self):
        out = self._timed("nullspace")
        self._rank(self._acc.ncols - len(out))
        return out

    def basis(self):
        out = self._timed("basis")
        self._rank(len(out))
        return out


# -- per-layer metrics ------------------------------------------------------

TIMED = {  # metric -> span names; a span nested in another of the set counts once
    "maps.commuting_space_s": {"maps.commuting_space"},
    "maps.is_k_commuting_s": {"maps.is_k_commuting"},
    "maps.verify_s": {"maps.verify_structure_conditions", "maps.verify_proper_form_steps"},
    "maps.hypotheses_s": {"maps.check_properness_hypotheses"},
    "maps.proper_form_s": {"maps.construct_proper_form"},
    "maps.certificate_s": {"maps.properness_certificate"},
    "algebra.engel_center_s": {"algebra.Algebra.engel_center"},
    "morita.validate_s": {"morita.validate_context"},
    "morita.build_s": {"morita.build_gma"},
    "morita.center_s": {"morita.GMAlgebra.gma_center", "morita.GMAlgebra.center_projections",
                        "morita.GMAlgebra.phi_apply", "morita.GMAlgebra.phi_inv_apply",
                        "morita.center_iso_phi"},
}
COUNTS = ("maps.points", "maps.is_k_commuting_calls", "algebra.points", "oracle.points",
          "linalg.rows_in", "linalg.rank_out", "jsonio.bytes")


def layer_metrics(spans, counts, keep):
    """Totals over the spans whose request satisfies ``keep``: self time per
    layer, inclusive time of the named functions, elimination time per
    engine (outermost ``linalg`` spans), and the counters."""
    spans = [s for s in spans if keep(s[2])]
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1] in by_id:
            child_time[s[1]] += s[7] - s[6]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for key in list(TIMED) + ["linalg.modp_s", "linalg.fraction_s", "linalg.smith_s"]:
        out[key] = 0.0

    def has_ancestor(s, test):
        parent = by_id.get(s[1])
        while parent is not None:
            if test(parent):
                return True
            parent = by_id.get(parent[1])
        return False

    for s in spans:
        sid, _, _, name, layer, engine, t0, t1 = s
        out[f"{layer}.self_s"] += (t1 - t0) - child_time[sid]
        if layer == "linalg" and engine and not has_ancestor(s, lambda p: p[4] == "linalg"):
            out[f"linalg.{engine}_s"] += t1 - t0
        for metric, names in TIMED.items():
            if name in names and not has_ancestor(s, lambda p: p[3] in names):
                out[metric] += t1 - t0
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    return out
