"""Per-layer tracing for the benchmark's traced run, installed from outside the package.

``install`` wraps every function defined in the six layer modules, and the
public methods, properties and arithmetic operators of their classes.
Functions are replaced in every ``smonkit.*`` namespace that holds them,
because ``bqa`` and ``layered`` import ``null_space``, ``solve`` and others
by name; methods are replaced on the class.  Nothing is recorded until
``Tracer.begin_op`` opens an operation, so set-up and output checks stay
out of the numbers.

A wrapped call is a span.  A layer's self-time is the duration of its spans
minus the time covered by child spans, where a child span is any wrapped
call made while the span is open, in the same layer or another.  Counts are
taken at the same boundaries.  A span that enters a layer from another one
is kept in memory, and written out by ``write_spans``, when it is at most
``SPAN_CROSSINGS`` layer crossings below its operation and fewer than
``SPAN_LIMIT`` spans were kept before it; other spans are only aggregated,
which keeps the memory of a traced headline run small.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("exactla", "quiver", "bqa", "layered", "formats", "harness")
OPERATORS = ("__init__", "__add__", "__sub__", "__neg__", "__matmul__")
SPAN_CROSSINGS = 2
SPAN_LIMIT = 50_000

RREF_FAMILY = frozenset(
    {
        "exactla.FpMatrix.rref",
        "exactla.FpMatrix.rank",
        "exactla.null_space",
        "exactla.column_space",
        "exactla.solve",
        "exactla.solve_many",
    }
)

COUNTS = (
    "exactla.rref_calls",
    "exactla.rref_cells",
    "exactla.matrices_built",
    "quiver.calls",
    "bqa.covers",
    "bqa.resolve_steps",
    "bqa.certs",
    "bqa.hom_spaces",
    "layered.covers",
    "layered.resolve_steps",
    "layered.certs",
    "layered.hom_spaces",
    "formats.bytes_parsed",
    "formats.bytes_written",
    "harness.instances",
)


def _rref_cells(args) -> int:
    """Rows x cols of the matrix eliminated; a solve eliminates the augmented matrix."""
    m = args[0]
    if len(args) == 1:
        return m.rows * m.cols
    shape = np.shape(args[1])
    return m.rows * (m.cols + (shape[1] if len(shape) == 2 else 1))


def _count_rref(tracer, parent, args, kwargs, result):
    # a nested call inside the family (rank -> rref, solve -> solve_many) is one elimination
    if parent not in RREF_FAMILY:
        tracer.counts["exactla.rref_calls"] += 1
        tracer.counts["exactla.rref_cells"] += _rref_cells(args)


def _counter(name):
    def hook(tracer, parent, args, kwargs, result):
        tracer.counts[name] += 1

    return hook


def _count_resolution(name):
    def hook(tracer, parent, args, kwargs, result):
        tracer.counts[name] += len(result.diffs)

    return hook


def _module_key(m) -> tuple:
    alg = m.algebra
    mats = tuple((name, mat.data.shape, mat.data.tobytes()) for name, mat in sorted(m.mats.items()))
    return (alg.p, repr(alg.quiver), repr(alg.ideal), m.dims, mats)


def _count_cert(tracer, parent, args, kwargs, result):
    tracer.counts["bqa.certs"] += 1
    bound = args[1] if len(args) > 1 else kwargs["bound"]
    tracer.cert_keys.add((_module_key(args[0]), bound))


def _count_parsed(tracer, parent, args, kwargs, result):
    tracer.counts["formats.bytes_parsed"] += len(args[0].encode())


def _count_written(tracer, parent, args, kwargs, result):
    tracer.counts["formats.bytes_written"] += len(result.encode())


def _count_instances(tracer, parent, args, kwargs, result):
    tracer.counts["harness.instances"] += len(result.records)


HOOKS = {name: _count_rref for name in RREF_FAMILY}
HOOKS.update(
    {
        "exactla.FpMatrix.__init__": _counter("exactla.matrices_built"),
        "bqa.projective_cover": _counter("bqa.covers"),
        "bqa.resolve": _count_resolution("bqa.resolve_steps"),
        "bqa.semi_gp_cert": _count_cert,
        "bqa.gp_cert": _count_cert,
        "bqa.hom_space": _counter("bqa.hom_spaces"),
        "layered.layered_projective_cover": _counter("layered.covers"),
        "layered.layered_resolve": _count_resolution("layered.resolve_steps"),
        "layered.layered_semi_gp_cert": _counter("layered.certs"),
        "layered.layered_gp_cert": _counter("layered.certs"),
        "layered.layered_hom_space": _counter("layered.hom_spaces"),
        "formats.parse_algebra": _count_parsed,
        "formats.parse_module": _count_parsed,
        "formats.parse_layered": _count_parsed,
        "formats.serialize_algebra": _count_written,
        "formats.serialize_module": _count_written,
        "formats.serialize_layered": _count_written,
        "harness.run_suite": _count_instances,
    }
)
for _name in (
    "quiver.nonzero_paths",
    "quiver.make_path",
    "quiver.MonomialIdeal.contains",
    "quiver.MonomialIdeal.kills_extension",
    "quiver.paths_annihilated_by",
    "quiver.paths_annihilating",
):
    HOOKS[_name] = _counter("quiver.calls")


class Tracer:
    """Spans and counts of one traced process, held in memory."""

    def __init__(self) -> None:
        self.active = False
        # open spans: [child seconds, name, id of nearest kept span, layer, boundary crossings]
        self.stack: list[list] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.cert_keys: set = set()
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.op = -1
        self._ids = 0
        self._t0 = time.perf_counter()

    def begin_op(self, op: int) -> None:
        """Open the span of one benchmark operation; wrapped calls record until ``end_op``."""
        self.op = op
        self._ids += 1
        self.stack.append([0.0, "bench.op", self._ids, "bench", 0])
        self._op_start = time.perf_counter()
        self.active = True

    def end_op(self) -> None:
        self.active = False
        frame = self.stack.pop()
        self.spans.append((frame[2], 0, self.op, "bench.op", self._op_start - self._t0, time.perf_counter() - self._t0))

    def wrap(self, layer: str, name: str, fn):
        """A wrapper around ``fn`` that records a span of ``layer`` while active."""
        tracer = self
        hook = HOOKS.get(name)
        clock = time.perf_counter
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1]
            crossings = parent[4] + (parent[3] != layer)
            keep = parent[3] != layer and crossings <= SPAN_CROSSINGS and tracer._ids < SPAN_LIMIT
            if keep:
                tracer._ids += 1
            frame = [0.0, name, tracer._ids if keep else parent[2], layer, crossings]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s[layer] += end - start - frame[0]
                parent[0] += end - start
                if keep:
                    tracer.spans.append((frame[2], parent[2], tracer.op, name, start - tracer._t0, end - tracer._t0))
            if hook is not None:
                hook(tracer, parent[1], args, kwargs, result)
                parent[0] += clock() - end  # bookkeeping is nobody's self-time
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update(self.counts)
        certs = self.counts["bqa.certs"]
        out["bqa.certs_distinct_share"] = len(self.cert_keys) / certs if certs else 0.0
        return out

    def write_spans(self, path) -> None:
        """One JSON array per kept span: [id, parent id, op, name, start s, end s]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        public = not attr.startswith("_")
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, (staticmethod, classmethod)) and public:
            setattr(cls, attr, type(value)(tracer.wrap(layer, name, value.__func__)))
        elif isinstance(value, property) and public and value.fget is not None:
            setattr(cls, attr, property(tracer.wrap(layer, name, value.fget), value.fset, value.fdel, value.__doc__))
        elif inspect.isfunction(value) and (public or attr in OPERATORS):
            setattr(cls, attr, tracer.wrap(layer, name, value))


def install(tracer: Tracer) -> None:
    """Wrap the layer modules' functions and classes in place (inactive until ``begin_op``)."""
    modules = {layer: importlib.import_module(f"smonkit.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sys.modules.items() if n == "smonkit" or n.startswith("smonkit.")]
    for layer, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                wrapped = tracer.wrap(layer, f"{layer}.{attr}", value)
                for ns in namespaces:
                    for key, held in list(vars(ns).items()):
                        if held is value:
                            setattr(ns, key, wrapped)
            elif inspect.isclass(value):
                _wrap_class(tracer, layer, value)
