"""Tracing fgt from outside its source tree.

The tracer replaces each public function of the fgt layer modules with a
wrapper, in every module that binds the name (fgt uses ``from .x import y``,
so ``close_under_product`` lives in ``groups``, ``lattice`` and the package
namespace at once), and wraps ``Group.__init__`` and
``SubgroupLattice.__init__`` on their classes.  ``restore()`` puts every
original back.

Every wrapped call is aggregated into per-thread counters: calls, total
time (outermost activation only, so recursion is not counted twice) and
self time (duration minus the time covered by wrapped callees).  Only the
coarse boundaries in ``SPAN_NAMES`` also keep a full span, so hot leaves
called hundreds of thousands of times cost a counter update and no memory.
Functions of the ``fields`` layer are counted without timing, and only at
the layer boundary: calls from other modules, not calls inside ``fields``.
"""

from __future__ import annotations

import contextlib
import threading
import time
import types

LAYERS = ("fields", "groups", "catalog", "lattice", "predicates", "claims", "cli")

# Functions reported under another layer than the module defining them:
# the closure primitive lives in groups but is the lattice layer's engine.
LAYER_OVERRIDES = {"close_under_product": "lattice"}

# Layers whose functions are counted but not timed (hot substrate leaves).
COUNT_ONLY_LAYERS = ("fields",)

GROUP_INIT = "groups.Group.init"
LATTICE_INIT = "lattice.SubgroupLattice.init"
CLOSURE = "lattice.close_under_product"

# Coarse boundaries that keep a full span (name, detail, start, end, parent).
SPAN_NAMES = frozenset({
    "cli.main",
    "claims.run_claim",
    "catalog.build_group",
    GROUP_INIT,
    "groups.direct_product",
    "groups.quotient_group",
    "lattice.all_subgroups",
    LATTICE_INIT,
    "lattice.hasse_edges",
    "lattice.lattice_to_json",
    "predicates.classify_group",
    "predicates.pnc_witness",
})

# Per-thread counters whose change over a span is stored with the span, so
# "did this build_group construct a group" is read where the work happened.
SPAN_COUNTERS = (GROUP_INIT, LATTICE_INIT, CLOSURE)


def _claim_detail(args, kwargs):
    return args[0] if args else kwargs.get("claim_id")


def _lattice_detail(args, kwargs):
    subs = args[1] if len(args) > 1 else kwargs.get("subgroups")
    return len(subs)


def _spec_detail(args, kwargs):
    spec = args[0] if args else kwargs.get("spec")
    return spec.to_string() if hasattr(spec, "to_string") else str(spec)


# args exclude ``self`` for the wrapped __init__ methods.
SPAN_DETAIL = {
    "claims.run_claim": _claim_detail,
    LATTICE_INIT: _lattice_detail,
    "catalog.build_group": _spec_detail,
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class _Frame:
    __slots__ = ("start", "child_s", "ctx")

    def __init__(self, start, ctx):
        self.start = start
        self.child_s = 0.0
        self.ctx = ctx  # id of the nearest span at or above this frame


class _ThreadState(threading.local):
    def __init__(self, tracer):
        self.stack: list[_Frame] = []
        self.active: dict[str, int] = {}
        self.stats: dict[str, Stat] = {}
        self.root: int | None = None
        with tracer._lock:
            tracer._thread_stats.append(self.stats)


def metric_name(module_name: str, attr: str) -> str:
    """``fgt.catalog`` + ``build_group`` -> ``catalog.build_group``."""
    return f"{LAYER_OVERRIDES.get(attr, module_name.rsplit('.', 1)[-1])}.{attr}"


class Tracer:
    """Counters, self time and coarse spans for wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._thread_stats: list[dict[str, Stat]] = []
        self._tls = _ThreadState(self)
        self._patches: list[tuple[object, str, object]] = []
        self._next_span = 0

    # -- recording ---------------------------------------------------------

    def _new_span_id(self) -> int:
        with self._lock:
            self._next_span += 1
            return self._next_span

    def _stat(self, stats: dict, name: str) -> Stat:
        st = stats.get(name)
        if st is None:
            st = stats[name] = Stat()
        return st

    def counter(self, name: str) -> int:
        """Calls of ``name`` made so far by the current thread."""
        st = self._tls.stats.get(name)
        return st.calls if st is not None else 0

    def wrap(self, name: str, fn, count_only: bool = False):
        """A wrapper around ``fn`` that records under ``name``."""
        tls = self._tls
        if count_only:
            def counted(*args, **kwargs):
                stats = tls.stats
                st = stats.get(name)
                if st is None:
                    st = stats[name] = Stat()
                st.calls += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        clock = self.clock
        keeps_span = name in SPAN_NAMES
        detail_of = SPAN_DETAIL.get(name)

        def timed(*args, **kwargs):
            stack = tls.stack
            parent = stack[-1] if stack else None
            ctx = parent.ctx if parent is not None else tls.root
            span_id = snap = detail = None
            if keeps_span:
                span_id = self._new_span_id()
                snap = [self.counter(c) for c in SPAN_COUNTERS]
                if detail_of is not None:
                    detail = detail_of(args[1:] if name.endswith(".init") else args, kwargs)
            frame = _Frame(clock(), span_id if keeps_span else ctx)
            stack.append(frame)
            depth = tls.active.get(name, 0)
            tls.active[name] = depth + 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tls.active[name] = depth
                elapsed = end - frame.start
                st = self._stat(tls.stats, name)
                st.calls += 1
                st.self_s += elapsed - frame.child_s
                if depth == 0:
                    st.total_s += elapsed
                if parent is not None:
                    parent.child_s += elapsed
                if keeps_span:
                    deltas = tuple(self.counter(c) - s for c, s in zip(SPAN_COUNTERS, snap))
                    self._record(span_id, ctx, name, detail, frame.start, end, deltas)

        timed.__wrapped__ = fn
        return timed

    def _record(self, span_id, parent_id, name, detail, start, end, deltas):
        self.spans.append((span_id, parent_id, name, detail, threading.get_ident(), start, end) + deltas)

    @contextlib.contextmanager
    def root_span(self, name: str, detail=None):
        """A benchmark-level span (one operation) that parents the spans inside it."""
        span_id = self._new_span_id()
        prev = self._tls.root
        self._tls.root = span_id
        start = self.clock()
        try:
            yield
        finally:
            self._tls.root = prev
            self._record(span_id, prev, name, detail, start, self.clock(), (0,) * len(SPAN_COUNTERS))

    # -- installing --------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap every public function defined in ``modules``, in each of
        ``modules`` that binds it; one wrapper per function."""
        originals: dict[int, tuple[str, bool]] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    layer = mod.__name__.rsplit(".", 1)[-1]
                    originals[id(obj)] = (metric_name(mod.__name__, attr), layer in COUNT_ONLY_LAYERS)
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is None:
                    continue
                name, count_only = entry
                if count_only and obj.__module__ == mod.__name__:
                    continue  # count hot leaves at the layer boundary only
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self.wrap(name, obj, count_only=count_only)
                self._patch(mod, attr, wrapper)

    def install_method(self, cls, attr: str, name: str) -> None:
        self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def stats(self) -> dict[str, Stat]:
        """Counters merged over all threads."""
        merged: dict[str, Stat] = {}
        with self._lock:
            per_thread = list(self._thread_stats)
        for stats in per_thread:
            for name, st in stats.items():
                m = self._stat(merged, name)
                m.calls += st.calls
                m.total_s += st.total_s
                m.self_s += st.self_s
        return merged


def install_fgt(tracer: Tracer):
    """Install ``tracer`` on every fgt layer module, the package and the two classes."""
    import importlib

    layer_mods = [importlib.import_module(f"fgt.{name}") for name in LAYERS]
    package = importlib.import_module("fgt")
    tracer.install(layer_mods + [package])
    groups = importlib.import_module("fgt.groups")
    lattice = importlib.import_module("fgt.lattice")
    tracer.install_method(groups.Group, "__init__", GROUP_INIT)
    tracer.install_method(lattice.SubgroupLattice, "__init__", LATTICE_INIT)
    return tracer
