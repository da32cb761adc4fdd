"""Per-layer counts and self times, taken by wrapping alphaneg from outside.

``Tracer.install`` replaces each traced function at every place a loaded
alphaneg module bound it by name (``pptgeom.psd_project``,
``solver.check_hermitian``, ``resource._pg_core`` and so on), so calls that
go through ``from .linalg import ...`` bindings are caught too.  It also
wraps the ``BipartiteState`` validator, ``numpy.linalg.eigh``/``eigvalsh``
for calls made from alphaneg code, and the objective that
``alphaneg.channels`` hands to ``scipy.optimize.minimize``.  ``remove`` puts
every original back.

Wrapped calls nest.  A layer's self time is its duration minus the time of
the wrapped calls it made; the spans in ``SPANS`` orchestrate other layers
and report inclusive time instead.

Metrics, per traced batch:

* ``<layer>.calls`` and ``<layer>.time_s`` for each layer;
* ``linalg.eigh.work_d3``: sum of D^3 over the eigensolver calls, which
  tells "did less work" apart from "ran faster";
* ``pptgeom.project.cycles``: Dykstra cycles, counted as the ``psd_project``
  calls made inside the projection over two; ``pptgeom.project.stalled``:
  projections that raised ``NotConvergedError``;
* ``solver.pg.iterations`` and ``solver.kappa.newton_steps``, as the solver
  cores return them; ``solver.kappa.ms_per_newton``: inclusive kappa time
  per Newton step;
* ``solver.kappa.per_state``: kappa solves per distinct input matrix;
* ``channels.objective``: the inner solves of the channel search;
* ``trace.overhead_frac`` (set by the runner): traced over untraced batch
  time, minus one, each solve timed by the fastest of its rounds.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (layer, defining module, function name)
FUNCTION_LAYERS = (
    ("linalg.check_hermitian", "alphaneg.linalg", "check_hermitian"),
    ("linalg.psd_project", "alphaneg.linalg", "psd_project"),
    ("linalg.partial_transpose", "alphaneg.linalg", "partial_transpose"),
    ("divergence.log_negativity", "alphaneg.divergence", "log_negativity"),
    ("pptgeom.project", "alphaneg.pptgeom", "project_free_set"),
    ("solver.objective", "alphaneg.solver", "_log_objective"),
    ("solver.pg", "alphaneg.solver", "_pg_core"),
    ("solver.kappa", "alphaneg.solver", "_kappa_core"),
    ("solver.bracket", "alphaneg.solver", "bracket"),
    ("channels.search", "alphaneg.channels", "channel_e_alpha"),
)
SPANS = frozenset({"solver.bracket", "channels.search", "channels.objective"})

# Reported metrics, in report order, with their units.
METRICS = (
    ("linalg.check_hermitian.calls", "count"),
    ("linalg.check_hermitian.time_s", "s"),
    ("linalg.psd_project.calls", "count"),
    ("linalg.psd_project.time_s", "s"),
    ("linalg.partial_transpose.calls", "count"),
    ("linalg.partial_transpose.time_s", "s"),
    ("states.validate.calls", "count"),
    ("states.validate.time_s", "s"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.time_s", "s"),
    ("linalg.eigh.work_d3", "count"),
    ("pptgeom.project.calls", "count"),
    ("pptgeom.project.time_s", "s"),
    ("pptgeom.project.cycles", "count"),
    ("pptgeom.project.stalled", "count"),
    ("solver.pg.calls", "count"),
    ("solver.pg.time_s", "s"),
    ("solver.pg.iterations", "count"),
    ("solver.objective.calls", "count"),
    ("solver.objective.time_s", "s"),
    ("solver.kappa.calls", "count"),
    ("solver.kappa.time_s", "s"),
    ("solver.kappa.newton_steps", "count"),
    ("solver.kappa.ms_per_newton", "ms"),
    ("solver.kappa.per_state", "ratio"),
    ("solver.bracket.time_s", "s"),
    ("channels.search.time_s", "s"),
    ("channels.objective.calls", "count"),
    ("channels.objective.time_s", "s"),
    ("divergence.log_negativity.calls", "count"),
    ("divergence.log_negativity.time_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount


def _is_package_module(name: str) -> bool:
    return name == "alphaneg" or name.startswith("alphaneg.")


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if _is_package_module(n) and m is not None]


class _OptimizeView:
    """Stands in for ``scipy.optimize`` inside ``alphaneg.channels`` and
    traces the objective handed to ``minimize``."""

    def __init__(self, module, wrap_objective):
        self._module = module
        self._wrap_objective = wrap_objective

    def minimize(self, fun, *args, **kwargs):
        return self._module.minimize(self._wrap_objective(fun), *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Install with ``with tracer:``; counts add up over repeated
    installations.  Read ``metrics()`` after."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.bindings: list[tuple[str, str, str]] = []  # (owner, attribute, layer)
        self._stack: list[list[float]] = []  # child time of each wrapped call in progress
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[object] = []
        self._kappa_inputs: set[bytes] = set()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        not_converged = sys.modules["alphaneg.errors"].NotConvergedError
        hooks = {
            "pptgeom.project": (self._psd_calls, self._project_done(not_converged)),
            "solver.pg": (None, self._pg_done),
            "solver.kappa": (self._kappa_start, self._kappa_done),
        }
        for layer, module_name, attr in FUNCTION_LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(layer, original, *hooks.get(layer, ()))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper, layer)

        state_cls = sys.modules["alphaneg.states"].BipartiteState
        validate = self._wrap("states.validate", state_cls.__post_init__)
        self._patch(state_cls, "__post_init__", validate, "states.validate")

        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self._wrap_eigh(getattr(np.linalg, attr)), "linalg.eigh")

        channels = sys.modules["alphaneg.channels"]
        view = _OptimizeView(channels.optimize, self._wrap_objective)
        self._patch(channels, "optimize", view, "channels.objective")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def leftovers(self) -> list[str]:
        """Places that still hold one of this tracer's wrappers."""
        owners = _package_modules() + [np.linalg]
        if "alphaneg.states" in sys.modules:
            owners.append(sys.modules["alphaneg.states"].BipartiteState)
        found = []
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if any(value is w for w in self._wrappers):
                    found.append(f"{getattr(owner, '__name__', owner)}.{key}")
        return found

    def _patch(self, owner, attr: str, replacement, layer: str) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        self._wrappers.append(replacement)
        setattr(owner, attr, replacement)
        self.bindings.append((getattr(owner, "__name__", repr(owner)), attr, layer))

    # -- wrappers ----------------------------------------------------------

    def _layer(self, name: str) -> LayerStats:
        return self.stats.setdefault(name, LayerStats())

    def _wrap(self, layer: str, fn, before=None, after=None):
        """Count and time ``fn``; ``before(args)`` returns a token handed to
        ``after(stats, token, out, exc)``, which runs on return and on raise."""
        stats = self._layer(layer)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            child = [0.0]
            stack.append(child)
            out = exc = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
                if after:
                    after(stats, token, out, exc)

        return traced

    def _wrap_eigh(self, fn):
        counted = self._wrap("linalg.eigh", fn, after=self._eigh_done)

        @functools.wraps(fn)
        def dispatch(a, *args, **kwargs):
            if _is_package_module(sys._getframe(1).f_globals.get("__name__", "")):
                return counted(a, *args, **kwargs)
            return fn(a, *args, **kwargs)

        return dispatch

    def _wrap_objective(self, fun):
        return self._wrap("channels.objective", fun)

    # -- hooks ---------------------------------------------------------------

    @staticmethod
    def _eigh_done(stats, token, out, exc):
        if out is not None:
            values = out[0] if isinstance(out, tuple) else out
            stats.add("work_d3", int(values.shape[-1]) ** 3)

    def _psd_calls(self, args) -> int:
        return self._layer("linalg.psd_project").calls

    def _project_done(self, not_converged):
        def done(stats, psd_before, out, exc):
            # each Dykstra cycle projects onto the PSD cone twice
            stats.add("psd_inner", self._layer("linalg.psd_project").calls - psd_before)
            if isinstance(exc, not_converged):
                stats.add("stalled", 1)

        return done

    @staticmethod
    def _pg_done(stats, token, out, exc):
        if out is not None:
            stats.add("iterations", int(out[2]))

    def _kappa_start(self, args):
        self._kappa_inputs.add(np.ascontiguousarray(args[0]).tobytes())

    @staticmethod
    def _kappa_done(stats, token, out, exc):
        if out is not None:
            stats.add("newton_steps", int(out[2]))

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every metric of ``METRICS`` except ``trace.overhead_frac``."""
        out: dict[str, float] = {}
        for name, _unit in METRICS:
            layer, _, kind = name.rpartition(".")
            if layer == "trace":
                continue
            stats = self.stats.get(layer, LayerStats())
            if kind == "calls":
                out[name] = stats.calls
            elif kind == "time_s":
                out[name] = stats.total_s if layer in SPANS else stats.self_s
            elif kind == "cycles":
                out[name] = stats.counters.get("psd_inner", 0) // 2
            elif kind == "ms_per_newton":
                steps = stats.counters.get("newton_steps", 0)
                out[name] = 1000.0 * stats.total_s / steps if steps else 0.0
            elif kind == "per_state":
                distinct = len(self._kappa_inputs)
                out[name] = stats.calls / distinct if distinct else 0.0
            else:
                out[name] = stats.counters.get(kind, 0)
        return out
