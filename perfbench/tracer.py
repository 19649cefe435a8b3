"""Per-layer host-time attribution for one benchmark pass.

A :class:`LayerTracer` wraps the public entry points of each ``repro`` layer
(functions are rebound in every module that imported them, methods are
replaced on their class) and records a span (id, name, start, end, parent)
around every call.  It also wraps ``Simulator.at`` -- ``Simulator.schedule``
delegates to it -- so each dispatched event's callback runs inside a span
charged to the layer of the module that owns the callback.

A layer's self time is the time its spans cover minus the time covered by
their child spans, accumulated online, so the self times of all layers plus
the ``bench`` root span add up to the traced pass's wall time.  Spans are
kept in memory (up to ``MAX_SPANS``; the rest are only aggregated) and
written out when the benchmark ends.  Nothing under ``src/`` changes:
:meth:`LayerTracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

MAX_SPANS = 100_000  # spans kept per pass; later ones are only aggregated

LAYERS = (
    "sim",
    "net",
    "radio",
    "mac",
    "core",
    "routing",
    "faults",
    "topology",
    "validate",
    "obs",
    "metrics",
    "runner",
    "experiments",
    "bench",
)
"""Attribution targets.  ``runner`` is ``repro.experiments.runner``;
``experiments`` is the figure modules' own code (``fig4_sweep.run``,
``fault_ablation.run``); ``bench`` is this benchmark's code and anything
outside ``repro``."""

# Sub-packages folded into a named layer: CBR traffic sources are part of
# the network harness, the interference oracle answers the scheduler's
# compatibility probes.
_PACKAGE_LAYER = {
    "sim": "sim",
    "net": "net",
    "traffic": "net",
    "radio": "radio",
    "mac": "mac",
    "core": "core",
    "interference": "core",
    "hardness": "core",
    "routing": "routing",
    "faults": "faults",
    "topology": "topology",
    "validate": "validate",
    "obs": "obs",
    "metrics": "metrics",
    "experiments": "experiments",
}


def layer_of_module(module: str | None) -> str:
    if not module:
        return "bench"
    if module == "repro.experiments.runner":
        return "runner"
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) == 1:
        return "bench"
    return _PACKAGE_LAYER.get(parts[1], "experiments")


class LayerTracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.time: defaultdict[str, float] = defaultdict(float)  # inclusive, by name
        self.calls: Counter[str] = Counter()
        self.events: Counter[str] = Counter()  # dispatched callbacks by layer
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple] = []
        self.dropped = 0
        self.sim_events = 0
        self.build_s = 0.0
        self.tx_radios = 0  # sum over transmissions of radios on the medium
        self.oracle_queries = 0
        self._oracles: list[weakref.finalize] = []
        self.solver_stats: list[Any] = []
        self.sweep_caches: list[Any] = []
        self._build_marks: list[float | None] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._callback_layer: dict[Any, str] = {}

    # -- spans --------------------------------------------------------------

    def enter(self, layer: str, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][4] if self.stack else -1
        frame = [layer, name, perf_counter(), 0.0, sid, parent]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        dur = end - frame[2]
        self.self_s[frame[0]] += dur - frame[3]
        self.time[frame[1]] += dur
        self.calls[frame[1]] += 1
        if self.stack:
            self.stack[-1][3] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[4], frame[1], frame[2], end, frame[5]))
        else:
            self.dropped += 1
        return dur

    # -- wrappers -----------------------------------------------------------

    def timed(self, fn: Callable, layer: str, name: str, keep_samples: bool = False):
        enter, exit_ = self.enter, self.exit
        samples = self.samples[name] if keep_samples else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = exit_(frame)
                if samples is not None:
                    samples.append(dur)

        return traced

    def counted(self, fn: Callable, name: str):
        calls = self.calls

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    def _layer_of_callback(self, callback: Callable) -> str:
        gen = getattr(getattr(callback, "__self__", None), "_gen", None)
        if gen is not None and getattr(gen, "gi_frame", None) is not None:
            # A repro.sim.process step resumes a generator (the polling head's
            # cycle loop, discovery): charge the module the generator runs in.
            layer = self._callback_layer.get(gen.gi_code)
            if layer is None:
                layer = layer_of_module(gen.gi_frame.f_globals.get("__name__"))
                self._callback_layer[gen.gi_code] = layer
            return layer
        fn = getattr(callback, "__func__", callback)
        fn = getattr(fn, "func", fn)  # functools.partial
        code = getattr(fn, "__code__", None)
        if code is None:  # a builtin: no code object to cache by
            return layer_of_module(getattr(fn, "__module__", None))
        layer = self._callback_layer.get(code)
        if layer is None:
            layer = layer_of_module(fn.__module__)
            self._callback_layer[code] = layer
        return layer

    # -- patching -----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        # A class keeps the raw function from its __dict__, not a bound method.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        self._set(cls, attr, make(cls.__dict__[attr]))

    def _functions(self, pairs: list[tuple[Callable, Callable]]) -> None:
        """Rebind each original function to its wrapper in every ``repro``
        module (and this benchmark's) that holds a reference to it."""
        by_id = {id(fn): wrapper for fn, wrapper in pairs}
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith(("repro.", "perfbench"))
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None and callable(value):
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark attributes time to."""
        from repro import validate
        from repro.experiments import fault_ablation, fig4_sweep, runner
        from repro.faults.gilbert import GilbertElliottLoss
        from repro.interference.base import CompatibilityOracle
        from repro.mac.vector_engine import VectorPhaseEngine
        from repro.net.cluster_sim import run_polling_simulation
        from repro.net.multicluster_sim import run_multicluster_simulation
        from repro.obs.campaign import CampaignFeed
        from repro.obs.telemetry import Telemetry
        from repro.radio.energy import EnergyMeter
        from repro.radio.transceiver import Transceiver
        from repro.routing.backup import compute_backup_routes
        from repro.routing.maxflow import FlowNetwork
        from repro.routing.minmax import solve_min_max_load
        from repro.routing.repair import repair_routing
        from repro.routing.warmcache import SolverCache
        from repro.sim.kernel import Simulator
        from repro.core.online import OnlinePollingScheduler
        from repro.metrics.availability import availability_report
        from repro.metrics.degradation import degradation_report
        from repro.topology.handoff import plan_field_reform
        from repro.topology.recluster import reform_cluster

        from . import workloads

        self._install_kernel(Simulator)
        timed = self.timed
        functions = [
            (fig4_sweep.run, timed(fig4_sweep.run, "experiments", "experiments.run")),
            (fault_ablation.run, timed(fault_ablation.run, "experiments", "experiments.run")),
            (workloads.field_mobile, timed(workloads.field_mobile, "bench", "bench.field_mobile")),
            (run_polling_simulation, self._net_run(run_polling_simulation)),
            (run_multicluster_simulation, self._net_run(run_multicluster_simulation)),
            (solve_min_max_load, timed(solve_min_max_load, "routing", "routing.solve")),
            (repair_routing, timed(repair_routing, "routing", "routing.repair")),
            (compute_backup_routes, timed(compute_backup_routes, "routing", "routing.backup")),
            (plan_field_reform, timed(plan_field_reform, "topology", "topology.reform")),
            (reform_cluster, timed(reform_cluster, "topology", "topology.reform")),
            (degradation_report, timed(degradation_report, "metrics", "metrics.report")),
            (availability_report, timed(availability_report, "metrics", "metrics.report")),
            (runner.run_sweep, timed(runner.run_sweep, "runner", "runner.sweep")),
            (runner.run_trial, timed(runner.run_trial, "runner", "runner.trial", keep_samples=True)),
        ]
        functions += [
            (getattr(validate, name), timed(getattr(validate, name), "validate", "validate.check"))
            for name in validate.__all__
            if name.startswith("check_")
        ]
        self._functions(functions)

        method = self._method
        method(Transceiver, "transmit", self._transmit)
        method(Transceiver, "deliver", lambda fn: timed(fn, "radio", "radio.rx_ok"))
        method(Transceiver, "deliver_garbled", lambda fn: timed(fn, "radio", "radio.rx_garbled"))
        method(EnergyMeter, "change_state", lambda fn: self.counted(fn, "radio.meter_changes"))
        method(VectorPhaseEngine, "try_slot", lambda fn: timed(fn, "mac", "mac.try_slot"))
        method(VectorPhaseEngine, "flush", lambda fn: timed(fn, "mac", "mac.flush"))
        method(
            OnlinePollingScheduler,
            "external_step",
            lambda fn: timed(fn, "core", "core.step", keep_samples=True),
        )
        method(FlowNetwork, "max_flow", lambda fn: timed(fn, "routing", "routing.maxflow"))
        method(GilbertElliottLoss, "frame_fails", lambda fn: timed(fn, "faults", "faults.loss_draw"))
        method(GilbertElliottLoss, "fails", lambda fn: timed(fn, "faults", "faults.loss_draw"))
        method(CampaignFeed, "emit", lambda fn: timed(fn, "obs", "obs.feed"))
        method(Telemetry, "begin", lambda fn: self.counted(fn, "obs.spans"))
        method(runner.SweepCache, "get_entry", lambda fn: timed(fn, "runner", "runner.cache_get"))
        method(runner.SweepCache, "put", lambda fn: timed(fn, "runner", "runner.cache_put"))
        method(runner.SweepCache, "__init__", lambda fn: self._registered(fn, self.sweep_caches))
        method(SolverCache, "__init__", lambda fn: self._registered(fn, self.solver_stats, "stats"))
        method(CompatibilityOracle, "__init__", self._oracle_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for fin in self._oracles:  # oracles still alive: read them now
            alive = fin.peek()
            if alive is not None:
                self._add_queries(alive[2][0])
            fin.detach()
        self._oracles.clear()

    # -- special-purpose wrappers -------------------------------------------

    def _install_kernel(self, Simulator: type) -> None:
        tracer = self
        enter, exit_ = self.enter, self.exit
        stack, self_s = self.stack, self.self_s
        layer_of = self._layer_of_callback
        events = self.events
        names = {layer: f"event.{layer}" for layer in LAYERS}
        orig_at = Simulator.__dict__["at"]
        orig_run = Simulator.__dict__["run"]

        def at(sim, time, callback, *args):
            # The callback lookup and the dispatch closure are tracer work:
            # charge them to ``bench`` as if they were a child span of the
            # caller's, and time only the kernel's own ``at`` as ``sim``.
            t0 = perf_counter()
            layer = layer_of(callback)
            name = names[layer]

            def dispatched(*cb_args):
                events[layer] += 1
                span = enter(layer, name)
                try:
                    callback(*cb_args)
                finally:
                    exit_(span)

            if getattr(callback, "_radio_neutral", False):
                dispatched._radio_neutral = True  # keeps quiet_until's verdict
            dur = perf_counter() - t0
            self_s["bench"] += dur
            if stack:
                stack[-1][3] += dur
            frame = enter("sim", "sim.at")
            try:
                return orig_at(sim, time, dispatched, *args)
            finally:
                exit_(frame)

        def run(sim, *args, **kwargs):
            marks = tracer._build_marks
            if marks and marks[-1] is not None:
                tracer.build_s += perf_counter() - marks[-1]
                marks[-1] = None
            before = sim.events_processed
            frame = enter("sim", "sim.run")
            try:
                return orig_run(sim, *args, **kwargs)
            finally:
                exit_(frame)
                tracer.sim_events += sim.events_processed - before

        self._set(Simulator, "at", functools.wraps(orig_at)(at))
        self._set(Simulator, "run", functools.wraps(orig_run)(run))
        self._method(Simulator, "quiet_until", lambda fn: self.timed(fn, "sim", "sim.quiet_until"))

    def _net_run(self, fn: Callable) -> Callable:
        """A ``run_*_simulation`` entry: its build phase lasts until the
        first ``Simulator.run`` inside it (``net.build_s``)."""
        marks = self._build_marks
        traced = self.timed(fn, "net", "net.run")

        @functools.wraps(fn)
        def run_sim(*args, **kwargs):
            marks.append(perf_counter())
            try:
                return traced(*args, **kwargs)
            finally:
                marks.pop()

        return run_sim

    def _transmit(self, fn: Callable) -> Callable:
        traced = self.timed(fn, "radio", "radio.tx")
        tracer = self

        @functools.wraps(fn)
        def transmit(trx, *args, **kwargs):
            tracer.tx_radios += trx.medium.n_nodes
            return traced(trx, *args, **kwargs)

        return transmit

    @staticmethod
    def _registered(fn: Callable, into: list, attr: str | None = None) -> Callable:
        @functools.wraps(fn)
        def init(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            into.append(obj if attr is None else getattr(obj, attr))

        return init

    def _add_queries(self, state: dict) -> None:
        self.oracle_queries += state.get("query_count", 0)

    def _oracle_init(self, fn: Callable) -> Callable:
        """Sum ``query_count`` over every oracle without keeping oracles
        (and the memo tables they own) alive: each oracle's final count is
        read from its instance dict when it is collected."""
        oracles = self._oracles

        @functools.wraps(fn)
        def init(oracle, *args, **kwargs):
            fn(oracle, *args, **kwargs)
            oracles.append(weakref.finalize(oracle, self._add_queries, oracle.__dict__))

        return init

    # -- output -------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the kept spans (id, name, start, end, parent) as JSON."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "fields": ["id", "name", "start", "end", "parent"],
            "names": names,
            "spans": [[s[0], index[s[1]], s[2], s[3], s[4]] for s in self.spans],
            "dropped": self.dropped,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
