"""Per-layer timing of the program, from outside it.

:class:`Probe` wraps public functions and methods of ``repro`` at class
or module level and restores them on exit.  Every wrapper pushes a frame
onto one in-memory stack, so each call site gets a count, a total
(inclusive) time and a self time (total minus the wrapped calls made
inside it).  Engine callbacks are timed by a profiler attached through
the public ``Simulator.set_profiler`` hierarchical protocol
(``push_site(fn)`` / ``pop()``) while each ``Simulator.run`` call lasts;
a callback's site is named by ``fn.__module__`` and ``fn.__qualname__``.

Untraced repetitions use ``Probe(traced=False)``, which wraps only
``Simulator.run`` to note when set-up ends: one extra call per run, none
per event.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = ["Probe", "Site", "layer_metrics"]

ENGINE_RUN = "repro.simulator.engine:Simulator.run"
#: Attribute set on every wrapper, so a test can find one left behind.
MARK = "_bench_probe_wrapper"
#: The one site whose per-call durations are kept (for percentiles).
RUN_CELL = "repro.experiments.runner:run_cell"

#: (module, attribute) of every timed function or method.  Functions
#: are replaced in every ``repro`` module that imported them by name.
TIMED = [
    ("repro.framework.batching", "WindowTable.plan"),
    ("repro.core.paldia", "PaldiaPolicy.plan_window"),
    ("repro.core.model", "optimal_split"),
    ("repro.core.hardware_selection", "HardwareSelector.tick"),
    ("repro.core.model", "optimal_split_batch"),
    ("repro.baselines.infless_llama", "InflessLlamaPolicy.plan_window"),
    ("repro.baselines.infless_llama", "InflessLlamaPolicy.desired_hardware"),
    ("repro.baselines.molecule", "MoleculePolicy.plan_window"),
    ("repro.core.autoscaler", "Autoscaler.reactive"),
    ("repro.core.autoscaler", "Autoscaler.tick"),
    ("repro.simulator.gpu", "GPUDevice.submit"),
    ("repro.simulator.cpu", "CPUDevice.submit"),
    ("repro.simulator.containers", "ContainerPool.request"),
    ("repro.simulator.cluster", "Cluster.acquire"),
    ("repro.simulator.cluster", "Cluster.release"),
    ("repro.core.resilience", "ResilienceController.plan_retry"),
    ("repro.simulator.metrics", "MetricsCollector.record_batch"),
    ("repro.telemetry.tracer", "Tracer.record_batch_span"),
    ("repro.telemetry.reqtrace", "RequestTracer.on_batch_complete"),
    ("repro.telemetry.costmeter", "CostMeter.on_batch"),
    ("repro.telemetry.slo_monitor", "SLOMonitor.observe_batch"),
    ("repro.telemetry.timeseries", "StateSampler.sample"),
    ("repro.workloads.traces", "azure_trace"),
    ("repro.workloads.traces", "poisson_trace"),
    ("repro.workloads.traces", "twitter_trace"),
    ("repro.workloads.traces", "wiki_trace"),
    ("repro.workloads.traces", "constant_trace"),
    ("repro.hardware.profiles", "ProfileService.__init__"),
    ("repro.experiments.runner", "run_cell"),
    ("repro.experiments.runner", "run_matrix"),
    ("repro.experiments.cache", "ResultCache.put"),
    ("repro.experiments.cache", "ResultCache.get"),
    ("repro.experiments.cache", "source_salt"),
    ("repro.framework.system", "ServerlessRun.execute"),
    ("repro.framework.multimodel", "MultiModelRun.execute"),
]

#: (module, attribute) of methods that are only counted.
COUNTED = [
    ("repro.simulator.engine", "Simulator.schedule"),
    ("repro.simulator.engine", "Simulator.schedule_at"),
]

TELEMETRY_SITES = [
    "repro.telemetry.tracer:Tracer.record_batch_span",
    "repro.telemetry.reqtrace:RequestTracer.on_batch_complete",
    "repro.telemetry.costmeter:CostMeter.on_batch",
    "repro.telemetry.slo_monitor:SLOMonitor.observe_batch",
    "repro.telemetry.timeseries:StateSampler.sample",
]
TRACE_GENERATORS = [
    f"repro.workloads.traces:{name}"
    for name in ("azure_trace", "poisson_trace", "twitter_trace",
                 "wiki_trace", "constant_trace")
]


class Site:
    """Aggregates of one call site (seconds)."""

    __slots__ = ("count", "total", "self_time", "durations")

    def __init__(self, keep_durations: bool = False) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: Optional[list[float]] = [] if keep_durations else None

    def add(self, total: float, self_time: float) -> None:
        self.count += 1
        self.total += total
        self.self_time += self_time
        if self.durations is not None:
            self.durations.append(total)

    def as_dict(self) -> dict[str, Any]:
        return {"count": self.count, "total_s": self.total,
                "self_s": self.self_time}


class Probe:
    """Installs the wrappers on entry and restores the originals on exit.

    ``traced=False`` wraps ``Simulator.run`` only, to record
    :attr:`first_run` (the end of set-up).
    """

    def __init__(self, traced: bool, t0: float = 0.0) -> None:
        self.traced = traced
        self.t0 = t0
        self.sites: dict[str, Site] = {}
        #: Frames ``[start, seconds spent in wrapped children]``.
        self.stack: list[list[float]] = []
        #: Coarse spans ``(name, start, end)`` in ``perf_counter`` seconds.
        self.spans: list[tuple[str, float, float]] = []
        self.first_run: Optional[float] = None
        self.last_run_end: Optional[float] = None
        self.events = 0
        self.scheduled = 0
        self.windows = 0
        self.gpu_plans = 0
        self.co_run_sum = 0
        self.finalize = 0.0
        #: (owner, attribute, original) of each patched class attribute.
        self._restore: list[tuple[Any, str, Any]] = []
        #: (wrapper, original) of each patched module-level function.
        self._functions: list[tuple[Callable, Callable]] = []
        self._cb_sites: dict[Any, Site] = {}

    # -- installation --------------------------------------------------
    def __enter__(self) -> "Probe":
        engine = importlib.import_module("repro.simulator.engine")
        self._patch_method(engine.Simulator, "run", self._wrap_run)
        if self.traced:
            after = {
                "repro.framework.batching:WindowTable.plan": self._after_plan,
                "repro.core.paldia:PaldiaPolicy.plan_window":
                    self._after_paldia,
                "repro.simulator.gpu:GPUDevice.submit": self._after_gpu_submit,
                "repro.framework.system:ServerlessRun.execute":
                    self._after_execute,
                "repro.framework.multimodel:MultiModelRun.execute":
                    self._after_execute,
                RUN_CELL: self._after_cell,
            }
            for module, attr in COUNTED:
                self._patch(module, attr, self._counted)
            for module, attr in TIMED:
                name = f"{module}:{attr}"
                self._patch(module, attr, functools.partial(
                    self._timed, name, after=after.get(name)))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        # A module imported while the probe was installed may have
        # imported a wrapper by name; put the original back there too.
        self._replace_in_modules(
            {id(w): (w, orig) for w, orig in self._functions}
        )
        self._functions = []

    def _patch(self, module_name: str, attr: str, make: Callable) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, name = attr.split(".")
            self._patch_method(getattr(module, cls_name), name, make)
            return
        original = getattr(module, attr)
        wrapper = make(original)
        setattr(wrapper, MARK, True)
        self._functions.append((wrapper, original))
        self._replace_in_modules({id(original): (original, wrapper)})

    @staticmethod
    def _replace_in_modules(swaps: dict[int, tuple[Any, Any]]) -> None:
        """In every loaded ``repro`` module, rebind each name bound to
        ``old`` to ``new`` for every ``id(old): (old, new)`` in ``swaps``."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                swap = swaps.get(id(value))
                if swap is not None and swap[0] is value:
                    setattr(mod, key, swap[1])

    def _patch_method(self, cls: type, name: str, make: Callable) -> None:
        raw = cls.__dict__[name]
        fn = make(raw.__func__ if isinstance(raw, classmethod) else raw)
        setattr(fn, MARK, True)
        wrapped = classmethod(fn) if isinstance(raw, classmethod) else fn
        self._restore.append((cls, name, raw))
        setattr(cls, name, wrapped)

    # -- wrappers ------------------------------------------------------
    def site(self, name: str) -> Site:
        site = self.sites.get(name)
        if site is None:
            site = self.sites[name] = Site(name == RUN_CELL)
        return site

    def _timed(self, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
        site = self.site(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = perf_counter()
                total = end - frame[0]
                site.add(total, total - frame[1])
                if stack:
                    stack[-1][1] += total
            if after is not None:
                after(args, kwargs, result, frame[0], end)
            return result

        return wrapper

    def _counted(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.scheduled += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_run(self, fn: Callable) -> Callable:
        timed = self._timed(ENGINE_RUN, fn) if self.traced else fn

        @functools.wraps(fn)
        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            if self.first_run is None:
                self.first_run = start
                self.spans.append(("setup", self.t0, start))
            n0 = sim.n_dispatched
            if self.traced:
                sim.set_profiler(self)
            try:
                return timed(sim, *args, **kwargs)
            finally:
                if self.traced:
                    sim.set_profiler(None)
                self.events += sim.n_dispatched - n0
                self.last_run_end = perf_counter()
                self.spans.append(("engine", start, self.last_run_end))

        return run

    # -- the engine's hierarchical profiler protocol ---------------------
    def push_site(self, fn: Callable) -> None:
        self.stack.append([perf_counter(), 0.0, fn])

    def pop(self) -> None:
        frame = self.stack.pop()
        total = perf_counter() - frame[0]
        fn = frame[2]
        key = getattr(getattr(fn, "__func__", fn), "__code__", type(fn))
        site = self._cb_sites.get(key)
        if site is None:
            qualname = getattr(fn, "__qualname__", type(fn).__qualname__)
            module = getattr(fn, "__module__", None) or "?"
            site = self._cb_sites[key] = self.site(f"cb:{module}:{qualname}")
        site.add(total, total - frame[1])
        if self.stack:
            self.stack[-1][1] += total

    # -- after-call hooks ------------------------------------------------
    def _after_plan(self, args, kwargs, table, start, end) -> None:
        self.windows += len(table)

    def _after_paldia(self, args, kwargs, plan, start, end) -> None:
        hw = args[2] if len(args) > 2 else kwargs["hw"]
        self.gpu_plans += bool(hw.is_gpu)

    def _after_gpu_submit(self, args, kwargs, result, start, end) -> None:
        self.co_run_sum += args[0].co_run_level

    def _after_execute(self, args, kwargs, result, start, end) -> None:
        if self.last_run_end is not None and self.last_run_end >= start:
            self.finalize += end - self.last_run_end
            self.spans.append(("finalize", self.last_run_end, end))

    def _after_cell(self, args, kwargs, result, start, end) -> None:
        self.spans.append(("cell", start, end))

    # -- export ------------------------------------------------------------
    def trace_record(self) -> dict[str, Any]:
        """Per-site aggregates and coarse spans (milliseconds from t0)."""
        return {
            "sites": {k: s.as_dict() for k, s in sorted(self.sites.items())},
            "spans": [
                [name, 1e3 * (a - self.t0), 1e3 * (b - self.t0)]
                for name, a, b in self.spans
            ],
        }


def _per_call_us(site: Optional[Site], use_self: bool = False) -> float:
    if site is None or site.count == 0:
        return 0.0
    return 1e6 * (site.self_time if use_self else site.total) / site.count


def layer_metrics(probe: Probe, outcome: Any, import_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced run, except ``trace.overhead``
    and ``telemetry.overhead``, which compare several runs."""
    sites = probe.sites
    get = sites.get

    def count(name: str) -> int:
        site = get(name)
        return site.count if site is not None else 0

    def total(name: str, use_self: bool = False) -> float:
        site = get(name)
        if site is None:
            return 0.0
        return site.self_time if use_self else site.total

    def callbacks(module: str) -> tuple[int, float]:
        """Count and self time of the engine callbacks from ``module``."""
        hits = [s for k, s in sites.items() if k.startswith(f"cb:{module}:")]
        return sum(s.count for s in hits), sum(s.self_time for s in hits)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    offered = outcome.offered
    runs = outcome.runs
    batches = count("repro.simulator.metrics:MetricsCollector.record_batch")
    pump = get("cb:repro.framework.system:ServerlessRun._pump_windows")
    monitor = get("cb:repro.framework.system:ServerlessRun._monitor_tick")
    paldia_calls = count("repro.core.paldia:PaldiaPolicy.plan_window")
    ticks = count("repro.core.hardware_selection:HardwareSelector.tick")
    gpu_submits = count("repro.simulator.gpu:GPUDevice.submit")
    gpu_cb, gpu_cb_s = callbacks("repro.simulator.gpu")
    cpu_cb, cpu_cb_s = callbacks("repro.simulator.cpu")
    _, chaos_s = callbacks("repro.simulator.chaos")
    baseline_plans = [
        get("repro.baselines.infless_llama:InflessLlamaPolicy.plan_window"),
        get("repro.baselines.molecule:MoleculePolicy.plan_window"),
    ]
    n_base = sum(s.count for s in baseline_plans if s is not None)
    t_base = sum(s.total for s in baseline_plans if s is not None)
    cells = get(RUN_CELL)
    cell_ms = [1e3 * d for d in cells.durations] if cells else []
    telemetry_calls = sum(count(name) for name in TELEMETRY_SITES)

    def per_batch_us(name: str) -> float:
        return 1e6 * ratio(total(name), batches)

    return {
        "engine.events_per_req": ratio(probe.events, offered),
        "engine.useful_ratio": ratio(probe.events, probe.scheduled),
        "engine.self_ns_per_event": 1e9 * ratio(
            total(ENGINE_RUN, use_self=True), probe.events
        ),
        "framework.windows": probe.windows,
        "framework.req_per_window": ratio(offered, probe.windows),
        "framework.pump_us_per_window": 1e6 * ratio(
            pump.self_time if pump else 0.0, probe.windows
        ),
        "framework.monitor_us_per_tick": _per_call_us(monitor, use_self=True),
        "batching.plan_ms": 1e3 * total(
            "repro.framework.batching:WindowTable.plan"
        ),
        "paldia.plan_window_us": _per_call_us(
            get("repro.core.paldia:PaldiaPolicy.plan_window")
        ),
        "paldia.plan_window_calls": paldia_calls,
        "paldia.solves_per_gpu_plan": ratio(
            count("repro.core.model:optimal_split"), probe.gpu_plans
        ),
        "select.tick_us": _per_call_us(
            get("repro.core.hardware_selection:HardwareSelector.tick")
        ),
        "select.ticks": ticks,
        "select.batch_solves_per_tick": ratio(
            count("repro.core.model:optimal_split_batch"), ticks
        ),
        "baselines.plan_window_us": 1e6 * ratio(t_base, n_base),
        "baselines.desired_hw_us": _per_call_us(
            get("repro.baselines.infless_llama:"
                "InflessLlamaPolicy.desired_hardware")
        ),
        "autoscaler.reactive_us": _per_call_us(
            get("repro.core.autoscaler:Autoscaler.reactive")
        ),
        "autoscaler.tick_us": _per_call_us(
            get("repro.core.autoscaler:Autoscaler.tick")
        ),
        "gpu.submits": gpu_submits,
        "gpu.submit_us": _per_call_us(
            get("repro.simulator.gpu:GPUDevice.submit")
        ),
        "gpu.complete_us": 1e6 * ratio(gpu_cb_s, gpu_cb),
        "gpu.co_run_mean": ratio(probe.co_run_sum, gpu_submits),
        "cpu.submits": count("repro.simulator.cpu:CPUDevice.submit"),
        "cpu.submit_us": _per_call_us(
            get("repro.simulator.cpu:CPUDevice.submit")
        ),
        "cpu.complete_us": 1e6 * ratio(cpu_cb_s, cpu_cb),
        "containers.request_us": _per_call_us(
            get("repro.simulator.containers:ContainerPool.request")
        ),
        "containers.cold_starts": sum(r.cold_starts for r in runs),
        "cluster.acquire_us": _per_call_us(
            get("repro.simulator.cluster:Cluster.acquire")
        ),
        "cluster.leases": count("repro.simulator.cluster:Cluster.acquire"),
        "chaos.callback_ms": 1e3 * chaos_s,
        "resilience.plan_retry_us": _per_call_us(
            get("repro.core.resilience:ResilienceController.plan_retry")
        ),
        "resilience.retries": sum(r.retries_scheduled for r in runs),
        "resilience.shed": sum(r.requests_shed for r in runs),
        "metrics.record_batch_us": _per_call_us(
            get("repro.simulator.metrics:MetricsCollector.record_batch")
        ),
        "finalize_ms": 1e3 * probe.finalize,
        "telemetry.tracer_us_per_batch": per_batch_us(TELEMETRY_SITES[0]),
        "telemetry.reqtrace_us_per_batch": per_batch_us(TELEMETRY_SITES[1]),
        "telemetry.costmeter_us_per_batch": per_batch_us(TELEMETRY_SITES[2]),
        "telemetry.slo_monitor_us_per_batch": per_batch_us(TELEMETRY_SITES[3]),
        "telemetry.sampler_ms": 1e3 * total(TELEMETRY_SITES[4]),
        "telemetry.calls_when_off": 0 if outcome.telemetry else telemetry_calls,
        "traces.gen_ms": 1e3 * sum(
            total(name, use_self=True) for name in TRACE_GENERATORS
        ),
        "profiles.init_ms": 1e3 * total(
            "repro.hardware.profiles:ProfileService.__init__"
        ),
        "import_ms": 1e3 * import_s,
        "runner.cell_ms.p50": statistics.median(cell_ms) if cell_ms else 0.0,
        "runner.cell_ms.p80": (
            statistics.quantiles(cell_ms, n=5)[3] if len(cell_ms) > 1
            else sum(cell_ms, 0.0)
        ),
        "runner.overhead_ms": 1e3 * (
            total("repro.experiments.runner:run_matrix") - total(RUN_CELL)
        ),
        "cache.put_ms": 1e3 * total("repro.experiments.cache:ResultCache.put"),
        "cache.get_ms": 1e3 * total("repro.experiments.cache:ResultCache.get"),
        "cache.salt_ms": 1e3 * total("repro.experiments.cache:source_salt"),
    }
