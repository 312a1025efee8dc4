"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``profiles [MODEL]``
    Print Table II and the profiled rows for a model.
``run MODEL [--scheme S] [--trace T] [--duration D] [--seed N]
    [--chaos F.json] [--recovery MODE] [--trace-out F.jsonl]
    [--chrome-trace F.json] [--prom-out F.prom]
    [--self-profile] [--profile-out F.json]
    [--live] [--timeseries-out F] [--ledger [DB]]
    [--reqtrace] [--reqtrace-sample P] [--reqtrace-out F.jsonl]``
    Serve one workload with one scheme and print the headline metrics;
    optionally inject faults from a ChaosSpec JSON file, enable the
    resilience layer (deadline-aware retry + circuit breakers), and
    record telemetry (spans, decision audit, sampled run state) to JSONL,
    Chrome ``trace_event`` format (opens in Perfetto), and/or a
    Prometheus text-format metrics snapshot.  ``--live`` paints an
    in-terminal dashboard while the run executes (plain log lines when
    stdout is not a TTY); ``--timeseries-out`` saves the sampled
    time-series bundle (``.npz`` or JSONL); ``--ledger`` appends the
    run's headline metrics to the SQLite run ledger.
``compare MODEL [...]``
    All schemes side by side on the same trace.
``experiment ID [--no-cache] [--cache-dir DIR] [--executor E]
    [--cell-retries N] [--cell-timeout S] [--on-cell-failure fail|skip]
    [--prom-out F.prom] [...]``
    Regenerate one paper figure/table (fig1, fig3, ..., table3, ablations).
    The available IDs derive from the experiment registry
    (:mod:`repro.experiments.registry`); matrix cells are replayed from
    the on-disk result cache when their content hash is unchanged.
    Execution is pluggable (serial, local process pool, or seeded
    chaos-injection wrappers) with per-cell retry and wall-clock
    timeouts; an interrupted sweep resumes when the same command runs
    again, since every finished cell is in the cache — see
    ``docs/EXECUTION.md``.
``profile [MODEL] [--scheme S] [--trace T] [--duration D] [--seed N]
    [--json F] [--speedscope F] [--collapsed F] [--alloc] [--top N]``
    Run one scenario under the hierarchical self-profiler
    (:class:`~repro.telemetry.selfprof.RunProfiler`) and print the
    phase tree (where the reproduction's own wall-clock goes: engine
    dispatch, Algorithm 1 ticks, batch formation, GPU interference
    math, telemetry).  Optional exports: ``repro.selfprof/1`` JSON,
    speedscope JSON (https://www.speedscope.app), and
    ``flamegraph.pl``-compatible collapsed stacks.
``profile --diff BASELINE.json CANDIDATE.json``
    Compare two saved self-profiles: per-phase exclusive-time deltas,
    largest movers first.
``trace-report FILE [--top-k K] [--reqtrace F.jsonl]``
    Post-mortem a recorded JSONL trace: latency breakdown, Algorithm 1
    decision audit, switches, leases.  ``--top-k`` appends the slowest
    requests — with full causal context when a request trace is given,
    latency-only otherwise.
``request-trace FILE [--request RID | --worst K] [--svg F.svg]``
    Tail-latency forensics over a ``repro.reqtrace/1`` request trace
    (written by ``run --reqtrace-out``): per-phase P50/P99
    decomposition across the fleet and causal waterfalls — one
    request's by id, or the worst-K with an optional self-contained
    SVG export.
``timeseries-report FILE [--width N] [--svg F.svg]``
    Render aligned per-metric panels (rate vs hardware, per-node
    occupancy, pools & control) from a saved time-series bundle.
``runs list|show|compare [--ledger DB]``
    Query the cross-run ledger: list recorded runs, show one run's
    metrics, or diff two runs with regression flags.
``trace-attribution FILE [--slo MS] [--json F] [--html F]``
    Attribute every SLO-violating request span to its dominant latency
    cause and replay each violation's hardware decision against the
    recorded candidate table (avoidable / mis-selected / unavoidable).
``trace-diff BASELINE CANDIDATE [--slo MS]``
    Compare two recorded traces: per-phase latency deltas and
    per-cause violation deltas.
``cost-report MODEL [--schemes S1,S2|all] [--trace T] [--duration D]
    [--seed N] [--budget DOLLARS] [--svg F.svg] [--json F.json]``
    Run each scheme under the cost meter and render the dollar
    waterfall (busy / cold-start / idle / reconfiguration buckets,
    per-spec and per-(model, hardware) attribution), the
    cost-of-compliance decision replay, and optionally a
    self-contained cost–SLO frontier SVG plus ``repro.cost/1`` JSON.
``list``
    Show available models, schemes, traces, and experiments.

All output flows through the stdlib ``logging`` module: the ``repro``
root logger is configured once here, and ``--verbose`` raises it to
DEBUG for component diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
from typing import Callable, Optional, Sequence

from repro.analysis.attribution import (
    attribute_trace,
    render_attribution_html,
    render_attribution_report,
    write_attribution_json,
)
from repro.analysis.cost_report import (
    cost_of_compliance,
    breakdown_json,
    render_cost_report,
    write_cost_frontier_svg,
    write_cost_json,
)
from repro.analysis.report import emit, render_kv, render_table, scheme_label
from repro.analysis.timeseries_report import (
    render_timeseries_report,
    write_timeseries_svg,
)
from repro.analysis.trace_diff import diff_traces, render_trace_diff
from repro.analysis.trace_report import render_trace_report
from repro.experiments import table2
from repro.experiments.cache import (
    CACHE_METRICS,
    DEFAULT_CACHE_DIR,
    ResultCache,
    set_active_cache,
)
from repro.experiments.executors import (
    EXECUTOR_METRICS,
    EXECUTOR_NAMES,
    CellExecutionError,
    CellFaultPolicy,
    ExecutionSettings,
    set_active_execution,
)
from repro.experiments.registry import (
    all_experiments,
    experiment_ids,
    get_experiment,
)
from repro.experiments.schemes import ALL_SCHEMES, make_policy
from repro.core.resilience import ResilienceConfig
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.simulator.chaos import ChaosSpec
from repro.hardware.profiles import ProfileService
from repro.telemetry import (
    LiveDashboard,
    RunLedger,
    RunProfiler,
    TraceData,
    Tracer,
    load_profile,
    read_timeseries,
    render_profile_diff,
    summary_counts,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.ledger import (
    DEFAULT_LEDGER_PATH,
    render_comparison,
    render_run_rows,
)
from repro.workloads.models import ALL_MODELS, get_model
from repro.workloads.traces import (
    azure_trace,
    poisson_trace,
    twitter_trace,
    wiki_trace,
)

__all__ = ["main", "build_parser", "configure_logging"]

logger = logging.getLogger(__name__)

_TRACES: dict[str, Callable] = {
    "azure": lambda model, duration, seed: azure_trace(
        peak_rps=model.peak_rps, duration=duration, seed=seed
    ),
    "wiki": lambda model, duration, seed: wiki_trace(
        peak_rps=170.0, duration=duration, day_seconds=max(duration / 2, 60.0),
        seed=seed,
    ),
    "twitter": lambda model, duration, seed: twitter_trace(
        mean_rps=5.0 * model.peak_rps / 12.2, duration=duration, seed=seed
    ),
    "poisson": lambda model, duration, seed: poisson_trace(
        rate_rps=model.peak_rps, duration=duration, seed=seed
    ),
}


class _CliFormatter(logging.Formatter):
    """Deliverable output (INFO) stays bare; diagnostics get a prefix."""

    def format(self, record: logging.LogRecord) -> str:
        msg = record.getMessage()
        if record.levelno == logging.INFO:
            return msg
        return f"[{record.levelname.lower()}] {record.name}: {msg}"


class _StdoutHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stdout`` is when a record is emitted, so
    a caller that redirected stdout around :func:`main` and closed its
    buffer leaves later log records a working stream."""

    @property
    def stream(self):
        return sys.stdout

    @stream.setter
    def stream(self, _stream) -> None:
        pass

    def handleError(self, record: logging.LogRecord) -> None:
        # A reader that closed the pipe (``| head``) ends the command;
        # :func:`main` stops it instead of logging one error per line.
        if isinstance(sys.exc_info()[1], BrokenPipeError):
            raise
        super().handleError(record)


def configure_logging(verbose: bool = False) -> None:
    """Configure the ``repro`` root logger exactly once per invocation
    (``force=True`` replaces the previous invocation's handler)."""
    handler = _StdoutHandler()
    handler.setFormatter(_CliFormatter())
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        handlers=[handler],
        force=True,
    )


class CliError(Exception):
    """A command's input is missing or unusable: :func:`main` logs the
    message as one error line and exits 1."""


@contextlib.contextmanager
def _input(missing: str = "", invalid: str = "", path: Optional[str] = None):
    """Re-raise a command's input errors as one :class:`CliError`.

    A missing file reads ``"{missing}: {path}"`` (the error itself when
    no ``path`` is given), a ValueError ``"{invalid}: {error}"`` (the
    error alone without ``invalid``), and a KeyError — an unknown run
    or request id — its own message.
    """
    try:
        yield
    except FileNotFoundError as exc:
        raise CliError(f"{missing}: {exc if path is None else path}") from None
    except ValueError as exc:
        raise CliError(f"{invalid}: {exc}" if invalid else str(exc)) from None
    except KeyError as exc:
        raise CliError(exc.args[0]) from None


def _checked(convert: Callable, ok: Callable, requirement: str) -> Callable:
    """An argparse ``type=`` that rejects what ``convert`` cannot parse or
    ``ok`` refuses, so a bad flag is a usage error (exit 2) before
    anything runs."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}"
            )
        return value

    return parse


_duration = _checked(float, lambda v: 0 < v < math.inf,
                     "a positive finite number of seconds")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive = _checked(float, lambda v: v > 0, "positive")
_fraction = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_tolerance = _checked(float, lambda v: 0 <= v < math.inf,
                      "a non-negative finite number")
_slo_ms = _checked(float, lambda v: 0 < v < math.inf,
                   "a positive finite number of milliseconds")
_panel_width = _checked(int, lambda v: v >= 8, "an integer >= 8")  # renderer's floor


def _writable(path: str) -> bool:
    """Whether ``path`` names a file in an existing, writable directory."""
    return (bool(path) and not os.path.isdir(path)
            and os.access(os.path.dirname(os.path.abspath(path)), os.W_OK))


#: A FILE the command writes, checked before anything runs, so a run
#: does not die at its end on a path it cannot write.
_output_file = _checked(str, _writable,
                        "a file in an existing, writable directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Paldia (IPDPS 2024) reproduction toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="store_true",
        help="enable DEBUG logging on the repro logger",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An unknown model is a usage error, like an unknown scheme.
    model_arg = dict(choices=[m.name for m in ALL_MODELS], metavar="MODEL")

    p = sub.add_parser("profiles", parents=[common],
                       help="print catalog + profiled rows")
    p.add_argument("model", nargs="?", default="resnet50", **model_arg)

    for name in ("run", "compare"):
        p = sub.add_parser(name, parents=[common],
                           help=f"{name} scheme(s) on one workload")
        p.add_argument("model", **model_arg)
        p.add_argument("--scheme", default="paldia",
                       choices=ALL_SCHEMES)
        p.add_argument("--trace", default="azure", choices=sorted(_TRACES))
        p.add_argument("--duration", type=_duration, default=300.0)
        p.add_argument("--seed", type=_non_negative_int, default=0)
        if name == "run":
            p.add_argument(
                "--chaos", metavar="FILE",
                help="inject faults from a ChaosSpec JSON file "
                "(see docs/RESILIENCE.md for the format)",
            )
            p.add_argument(
                "--recovery", choices=("requeue", "drop", "retry"),
                default=None,
                help="recovery policy for fault-evicted work; any value "
                "enables the resilience layer (deadline-aware retry, "
                "per-target circuit breakers, graceful degradation)",
            )
            p.add_argument(
                "--trace-out", metavar="FILE", type=_output_file,
                help="record telemetry and write the JSONL trace here",
            )
            p.add_argument(
                "--chrome-trace", metavar="FILE", type=_output_file,
                help="record telemetry and write a Chrome trace_event "
                "JSON (open in Perfetto / chrome://tracing)",
            )
            p.add_argument(
                "--prom-out", metavar="FILE", type=_output_file,
                help="record telemetry and write a Prometheus text-format "
                "metrics snapshot (latency histogram, time-series and SLO "
                "window gauges) taken at end of run",
            )
            p.add_argument(
                "--self-profile", action="store_true",
                help="run under the hierarchical self-profiler and print "
                "the phase tree (engine callback sites as cb: frames) "
                "after the run result",
            )
            p.add_argument(
                "--profile-out", metavar="FILE", type=_output_file,
                help="self-profile the run and write the standalone "
                "repro.selfprof/1 JSON snapshot here (implies "
                "--self-profile; needs no other telemetry flag)",
            )
            p.add_argument(
                "--live", action="store_true",
                help="paint a live dashboard (rate, hardware, queue, "
                "pools, burn rate) while the run executes; degrades to "
                "plain log lines when stdout is not a TTY",
            )
            p.add_argument(
                "--timeseries-out", metavar="FILE", type=_output_file,
                help="record the sampled time-series and save the bundle "
                "here (.npz for columnar numpy, anything else JSONL)",
            )
            p.add_argument(
                "--timeseries-interval", type=_duration, metavar="SECONDS",
                default=0.5,
                help="state-sampling interval in simulated seconds "
                "(default: 0.5)",
            )
            p.add_argument(
                "--ledger", metavar="DB", nargs="?",
                const=DEFAULT_LEDGER_PATH, default=None,
                help="append this run's headline metrics to the SQLite "
                f"run ledger (default file: {DEFAULT_LEDGER_PATH})",
            )
            p.add_argument(
                "--budget", type=_positive, metavar="DOLLARS", default=None,
                help="dollar budget for the run; the cost monitor emits "
                "edge-triggered budget_alert events when the projected "
                "end-of-run spend crosses it (implies telemetry)",
            )
            p.add_argument(
                "--reqtrace", action="store_true",
                help="record a per-request causal trace (phase "
                "waterfalls, batch peers, retries, node churn) and "
                "print the worst-request summary (implies telemetry)",
            )
            p.add_argument(
                "--reqtrace-sample", type=_fraction, metavar="P", default=1.0,
                help="fraction of batches to retain in the request "
                "trace (deterministic per seed; the worst batches are "
                "always kept, so worst-K forensics stay exact; "
                "default: 1.0)",
            )
            p.add_argument(
                "--reqtrace-out", metavar="FILE", type=_output_file,
                help="write the request trace as repro.reqtrace/1 JSONL "
                "here (implies --reqtrace; feed to request-trace)",
            )

    p = sub.add_parser("experiment", parents=[common],
                       help="regenerate a paper figure/table")
    p.add_argument("experiment_id", choices=experiment_ids())
    p.add_argument("--duration", type=_duration, default=300.0)
    p.add_argument("--repetitions", type=_positive_int, default=2)
    p.add_argument(
        "--seed", type=_non_negative_int, default=None,
        help="seed handed to the experiment's runner as its seed or seed0 "
        "(default: the experiment's own seed)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="recompute every matrix cell instead of replaying the "
        "on-disk result cache",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help=f"result-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    p.add_argument(
        "--executor", default="auto",
        choices=("auto",) + EXECUTOR_NAMES,
        help="matrix execution backend (default: auto — serial for "
        "small matrices, a local process pool otherwise; chaos-* "
        "variants inject deterministic faults for testing)",
    )
    p.add_argument(
        "--cell-retries", type=_non_negative_int, default=None, metavar="N",
        help="retry each failing matrix cell up to N times (crash, "
        "timeout, and exception faults are classified and retried with "
        "decorrelated-jitter backoff; default: no retries)",
    )
    p.add_argument(
        "--cell-timeout", type=_positive, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget; stragglers past it are "
        "abandoned and retried (default: no timeout)",
    )
    p.add_argument(
        "--on-cell-failure", default="fail", choices=("fail", "skip"),
        help="after retries are exhausted: 'fail' aborts the "
        "experiment, 'skip' records the hole and continues "
        "(summaries touching a holed cell still refuse loudly)",
    )
    p.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed for the chaos-* executors' fault draws",
    )
    p.add_argument(
        "--prom-out", metavar="FILE", type=_output_file, default=None,
        help="write executor + cache counters (retries, timeouts, "
        "worker crashes, hits, misses) as a Prometheus text-format "
        "snapshot",
    )

    p = sub.add_parser(
        "profile", parents=[common],
        help="self-profile one run: phase tree + flamegraph exports",
    )
    p.add_argument("model", nargs="?", default="resnet50", **model_arg)
    p.add_argument("--scheme", default="paldia",
                   choices=ALL_SCHEMES)
    p.add_argument("--trace", default="azure", choices=sorted(_TRACES))
    p.add_argument("--duration", type=_duration, default=60.0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument(
        "--json", metavar="FILE", dest="json_out", type=_output_file,
        help="write the repro.selfprof/1 JSON snapshot here "
        "(feed two of these to profile --diff)",
    )
    p.add_argument(
        "--speedscope", metavar="FILE", dest="speedscope_out",
        type=_output_file,
        help="write a speedscope-format profile here "
        "(open at https://www.speedscope.app)",
    )
    p.add_argument(
        "--collapsed", metavar="FILE", dest="collapsed_out", type=_output_file,
        help="write flamegraph.pl-compatible collapsed stacks here",
    )
    p.add_argument(
        "--alloc", action="store_true",
        help="also track per-phase allocation deltas via tracemalloc "
        "(slows the run; wall-clock numbers remain comparable only "
        "to other --alloc profiles)",
    )
    p.add_argument(
        "--top", type=_positive_int, default=40,
        help="phase-tree rows to print (default: 40)",
    )
    p.add_argument(
        "--diff", nargs=2, metavar=("BASELINE", "CANDIDATE"),
        default=None,
        help="instead of running: diff two saved profile JSONs, "
        "largest per-phase exclusive-time movers first",
    )

    p = sub.add_parser("trace-report", parents=[common],
                       help="post-mortem a recorded JSONL trace")
    p.add_argument("trace_file")
    p.add_argument("--max-rows", type=_positive_int, default=30,
                   help="decision-audit rows to show")
    p.add_argument(
        "--top-k", type=_non_negative_int, default=0, metavar="K",
        help="also rank the K slowest requests (causal context with "
        "--reqtrace, latency-only otherwise)",
    )
    p.add_argument(
        "--reqtrace", metavar="FILE", dest="reqtrace_file", default=None,
        help="repro.reqtrace/1 request trace backing the --top-k table "
        "with per-request causal context",
    )

    p = sub.add_parser(
        "request-trace", parents=[common],
        help="tail forensics over a repro.reqtrace/1 request trace",
    )
    p.add_argument("reqtrace_file",
                   help="request trace written by run --reqtrace-out")
    p.add_argument(
        "--request", type=int, metavar="RID", default=None,
        help="show one request's causal waterfall by request id",
    )
    p.add_argument(
        "--worst", type=_positive_int, metavar="K", default=10,
        help="worst-K requests to show full waterfalls for "
        "(default: 10; ignored with --request)",
    )
    p.add_argument(
        "--svg", metavar="FILE", dest="svg_out", type=_output_file,
        help="also write the worst-K waterfalls as a self-contained "
        "SVG here",
    )

    p = sub.add_parser(
        "timeseries-report", parents=[common],
        help="render panels from a saved time-series bundle",
    )
    p.add_argument("bundle", help="bundle written by run --timeseries-out")
    p.add_argument("--width", type=_panel_width, default=72,
                   help="panel width in characters")
    p.add_argument(
        "--svg", metavar="FILE", dest="svg_out", type=_output_file,
        help="also write the panels as a self-contained SVG here",
    )

    p = sub.add_parser(
        "runs", parents=[common],
        help="query the cross-run ledger (list/show/compare)",
    )
    ledger_common = argparse.ArgumentParser(add_help=False)
    ledger_common.add_argument(
        "--ledger", metavar="DB", default=DEFAULT_LEDGER_PATH,
        help=f"ledger database file (default: {DEFAULT_LEDGER_PATH})",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    rp = runs_sub.add_parser("list", parents=[common, ledger_common],
                             help="recorded runs, newest first")
    rp.add_argument("--limit", type=_positive_int, default=20,
                    help="show at most this many runs")
    rp = runs_sub.add_parser("show", parents=[common, ledger_common],
                             help="one run's full metrics")
    rp.add_argument("run_id", type=int)
    rp = runs_sub.add_parser(
        "compare", parents=[common, ledger_common],
        help="diff two runs with regression flags",
    )
    rp.add_argument("baseline_id", type=int)
    rp.add_argument("candidate_id", type=int)
    rp.add_argument(
        "--rel-tolerance", type=_tolerance, default=0.05,
        help="relative worsening above which a scalar metric (p99, "
        "cost, cold starts) is flagged REGRESSED (default: 0.05)",
    )
    rp.add_argument(
        "--abs-tolerance", type=_tolerance, default=0.005,
        help="absolute worsening above which a rate metric (compliance, "
        "violation rate) is flagged REGRESSED (default: 0.005)",
    )

    p = sub.add_parser(
        "trace-attribution", parents=[common],
        help="attribute SLO violations to causes + counterfactual replay",
    )
    p.add_argument("trace_file")
    p.add_argument(
        "--slo", type=_slo_ms, metavar="MS", default=None,
        help="SLO deadline in milliseconds (default: the trace's own)",
    )
    p.add_argument(
        "--json", metavar="FILE", dest="json_out", type=_output_file,
        help="also write the machine-readable attribution report here",
    )
    p.add_argument(
        "--html", metavar="FILE", dest="html_out", type=_output_file,
        help="also write a self-contained HTML report (inline SVG "
        "attainment timeline, no external assets) here",
    )
    p.add_argument("--max-rows", type=_positive_int, default=20,
                   help="violation rows to show in the terminal table")

    p = sub.add_parser(
        "trace-diff", parents=[common],
        help="compare two recorded traces: phase and violation deltas",
    )
    p.add_argument("baseline")
    p.add_argument("candidate")
    p.add_argument(
        "--slo", type=_slo_ms, metavar="MS", default=None,
        help="SLO deadline in milliseconds (default: baseline trace's own)",
    )

    p = sub.add_parser(
        "cost-report", parents=[common],
        help="itemized cost waterfall + cost–SLO frontier per scheme",
    )
    p.add_argument("model", **model_arg)
    p.add_argument(
        "--schemes", default="paldia", metavar="S1,S2|all",
        help="comma-separated schemes to run, or 'all' "
        f"(available: {', '.join(ALL_SCHEMES)})",
    )
    p.add_argument("--trace", default="azure", choices=sorted(_TRACES))
    p.add_argument("--duration", type=_duration, default=120.0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument(
        "--budget", type=_positive, metavar="DOLLARS", default=None,
        help="dollar budget handed to the cost monitor (budget_alert "
        "events are counted per scheme)",
    )
    p.add_argument(
        "--svg", metavar="FILE", dest="svg_out", type=_output_file,
        help="write the cost–SLO frontier scatter (self-contained SVG, "
        "one point per scheme) here",
    )
    p.add_argument(
        "--json", metavar="FILE", dest="json_out", type=_output_file,
        help="write the machine-readable repro.cost/1 report here",
    )

    sub.add_parser("list", parents=[common],
                   help="show models, schemes, traces, experiments")
    return parser


def _cmd_profiles(args) -> int:
    emit(table2.run(profile_model=args.model).rendered())
    return 0


class _Scenario:
    """The workload ``run``, ``compare``, ``profile`` and ``cost-report``
    serve: ``args``' model and trace, a fresh profile database and SLO,
    and a :class:`RunConfig` on ``--seed`` with the ``config`` fields
    given, so the cluster runs on the seed the trace was drawn with."""

    def __init__(self, args, **config) -> None:
        self.args = args
        self.model = get_model(args.model)
        self.profiles = ProfileService()
        self.slo = SLO()
        self.trace = _TRACES[args.trace](self.model, args.duration, args.seed)
        self.config = RunConfig(seed=args.seed, **config)

    def serve(self, scheme: str, tracer: Optional[Tracer] = None):
        """Run ``scheme``; returns ``(RunResult, ServerlessRun)`` so
        callers can reach post-run state (telemetry pillars, sim clock)."""
        logger.debug("running scheme %s on %s (%d requests)",
                     scheme, self.model.name, self.trace.n_requests)
        policy = make_policy(scheme, self.model, self.profiles,
                             self.slo.target_seconds, self.trace)
        run = ServerlessRun(self.model, self.trace, policy, self.profiles,
                            self.slo, self.config, tracer=tracer)
        return run.execute(), run

    def profiler(self, track_alloc: bool = False) -> RunProfiler:
        """A self-profiler whose metadata names the scenario."""
        keys = ("model", "scheme", "trace", "duration", "seed")
        meta = {key: getattr(self.args, key) for key in keys}
        return RunProfiler(track_alloc=track_alloc, meta=meta)


def _cmd_run(args) -> int:
    reqtrace = bool(args.reqtrace or args.reqtrace_out)
    tracing = bool(
        args.trace_out or args.chrome_trace or args.prom_out
        or args.live or args.timeseries_out or args.ledger
        or args.budget is not None or reqtrace
    )
    tracer = Tracer() if tracing else None
    with _input("chaos spec not found", "invalid chaos spec", args.chaos):
        chaos = ChaosSpec.load(args.chaos) if args.chaos else None
    scenario = _Scenario(
        args,
        chaos=chaos,
        resilience=(
            ResilienceConfig(recovery=args.recovery) if args.recovery else None
        ),
        timeseries_interval_seconds=args.timeseries_interval,
        cost_budget_dollars=args.budget,
        reqtrace=reqtrace,
        reqtrace_sample=args.reqtrace_sample,
    )
    profiler = (
        scenario.profiler() if args.self_profile or args.profile_out else None
    )
    dashboard = None
    if args.live:
        dashboard = LiveDashboard(
            hardware_names={
                i: spec.name for i, spec in enumerate(scenario.profiles.catalog)
            },
        )
        tracer.timeseries_observers.append(dashboard.on_sample)
    with profiler or contextlib.nullcontext():
        result, run = scenario.serve(args.scheme, tracer=tracer)
    if dashboard is not None:
        dashboard.finish(run.sim.now)
        emit("")
    trace = scenario.trace
    kv = {
        "scheme": scheme_label(args.scheme),
        "model": scenario.model.display_name,
        "trace": f"{args.trace} ({trace.n_requests} requests, "
        f"peak {trace.peak_rps:.0f} rps)",
        "SLO compliance": f"{100 * result.slo_compliance:.2f}%",
        "P99": f"{result.p99_seconds * 1e3:.1f} ms",
        "cost": f"${result.total_cost:.4f}",
        "switches": result.n_switches,
        "cold starts": result.cold_starts,
    }
    if args.budget is not None:
        kv["budget"] = (
            f"${args.budget:.4f} "
            f"({result.budget_alerts} budget_alert transitions)"
        )
    if run._chaos is not None:
        kv["faults injected"] = ", ".join(
            f"{kind}={n}" for kind, n in run._chaos.injected.items() if n
        ) or "none"
    if run.resilience is not None:
        kv["retries"] = (
            f"{result.retries_scheduled} scheduled, "
            f"{result.retries_abandoned} abandoned"
        )
        kv["lost requests"] = (
            f"{result.requests_shed} shed, {result.requests_dropped} dropped"
        )
    emit(render_kv(kv, title="run result"))
    if tracer is not None:
        obs = run.obs
        emit("")
        emit(render_kv(summary_counts(tracer), title="telemetry"))
        if args.trace_out:
            n = write_jsonl(tracer, args.trace_out)
            emit(f"wrote {n} JSONL records to {args.trace_out}")
        if args.chrome_trace:
            n = write_chrome_trace(tracer, args.chrome_trace)
            emit(
                f"wrote {n} trace events to {args.chrome_trace} "
                "(open in https://ui.perfetto.dev)"
            )
        if args.prom_out:
            n = write_prometheus(
                tracer, args.prom_out,
                monitor=obs.slo_monitor, now=run.sim.now,
                costmeter=obs.costmeter,
            )
            emit(f"wrote {n} Prometheus samples to {args.prom_out}")
        if args.timeseries_out:
            n = obs.sampler.save(args.timeseries_out)
            emit(
                f"wrote {n} time-series columns "
                f"({obs.sampler.n_samples} samples) to {args.timeseries_out}"
            )
        if result.reqtrace is not None:
            worst = result.reqtrace.worst(1)
            if worst:
                worst_view = worst[0]
                emit("")
                emit(render_kv(
                    {
                        "requests traced": (
                            f"{result.reqtrace.n_requests_traced} of "
                            f"{result.reqtrace.meta['n_requests_seen']}"
                        ),
                        "worst request": (
                            f"#{worst_view.rid} "
                            f"({worst_view.latency * 1e3:.1f} ms, "
                            f"dominant phase {worst_view.dominant_phase})"
                        ),
                    },
                    title="request trace",
                ))
            if args.reqtrace_out:
                n = result.reqtrace.save_jsonl(args.reqtrace_out)
                emit(
                    f"wrote {n} request-trace records to "
                    f"{args.reqtrace_out} (inspect with: repro "
                    f"request-trace {args.reqtrace_out})"
                )
        if args.ledger:
            top = profiler.top_phases(1) if profiler is not None else []
            profile = (
                {"top_phase": top[0][0], "top_phase_share": top[0][1]}
                if top else {}
            )
            try:
                ledger = RunLedger(args.ledger)
            except ValueError as exc:
                logger.warning(
                    "%s; the run completed but is not recorded", exc
                )
            else:
                with ledger:
                    run_id = ledger.record(
                        result, trace=args.trace, seed=args.seed, **profile,
                    )
                if run_id >= 0:
                    emit(f"recorded run #{run_id} in {args.ledger}")
    if profiler is not None:
        if args.self_profile:
            emit("")
            emit(profiler.rendered())
        if args.profile_out:
            profiler.save(args.profile_out)
            emit(f"wrote self-profile JSON to {args.profile_out}")
    return 0


def _cmd_compare(args) -> int:
    scenario = _Scenario(args)
    rows = []
    for scheme in ALL_SCHEMES:
        r, _ = scenario.serve(scheme)
        rows.append(
            [
                scheme_label(scheme),
                round(100 * r.slo_compliance, 2),
                round(r.p99_seconds * 1e3, 1),
                round(r.total_cost, 4),
                r.n_switches,
            ]
        )
    emit(
        render_table(
            ["scheme", "slo_%", "p99_ms", "cost_$", "switches"],
            rows,
            title=f"{scenario.model.display_name} on {args.trace} "
            f"({args.duration:.0f}s, seed {args.seed})",
        )
    )
    return 0


def _execution_settings(args) -> ExecutionSettings:
    policy = None
    if args.cell_retries is not None or args.cell_timeout is not None:
        policy = CellFaultPolicy(
            max_attempts=(
                args.cell_retries + 1 if args.cell_retries is not None else 1
            ),
            cell_timeout_seconds=args.cell_timeout,
            seed=args.seed if args.seed is not None else 0,
        )
    return ExecutionSettings(
        executor=None if args.executor == "auto" else args.executor,
        fault_policy=policy,
        on_cell_failure=args.on_cell_failure,
        chaos_seed=args.chaos_seed,
    )


def _write_experiment_prom(path: str) -> None:
    from repro.telemetry.prometheus import to_prometheus_text

    text = to_prometheus_text(EXECUTOR_METRICS)
    text += to_prometheus_text(CACHE_METRICS)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    emit(f"wrote executor + cache counters to {path}")


def _rerun_hint(cache: Optional[ResultCache]) -> None:
    """After an interrupted or failed sweep: where its finished cells are."""
    if cache is not None:
        emit(f"finished cells are cached in {cache.cache_dir}; run the "
             "same command again to compute only the rest")


def _cmd_experiment(args) -> int:
    entry = get_experiment(args.experiment_id)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    previous = set_active_cache(cache)
    previous_exec = set_active_execution(_execution_settings(args))
    try:
        reports = entry.reports(
            duration=args.duration,
            repetitions=args.repetitions,
            seed=args.seed,
        )
    except KeyboardInterrupt:
        emit("interrupted")
        _rerun_hint(cache)
        return 130
    except CellExecutionError as exc:
        logger.error("experiment aborted: %s", exc)
        _rerun_hint(cache)
        return 1
    finally:
        set_active_cache(previous)
        set_active_execution(previous_exec)
    for i, report in enumerate(reports):
        if i:
            emit("")
        emit(report.rendered())
    if cache is not None and (cache.n_hits or cache.n_misses):
        logger.debug(
            "result cache: %d hits, %d misses, %d stored (%s)",
            cache.n_hits, cache.n_misses, cache.n_stores, cache.cache_dir,
        )
        emit(
            f"cache: replayed {cache.n_hits}/{cache.n_hits + cache.n_misses} "
            f"cells from {cache.cache_dir}"
        )
    retries = EXECUTOR_METRICS.counter("executor.cell_retry").value
    timeouts = EXECUTOR_METRICS.counter("executor.cell_timeout").value
    crashes = EXECUTOR_METRICS.counter("executor.worker_crash").value
    if retries or timeouts or crashes:
        emit(
            f"executor: {int(retries)} retries, {int(timeouts)} timeouts, "
            f"{int(crashes)} worker crashes survived"
        )
    if args.prom_out:
        _write_experiment_prom(args.prom_out)
    return 0


def _cmd_profile(args) -> int:
    if args.diff:
        baseline_path, candidate_path = args.diff
        with _input("profile not found", "not a valid self-profile"):
            baseline = load_profile(baseline_path)
            candidate = load_profile(candidate_path)
        emit(render_profile_diff(baseline, candidate, top=args.top))
        return 0
    import json

    scenario = _Scenario(args)
    prof = scenario.profiler(track_alloc=args.alloc)
    with prof:
        result, _run = scenario.serve(args.scheme)
    emit(prof.rendered(top=args.top))
    emit("")
    attributed = prof.total_seconds
    wall = result.wall_seconds
    shares = sorted(
        prof.subsystem_shares().items(), key=lambda kv: kv[1], reverse=True
    )
    kv = {
        "wall clock": f"{wall:.3f} s",
        "attributed": (
            f"{attributed:.3f} s"
            + (f" ({100 * attributed / wall:.1f}% of wall)" if wall else "")
        ),
        "top subsystems": ", ".join(
            f"{name} {100 * share:.1f}%" for name, share in shares[:3]
        ),
    }
    emit(render_kv(kv, title="attribution"))
    if args.json_out:
        prof.save(args.json_out)
        emit(f"wrote self-profile JSON to {args.json_out}")
    if args.speedscope_out:
        scope_name = f"{args.scheme}/{args.model}/{args.trace}"
        with open(args.speedscope_out, "w", encoding="utf-8") as fh:
            json.dump(prof.to_speedscope(scope_name), fh, indent=1)
            fh.write("\n")
        emit(
            f"wrote speedscope profile to {args.speedscope_out} "
            "(open at https://www.speedscope.app)"
        )
    if args.collapsed_out:
        with open(args.collapsed_out, "w", encoding="utf-8") as fh:
            fh.write(prof.to_collapsed())
        emit(
            f"wrote collapsed stacks to {args.collapsed_out} "
            "(render with flamegraph.pl)"
        )
    return 0


def _cmd_trace_report(args) -> int:
    reqtrace = None
    if args.top_k > 0 and args.reqtrace_file:
        from repro.analysis.request_forensics import load_reqtrace

        try:
            reqtrace = load_reqtrace(args.reqtrace_file)
        except (FileNotFoundError, ValueError) as exc:
            # Absent/invalid request-trace data degrades the --top-k
            # table to the latency-only ranking; the post-mortem itself
            # still renders and the command still exits 0.
            logger.warning(
                "request trace unusable (%s); falling back to "
                "latency-only ranking", exc,
            )
    with _input("trace file not found", "not a valid trace file",
                args.trace_file):
        report = render_trace_report(
            args.trace_file, max_decision_rows=args.max_rows,
            top_k=args.top_k, reqtrace=reqtrace,
        )
    emit(report)
    return 0


def _cmd_request_trace(args) -> int:
    from repro.analysis.request_forensics import (
        load_reqtrace,
        render_forensics_report,
        render_waterfall,
        render_waterfall_svg,
    )

    with _input("request trace not found", "not a valid request trace",
                args.reqtrace_file):
        data = load_reqtrace(args.reqtrace_file)
    if args.request is not None:
        with _input():
            view = data.request(args.request)
        emit(render_waterfall(view, data))
    else:
        emit(render_forensics_report(data, top_k=args.worst))
    if args.svg_out:
        with open(args.svg_out, "w", encoding="utf-8") as fh:
            fh.write(render_waterfall_svg(data, top_k=args.worst))
        emit(f"wrote worst-{args.worst} waterfall SVG to {args.svg_out}")
    return 0


def _cmd_timeseries_report(args) -> int:
    with _input("time-series bundle not found",
                "not a valid time-series bundle", args.bundle):
        data = read_timeseries(args.bundle)
    emit(render_timeseries_report(data, width=args.width))
    if args.svg_out:
        n = write_timeseries_svg(data, args.svg_out)
        emit(f"wrote {n} SVG panels to {args.svg_out}")
    return 0


def _cmd_runs(args) -> int:
    import os

    if not os.path.exists(args.ledger):
        raise CliError(
            f"no ledger at {args.ledger} "
            "(record runs with: repro run MODEL --ledger)"
        )
    # An unusable ledger file and an unknown run id are input errors.
    with _input(), RunLedger(args.ledger) as ledger:
        if args.runs_command == "list":
            records = ledger.list_runs(limit=args.limit)
            if not records:
                emit(f"ledger {args.ledger} is empty")
                return 0
            emit(
                render_table(
                    ["id", "recorded", "sha", "scheme", "model", "trace",
                     "seed", "slo_%", "p99_ms", "cost_$", "wall_s"],
                    render_run_rows(records),
                    title=f"run ledger ({args.ledger})",
                )
            )
            return 0
        if args.runs_command == "show":
            r = ledger.get(args.run_id)
            m = r.metric
            kv = {
                "recorded": r.created_utc,
                "git sha": r.git_sha or "-",
                "scheme": r.scheme,
                "model": r.model,
                "trace": f"{r.trace} (seed {r.seed}, {r.duration:.0f}s)",
                "requests": f"{m('completed')}/{m('offered')} completed",
                "SLO compliance": f"{100 * m('slo_compliance'):.2f}%",
                "violation rate": f"{100 * m('violation_rate'):.2f}%",
                "P50 / P99": (
                    f"{m('p50_seconds') * 1e3:.1f} / "
                    f"{m('p99_seconds') * 1e3:.1f} ms"
                ),
                "cost": f"${m('total_cost'):.4f}",
                "cold starts": m("cold_starts"),
                "switches": m("n_switches"),
            }
            if m("cost_per_1k_requests"):
                kv["cost / 1k requests"] = (
                    f"${m('cost_per_1k_requests'):.4f}"
                )
            if m("idle_cost") or m("coldstart_cost"):
                kv["overhead dollars"] = (
                    f"idle ${m('idle_cost'):.4f}, "
                    f"cold-start ${m('coldstart_cost'):.4f}"
                )
            if m("wall_seconds"):
                kv["wall clock"] = f"{m('wall_seconds'):.2f} s"
            if m("top_phase"):
                kv["top phase"] = (
                    f"{m('top_phase')} "
                    f"({100 * m('top_phase_share'):.1f}%)"
                )
            if m("cache_hits") or m("cache_misses"):
                kv["cache"] = (
                    f"{m('cache_hits')} hits, {m('cache_misses')} misses"
                )
            if m("cell_retries") or m("cell_timeouts") or m("worker_crashes"):
                kv["executor faults"] = (
                    f"{m('cell_retries')} retries, {m('cell_timeouts')} "
                    f"timeouts, {m('worker_crashes')} worker crashes"
                )
            if m("worst_request_id") >= 0:
                kv["worst request"] = (
                    f"#{m('worst_request_id')} "
                    f"({m('worst_request_latency') * 1e3:.1f} ms, "
                    f"dominant phase {m('worst_request_phase') or '-'})"
                )
            emit(render_kv(kv, title=f"run #{r.run_id}"))
            return 0
        # compare
        cmp = ledger.compare(
            args.baseline_id, args.candidate_id,
            rel_tolerance=args.rel_tolerance,
            abs_tolerance=args.abs_tolerance,
        )
        emit(render_comparison(cmp))
        return 2 if cmp.regressed else 0


def _cmd_trace_attribution(args) -> int:
    slo_seconds = args.slo / 1e3 if args.slo is not None else None
    with _input("trace file not found", "cannot attribute trace",
                args.trace_file):
        report = attribute_trace(args.trace_file, slo_seconds=slo_seconds)
    emit(render_attribution_report(report, max_rows=args.max_rows))
    if args.json_out:
        write_attribution_json(report, args.json_out)
        emit(f"wrote attribution JSON to {args.json_out}")
    if args.html_out:
        with open(args.html_out, "w", encoding="utf-8") as fh:
            fh.write(render_attribution_html(report))
        emit(f"wrote HTML report to {args.html_out}")
    return 0


def _cmd_trace_diff(args) -> int:
    slo_seconds = args.slo / 1e3 if args.slo is not None else None
    with _input("trace file not found", "cannot diff traces"):
        diff = diff_traces(
            args.baseline, args.candidate, slo_seconds=slo_seconds
        )
    emit(render_trace_diff(diff))
    return 0


def _trace_data_of(tracer: Tracer) -> TraceData:
    """A live tracer's events as :class:`TraceData` (no file round trip)."""
    return TraceData(
        meta=dict(tracer.meta),
        events=[
            {
                "name": e.name,
                "cat": e.cat,
                "track": e.track,
                "t": e.time,
                "attrs": dict(e.attrs),
            }
            for e in tracer.events
        ],
    )


def _cmd_cost_report(args) -> int:
    if args.schemes == "all":
        schemes = ALL_SCHEMES
    else:
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        unknown = [s for s in schemes if s not in ALL_SCHEMES]
        if unknown:
            raise CliError(
                f"unknown scheme(s): {', '.join(unknown)} "
                f"(available: {', '.join(ALL_SCHEMES)})"
            )
    scenario = _Scenario(args, cost_budget_dollars=args.budget)
    model = scenario.model
    points: list[dict] = []
    json_runs: list[dict] = []
    for i, scheme in enumerate(schemes):
        tracer = Tracer()
        result, run = scenario.serve(scheme, tracer=tracer)
        breakdown = result.cost_breakdown
        if breakdown is None:
            raise CliError(f"cost meter recorded nothing for {scheme}")
        compliance = cost_of_compliance(
            _trace_data_of(tracer),
            slo_seconds=scenario.slo.target_seconds,
            horizon=run.sim.now,
        )
        if i:
            emit("")
        title = (
            f"cost waterfall — {scheme_label(scheme)} / "
            f"{model.display_name} on {args.trace} "
            f"({args.duration:.0f}s, seed {args.seed})"
        )
        emit(
            render_cost_report(
                breakdown,
                total_cost=result.total_cost,
                compliance=compliance,
                title=title,
            )
        )
        if args.budget is not None:
            emit(
                f"budget ${args.budget:.4f}: "
                f"{result.budget_alerts} budget_alert transitions"
            )
        points.append({
            "label": scheme_label(scheme),
            "cost_dollars": result.total_cost,
            "compliance": result.slo_compliance,
        })
        json_runs.append({
            "scheme": scheme,
            "model": model.name,
            "trace": args.trace,
            "seed": args.seed,
            "duration": args.duration,
            "slo_compliance": result.slo_compliance,
            "budget_alerts": result.budget_alerts,
            **breakdown_json(
                breakdown,
                total_cost=result.total_cost,
                compliance=compliance,
            ),
        })
    if args.svg_out:
        write_cost_frontier_svg(points, args.svg_out)
        emit("")
        emit(f"wrote cost–SLO frontier SVG to {args.svg_out}")
    if args.json_out:
        write_cost_json(
            json_runs, args.json_out,
            model=model.name, trace=args.trace, seed=args.seed,
            duration=args.duration, budget_dollars=args.budget,
        )
        emit(f"wrote repro.cost/1 JSON to {args.json_out}")
    return 0


def _cmd_list(args) -> int:
    lines = ["models:"]
    for m in ALL_MODELS:
        lines.append(f"  {m.name:20s} {m.domain:8s} peak {m.peak_rps:.0f} rps")
    lines.append("")
    lines.append("schemes: " + ", ".join(ALL_SCHEMES))
    lines.append("traces: " + ", ".join(sorted(_TRACES)))
    lines.append("experiments:")
    for entry in all_experiments():
        lines.append(f"  {entry.id:12s} {entry.title}")
    emit("\n".join(lines))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "verbose", False))
    handler = {
        "profiles": _cmd_profiles,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "experiment": _cmd_experiment,
        "profile": _cmd_profile,
        "trace-report": _cmd_trace_report,
        "request-trace": _cmd_request_trace,
        "timeseries-report": _cmd_timeseries_report,
        "runs": _cmd_runs,
        "trace-attribution": _cmd_trace_attribution,
        "trace-diff": _cmd_trace_diff,
        "cost-report": _cmd_cost_report,
        "list": _cmd_list,
    }[args.command]
    try:
        return handler(args)
    except CliError as exc:
        logger.error("%s", exc)
        return 1
    except BrokenPipeError:
        # Python flushes stdout at exit; point it at devnull so that
        # flush cannot fail again (the "Note on SIGPIPE" in the docs of
        # the ``signal`` module).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
