"""What a fresh process imports for the run it makes.

The package ``__init__`` s import nothing: ``repro``, ``repro.telemetry``,
``repro.analysis``, ``repro.experiments`` and
``repro.experiments.executors`` resolve each exported name on first
access, and the others only hold a docstring.  A run imports its
optional layers (the telemetry pillars, chaos, resilience, SeBS, the
experiment modules) only when it uses them.  Each case runs in its own
interpreter, prints how many ``repro`` modules it loaded and names
modules that must stay unloaded: a pattern matches a module and its
submodules, or any module name it prefixes when it ends in ``*``.
"""

import json
import subprocess
import sys

import pytest

#: The modules no run loads unless asked to, besides its own.
TELEMETRY_EXTRAS = (
    "repro.telemetry.ledger", "repro.telemetry.selfprof",
    "repro.telemetry.prometheus", "repro.telemetry.dashboard",
    "repro.telemetry.exporters",
)
PILLARS = (
    "repro.telemetry.observers", "repro.telemetry.costmeter",
    "repro.telemetry.reqtrace", "repro.telemetry.slo_monitor",
    "repro.telemetry.timeseries",
)

CASES = {
    # The six names bench/workloads.py's ``azure_day`` imports.
    "untraced": (
        """
from repro import PaldiaPolicy, ProfileService, SLO, ServerlessRun
from repro import azure_trace, get_model
model, profiles, slo = get_model("resnet50"), ProfileService(), SLO()
trace = azure_trace(peak_rps=model.peak_rps, duration=20.0, seed=0)
policy = PaldiaPolicy(model, profiles, slo.target_seconds)
ServerlessRun(model, trace, policy, profiles, slo).execute()
""",
        PILLARS + TELEMETRY_EXTRAS + (
            "repro.simulator.chaos", "repro.core.resilience",
            "repro.workloads.sebs", "repro.core.contention",
            "repro.baselines.infless_llama", "repro.baselines.molecule",
            "repro.baselines.offline_hybrid", "repro.baselines.oracle",
            "repro.framework.multimodel",
            "repro.analysis", "repro.experiments",
            "sqlite3", "subprocess", "csv",
        ),
    ),
    "traced": (
        """
from repro import PaldiaPolicy, ProfileService, RunConfig, SLO, ServerlessRun
from repro import get_model, twitter_trace
from repro.core.resilience import ResilienceConfig
from repro.simulator.chaos import ChaosSpec, Slowdowns, StochasticCrashes
from repro.telemetry import Tracer
model, profiles, slo = get_model("resnet50"), ProfileService(), SLO()
trace = twitter_trace(mean_rps=model.peak_rps / 2, duration=20.0, seed=0)
config = RunConfig(
    chaos=ChaosSpec(faults=(StochasticCrashes(), Slowdowns()), seed=0),
    resilience=ResilienceConfig(recovery="retry"),
    reqtrace=True,
)
policy = PaldiaPolicy(model, profiles, slo.target_seconds)
result = ServerlessRun(model, trace, policy, profiles, slo, config,
                       tracer=Tracer()).execute()
assert result.reqtrace is not None and result.cost_breakdown is not None
""",
        # The sampler describes the run, so a traced run has no reason
        # to load the experiments package.
        TELEMETRY_EXTRAS + (
            "repro.analysis", "repro.experiments", "sqlite3", "subprocess",
        ),
    ),
    "sweep": (
        """
from repro.experiments.runner import run_matrix
from repro.experiments.trace_factories import azure_factory
out = run_matrix(["paldia"], ["resnet50"], azure_factory(20.0),
                 repetitions=1, executor="serial", cache=False)
assert len(out.results) == 1 and not out.failed_cells
""",
        (
            "repro.experiments.fig*", "repro.experiments.table*",
            "repro.experiments.ablations", "repro.experiments.sweeps",
            "repro.experiments.motivation", "repro.experiments.resilience",
            "repro.experiments.executors.local_pool",
            "repro.analysis.attribution", "repro.analysis.breakdown",
            "repro.analysis.cost_report", "repro.analysis.report",
            "repro.analysis.request_forensics", "repro.analysis.timeline",
            "repro.analysis.timeseries_report", "repro.analysis.trace_diff",
            "repro.analysis.trace_report", "repro.telemetry.ledger",
            "sqlite3", "subprocess",
        ),
    ),
}

LAZY_PACKAGES = (
    "repro", "repro.telemetry", "repro.analysis", "repro.experiments",
    "repro.experiments.executors",
)


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON it prints last."""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def matches(module: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        return module.startswith(pattern[:-1])
    return module == pattern or module.startswith(pattern + ".")


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_imports_only_its_layers(case):
    code, denied = CASES[case]
    modules = run_fresh(
        code + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    own = [m for m in modules if matches(m, "repro")]
    print(f"\n{case}: {len(own)} repro modules")
    assert [m for m in modules
            if any(matches(m, pattern) for pattern in denied)] == []


def test_lazy_packages_resolve_every_export():
    found = run_fresh(f"""
import importlib, json
import repro
report = {{"unresolved": [], "not_in_dir": []}}
for name in {LAZY_PACKAGES!r}:
    package = importlib.import_module(name)
    for attr in package.__all__:
        try:
            getattr(package, attr)
        except AttributeError:
            report["unresolved"].append(f"{{name}}.{{attr}}")
    listed = set(dir(package))
    report["not_in_dir"] += [
        f"{{name}}.{{a}}" for a in package.__all__ if a not in listed
    ]
report["submodules"] = [repro.core.__name__, repro.baselines.__name__]
from repro.experiments import fig07, experiment_ids
report["fig07"] = fig07.__name__
report["experiments"] = experiment_ids()
print(json.dumps(report))
""")
    assert found["unresolved"] == []
    assert found["not_in_dir"] == []
    assert found["submodules"] == ["repro.core", "repro.baselines"]
    assert found["fig07"] == "repro.experiments.fig07"
    assert found["experiments"] == [
        "ablations", "fig1", "fig11", "fig12", "fig13", "fig3", "fig4",
        "fig5", "fig6", "fig7", "fig8", "fig9_10", "resilience", "table2",
        "table3",
    ]
