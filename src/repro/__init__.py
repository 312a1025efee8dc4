"""repro — a reproduction of Paldia (IPDPS 2024).

Paldia is a heterogeneous serverless framework that keeps ML-inference
functions SLO-compliant at low cost by (i) prudently selecting CPU/GPU
hardware per workload and request rate, and (ii) hybrid spatio-temporal GPU
sharing that trades off MPS interference against queueing delay
(Equation (1)).

Public API tour
---------------
>>> from repro import (
...     PaldiaPolicy, ServerlessRun, ProfileService, SLO,
...     get_model, azure_trace,
... )
>>> model = get_model("resnet50")
>>> profiles = ProfileService()
>>> trace = azure_trace(peak_rps=model.peak_rps, duration=60.0, seed=1)
>>> policy = PaldiaPolicy(model, profiles, SLO().target_seconds)
>>> result = ServerlessRun(model, trace, policy, profiles).execute()
>>> 0.0 <= result.slo_compliance <= 1.0
True

Sub-packages
------------
``repro.core``
    Paldia's contribution: Equation (1), Algorithm 1, autoscaling,
    batching, the policy itself.
``repro.simulator``
    The discrete-event heterogeneous cluster substrate (GPU MPS physics,
    containers, cost, power, chaos fault injection).
``repro.hardware`` / ``repro.workloads``
    Table II's node catalog, the 16 model specs, trace generators.
``repro.baselines``
    INFless/Llama, Molecule (beta), Oracle, Offline Hybrid.
``repro.analysis`` / ``repro.experiments``
    Statistics, report tables, and one experiment per paper figure/table.

Importing ``repro`` imports none of them: each name below loads its
module on first access.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "baselines.base": ("PlannedBatch", "Policy", "WindowPlan"),
    "baselines.infless_llama": ("InflessLlamaPolicy",),
    "baselines.molecule": ("MoleculePolicy",),
    "baselines.offline_hybrid": ("OfflineHybridPolicy",),
    "baselines.oracle": ("OraclePolicy",),
    "core.hardware_selection": ("CandidateRow", "CandidateTable"),
    "core.model": (
        "SplitDecision", "cpu_t_max", "optimal_split", "optimal_split_batch",
    ),
    "core.paldia": ("PaldiaPolicy",),
    "core.predictor": ("EWMAPredictor", "OraclePredictor"),
    "framework.batching": (
        "DispatchWindow", "WindowTable", "carve_sizes", "window_groups",
    ),
    "framework.request": ("Batch", "ShareMode"),
    "framework.slo": ("SLO",),
    "framework.multimodel": ("Deployment", "MultiModelResult", "MultiModelRun"),
    "framework.system": ("RunConfig", "RunResult", "ServerlessRun"),
    "hardware.catalog": (
        "HardwareCatalog", "HardwareSpec", "TABLE_II", "default_catalog",
    ),
    "hardware.profiles": ("ProfileService",),
    "simulator.engine": ("Simulator",),
    "simulator.interference": ("InterferenceModel",),
    "workloads.models": (
        "ALL_MODELS", "LANGUAGE_MODELS", "VISION_MODELS", "get_model",
        "language_models", "vision_models",
    ),
    "workloads.traces": (
        "Trace", "azure_trace", "constant_trace", "poisson_trace",
        "twitter_trace", "wiki_trace",
    ),
})
