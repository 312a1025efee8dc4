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
"""

from repro.baselines.base import PlannedBatch, Policy, WindowPlan
from repro.baselines.infless_llama import InflessLlamaPolicy
from repro.baselines.molecule import MoleculePolicy
from repro.baselines.offline_hybrid import OfflineHybridPolicy
from repro.baselines.oracle import OraclePolicy
from repro.core.hardware_selection import CandidateRow, CandidateTable
from repro.core.model import (
    SplitDecision,
    cpu_t_max,
    optimal_split,
    optimal_split_batch,
)
from repro.core.paldia import PaldiaPolicy
from repro.framework.batching import (
    DispatchWindow,
    WindowTable,
    carve_sizes,
    window_groups,
)
from repro.core.predictor import EWMAPredictor, OraclePredictor
from repro.framework.request import Batch, ShareMode
from repro.framework.slo import SLO
from repro.framework.multimodel import Deployment, MultiModelResult, MultiModelRun
from repro.framework.system import RunConfig, RunResult, ServerlessRun
from repro.hardware.catalog import (
    HardwareCatalog,
    HardwareSpec,
    TABLE_II,
    default_catalog,
)
from repro.hardware.profiles import ProfileService
from repro.simulator.engine import Simulator
from repro.simulator.interference import InterferenceModel
from repro.workloads.models import (
    ALL_MODELS,
    LANGUAGE_MODELS,
    VISION_MODELS,
    get_model,
    language_models,
    vision_models,
)
from repro.workloads.traces import (
    Trace,
    azure_trace,
    constant_trace,
    poisson_trace,
    twitter_trace,
    wiki_trace,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_MODELS",
    "Batch",
    "CandidateRow",
    "CandidateTable",
    "DispatchWindow",
    "EWMAPredictor",
    "HardwareCatalog",
    "HardwareSpec",
    "InflessLlamaPolicy",
    "InterferenceModel",
    "LANGUAGE_MODELS",
    "Deployment",
    "MoleculePolicy",
    "MultiModelResult",
    "MultiModelRun",
    "OfflineHybridPolicy",
    "OraclePolicy",
    "OraclePredictor",
    "PaldiaPolicy",
    "PlannedBatch",
    "Policy",
    "ProfileService",
    "RunConfig",
    "RunResult",
    "SLO",
    "ServerlessRun",
    "ShareMode",
    "Simulator",
    "SplitDecision",
    "TABLE_II",
    "Trace",
    "VISION_MODELS",
    "WindowPlan",
    "WindowTable",
    "azure_trace",
    "carve_sizes",
    "constant_trace",
    "cpu_t_max",
    "default_catalog",
    "get_model",
    "language_models",
    "optimal_split",
    "optimal_split_batch",
    "poisson_trace",
    "window_groups",
    "twitter_trace",
    "vision_models",
    "wiki_trace",
]
