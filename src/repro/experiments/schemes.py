"""Factory for the evaluated schemes (Section V).

Builds the policy objects for Paldia, the INFless/Llama and Molecule (beta)
variants, and the clairvoyant Oracle, against a shared profile service.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import Policy
from repro.baselines.infless_llama import InflessLlamaPolicy
from repro.baselines.molecule import MoleculePolicy
from repro.baselines.oracle import OraclePolicy
from repro.core.paldia import PaldiaPolicy
from repro.hardware.profiles import ProfileService
from repro.workloads.models import ModelSpec
from repro.workloads.traces import Trace

__all__ = [
    "ALL_SCHEMES", "SCHEMES", "COST_EFFECTIVE_SCHEMES", "PERFORMANT_SCHEMES",
    "make_policy",
]

#: The five schemes of the primary evaluation, in the paper's plot order.
SCHEMES: tuple[str, ...] = (
    "molecule_P",
    "infless_llama_P",
    "molecule_$",
    "infless_llama_$",
    "paldia",
)

COST_EFFECTIVE_SCHEMES: tuple[str, ...] = (
    "molecule_$",
    "infless_llama_$",
    "paldia",
)

PERFORMANT_SCHEMES: tuple[str, ...] = ("molecule_P", "infless_llama_P")

#: Every scheme the CLI can run: the evaluation's five plus the
#: clairvoyant Oracle.
ALL_SCHEMES: tuple[str, ...] = SCHEMES + ("oracle",)


def make_policy(
    scheme: str,
    model: ModelSpec,
    profiles: ProfileService,
    slo_seconds: float,
    trace: Optional[Trace] = None,
) -> Policy:
    """Instantiate a scheme by name.

    ``trace`` is required for the clairvoyant ``oracle`` scheme.
    """
    if scheme == "paldia":
        return PaldiaPolicy(model, profiles, slo_seconds)
    if scheme == "paldia_contention_aware":
        from repro.core.contention import ContentionAwarePaldiaPolicy

        return ContentionAwarePaldiaPolicy(model, profiles, slo_seconds)
    if scheme == "infless_llama_$":
        return InflessLlamaPolicy(model, profiles, slo_seconds, cost_effective=True)
    if scheme == "infless_llama_P":
        return InflessLlamaPolicy(model, profiles, slo_seconds, cost_effective=False)
    if scheme == "molecule_$":
        return MoleculePolicy(model, profiles, slo_seconds, cost_effective=True)
    if scheme == "molecule_P":
        return MoleculePolicy(model, profiles, slo_seconds, cost_effective=False)
    if scheme == "oracle":
        if trace is None:
            raise ValueError("the oracle scheme needs the trace (clairvoyance)")
        return OraclePolicy(model, profiles, slo_seconds, trace)
    raise ValueError(f"unknown scheme {scheme!r}; known: {ALL_SCHEMES}")
