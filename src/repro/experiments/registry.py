"""Declarative registry of paper figures/tables.

Every experiment module registers its ``run`` entry point exactly once,
in its own file, with :func:`register_experiment`::

    @register_experiment("fig7", title="Goodput under surges + power")
    def run(duration=600.0, repetitions=2, ...):
        ...

Everything downstream — ``python -m repro experiment <id>`` argparse
choices, ``python -m repro list`` output, the benchmark harness, docs —
derives from this one registry.  Adding a new experiment means decorating
its ``run`` function; no experiment is named in two places and nothing in
``cli.py`` changes.

CLI flags reach a runner through its signature: each flag the user gave
goes to the runner's parameter of that name (``--seed`` to ``seed`` or
``seed0``), and a flag the runner has no parameter for is not passed, so
an omitted flag leaves the runner's own default.
``supports_repetitions=False`` pins ``repetitions=1`` (Figs 4 and 6
average within a single seeded run).  A runner may return one
:class:`~repro.experiments.base.ExperimentReport` or a list of them (the
ablations).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "ExperimentEntry",
    "all_experiments",
    "experiment_ids",
    "get_experiment",
    "register_experiment",
]


@dataclass(frozen=True)
class ExperimentEntry:
    """One registered figure/table reproduction."""

    id: str
    title: str
    runner: Callable[..., Any]
    supports_repetitions: bool = True

    def cli_kwargs(
        self,
        duration: Optional[float] = None,
        repetitions: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> dict[str, Any]:
        """The keyword arguments this experiment draws from CLI flags."""
        params = inspect.signature(self.runner).parameters
        if not self.supports_repetitions:
            repetitions = 1
        flags = {
            "duration": duration,
            "repetitions": repetitions,
            "seed": seed,
            "seed0": seed,
        }
        return {
            name: value
            for name, value in flags.items()
            if value is not None and name in params
        }

    def reports(self, **cli_args: Any) -> list:
        """Run the experiment with CLI-level arguments; its report(s)
        as a list, for uniform rendering."""
        result = self.runner(**self.cli_kwargs(**cli_args))
        return result if isinstance(result, list) else [result]


_REGISTRY: dict[str, ExperimentEntry] = {}


def register_experiment(
    id: str,
    *,
    title: str,
    supports_repetitions: bool = True,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class the decorated ``run`` function as experiment ``id``.

    The decorator returns the function unchanged — modules keep their
    plain ``run(...)`` API for tests and the benchmark harness.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        existing = _REGISTRY.get(id)
        if existing is not None and existing.runner is not fn:
            raise ValueError(
                f"experiment id {id!r} already registered by "
                f"{existing.runner.__module__}"
            )
        _REGISTRY[id] = ExperimentEntry(
            id=id,
            title=title,
            runner=fn,
            supports_repetitions=supports_repetitions,
        )
        return fn

    return decorate


@functools.cache
def _ensure_loaded() -> None:
    """Import every module of the experiment package, so each one that
    defines an experiment has registered it."""
    package = importlib.import_module("repro.experiments")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{package.__name__}.{info.name}")


def get_experiment(id: str) -> ExperimentEntry:
    _ensure_loaded()
    try:
        return _REGISTRY[id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {id!r}; known: {', '.join(experiment_ids())}"
        ) from None


def experiment_ids() -> list[str]:
    """Sorted ids of every registered experiment."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def all_experiments() -> Iterator[ExperimentEntry]:
    """Registered experiments in sorted-id order."""
    _ensure_loaded()
    for id in sorted(_REGISTRY):
        yield _REGISTRY[id]
