"""Pinned Fig 1 outcomes: the motivation study's bars, bit for bit.

Every Fig 1 scheme runs 60 s of its two co-located Wiki traces on seeds 0
and 3, the offline hybrid at temporal fractions ``(0.3, 0.6)``.  Per run
the pins are the hardware, its $/h, and per model the SLO compliance and
the three P99 breakdown bars, floats as ``float.hex``.  The offline sweep
on a four-point grid pins the fractions it picks.

Regenerate them (only for an intended outcome change) with::

    PYTHONPATH=src python tests/experiments/test_fig1_pins.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.motivation import (
    MOTIVATION_SCHEMES,
    run_motivation_scheme,
    sweep_offline_hybrid,
)

PINS = Path(__file__).parent / "data" / "fig1_pins.json"
DURATION = 60.0
SEEDS = (0, 3)
HYBRID_FRACTIONS = (0.3, 0.6)
SWEEP_GRID = (0.0, 0.3, 0.7, 1.0)
CASES = [(scheme, seed) for scheme in MOTIVATION_SCHEMES for seed in SEEDS]


def outcome(scheme: str, seed: int) -> dict:
    """One Fig 1 bar group as pinned: floats as ``float.hex``."""
    out = run_motivation_scheme(
        scheme, duration=DURATION, seed=seed,
        hybrid_fractions=HYBRID_FRACTIONS,
    )
    return {
        "hardware": out.hardware,
        "hourly_cost": out.hourly_cost.hex(),
        "compliance": {
            model: pct.hex() for model, pct in out.compliance_percent.items()
        },
        "breakdown_ms": {
            model: {bar: ms.hex() for bar, ms in bars.items()}
            for model, bars in out.tail_breakdown_ms.items()
        },
    }


def sweep() -> list[str]:
    return [f.hex() for f in sweep_offline_hybrid(
        duration=DURATION, seed=0, grid=SWEEP_GRID
    )]


@pytest.mark.parametrize("scheme,seed", CASES,
                         ids=[f"{s}-seed{seed}" for s, seed in CASES])
def test_scheme_outcome_matches_the_pin(scheme, seed):
    assert outcome(scheme, seed) == json.loads(PINS.read_text())[
        f"{scheme}/seed{seed}"
    ]


def test_offline_sweep_picks_the_pinned_fractions():
    assert sweep() == json.loads(PINS.read_text())["sweep"]


if __name__ == "__main__":
    pins = {f"{s}/seed{seed}": outcome(s, seed) for s, seed in CASES}
    pins["sweep"] = sweep()
    PINS.parent.mkdir(parents=True, exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
