"""Compare benchmark runs of a parent commit and of a change.

    python bench/compare.py --parent P1.json P2.json ... --change C1.json ...

Each file is the ``--out`` report of one ``bench/run.py`` invocation.
Files pair up by position (parent i with change i), so run the pairs
alternating which side goes first; use at least ten pairs.  For every
(workload, metric) the script prints each side's median and quartiles,
the change's win share over the pairs (ties count for neither) and a
verdict:

* ``improved`` -- over at least ten pairs, the change wins at least 9/10
  of them and its median is better than the parent's by more than the
  parent's own spread (the distance between its quartiles);
* ``unresolved`` -- the parent's spread is wider than the metric's bound,
  and the change's runs are neither all better nor all worse than every
  parent run;
* ``REGRESSED`` -- the change's median is worse than the parent's by more
  than the bound of ``BENCHMARK.json`` (or, when the spread is wider than
  the bound, every change run is worse than every parent run);
* ``within bound`` -- none of the above.

Per-layer metrics have no bound: they are only ever ``improved``,
``worse`` (the improved rule, the other way round) or ``-``.  A workload
whose share of failed operations rose is flagged.  The exit code is 1
when anything regressed or a failed share rose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Optional

from run import load_spec, quartiles

#: A gain needs the change to win this share of the pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def verdict(parent: list[float], change: list[float], higher: bool,
            bound: Optional[float]) -> tuple[str, float]:
    """The verdict on one metric and the change's win share."""
    sign = 1.0 if higher else -1.0
    pairs = list(zip(parent, change))
    share = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    loss_share = sum(1 for p, c in pairs if sign * (c - p) < 0) / len(pairs)
    p1, pmed, p3 = quartiles(parent)
    gain = sign * (statistics.median(change) - pmed)
    spread = p3 - p1
    enough = len(pairs) >= MIN_PAIRS
    if enough and share >= WIN_SHARE and gain > spread:
        return "improved", share
    if bound is None:
        worse = enough and loss_share >= WIN_SHARE and -gain > spread
        return ("worse" if worse else "-"), share
    best_parent = max(sign * p for p in parent)
    worst_parent = min(sign * p for p in parent)
    all_better = min(sign * c for c in change) > best_parent
    all_worse = max(sign * c for c in change) < worst_parent
    if pmed and spread / abs(pmed) > bound:
        if all_worse:
            return "REGRESSED", share
        return ("within bound" if all_better else "unresolved"), share
    if pmed and -gain / abs(pmed) > bound:
        return "REGRESSED", share
    return "within bound", share


def load(paths: list[str]) -> list[dict[str, Any]]:
    reports = []
    for path in paths:
        with open(path) as fh:
            reports.append(json.load(fh))
    return reports


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("give as many change files as parent files")
    spec = load_spec()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parents, changes = load(args.parent), load(args.change)
    if len(parents) < MIN_PAIRS:
        print(f"warning: {len(parents)} pairs; a claim needs at least "
              f"{MIN_PAIRS}", file=sys.stderr)

    bad = False
    workloads = [w for w in parents[0]["workloads"]
                 if all(w in r["workloads"] for r in parents + changes)]
    header = (f"{'workload':<16} {'metric':<34} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>5}  verdict")
    print(header)
    for w in workloads:
        p_results = [r["workloads"][w]["result"] for r in parents]
        c_results = [r["workloads"][w]["result"] for r in changes]
        metrics = [m for m in p_results[0]["metrics"]
                   if all(m in r["metrics"] for r in p_results + c_results)]
        for m in metrics:
            p = [r["metrics"][m]["value"] for r in p_results]
            c = [r["metrics"][m]["value"] for r in c_results]
            info = declared[m]
            status, share = verdict(p, c, info["better"] == "higher",
                                    info.get("bound"))
            bad |= status == "REGRESSED"
            pq, cq = quartiles(p), quartiles(c)
            print(f"{w:<16} {m:<34} "
                  f"{'/'.join(f'{x:.5g}' for x in pq):>32} "
                  f"{'/'.join(f'{x:.5g}' for x in cq):>32} "
                  f"{share:>5.2f}  {status}")
        p_share = statistics.median(
            r["failed"] / r["attempted"] for r in p_results)
        c_share = statistics.median(
            r["failed"] / r["attempted"] for r in c_results)
        if c_share > p_share:
            bad = True
            print(f"{w:<16} FAILED SHARE ROSE: {p_share:.4g} -> {c_share:.4g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
