"""Compare two end-to-end benchmark records, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Both files are ``run.py --out`` records of untraced runs.  One row per
(workload, end-to-end metric), labelled:

* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — either side's spread (q3 - q1, as a share of its
  median) is wider than the bound, so "no regression" cannot be told
  from noise — unless every change sample beats every parent sample;
* ``gain`` — the change wins at least 9 of every 10 rep pairs (paired
  in run order; ties count for neither side; at least ten pairs), and
  the medians differ by more than the parent's q3 - q1;
* ``ok`` — none of the above.

A ``host drift`` line flags workloads whose ``host.calib_s`` medians (a
fixed pure-Python loop timed around every phase of a rep) differ by more
than 5%: the host itself got faster or slower between the runs.
``wall_s`` and ``setup_s`` are already normalised by that loop, so the
flag says how much normalising had to do, and where the loop may not
have followed the host (storage, or a neighbour that slows the
simulator more than the loop), read those rows with care.

Exit status 1 when any row is a regression or unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: host.calib_s medians further apart than this flag host drift
DRIFT = 0.05
#: the gain rule: minimum pairs, and the share of them the change must win
MIN_PAIRS = 10
WIN_SHARE = 0.9


def spread(m: Dict[str, float]) -> float:
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0


def classify(
    parent: Dict[str, Any], change: Dict[str, Any], bound: float, lower_is_better: bool
) -> Tuple[str, float]:
    """(label, relative worsening of the change's median)."""
    sign = 1.0 if lower_is_better else -1.0
    a, b = parent["median"], change["median"]
    worse = sign * (b - a) / a if a else 0.0
    pa, pb = parent["samples"], change["samples"]

    def better(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    if worse > bound:
        return "regression", worse
    all_better = all(better(x, y) for x in pb for y in pa)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", worse
    pairs = list(zip(pa, pb))
    wins = sum(1 for x, y in pairs if better(y, x))
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and better(b, a)
        and abs(b - a) > parent["q3"] - parent["q1"]
    ):
        return "gain", worse
    return "ok", worse


def compare(
    parent: Dict[str, Any], change: Dict[str, Any], spec: Dict[str, Any]
) -> Tuple[List[tuple], List[str]]:
    """Rows ``(workload, metric, label, parent, change, worse, bound)`` and
    host-drift warnings, for every workload both records hold."""
    rows = []
    drift = []
    for w, pe in parent["workloads"].items():
        ce = change["workloads"].get(w)
        if ce is None:
            continue
        for m in spec["end_to_end"]:
            pm, cm = pe["metrics"][m["name"]], ce["metrics"][m["name"]]
            label, worse = classify(pm, cm, m["bound"], m["better"] == "lower")
            rows.append((w, m["name"], label, pm, cm, worse, m["bound"]))
        pc, cc = pe["metrics"]["host.calib_s"]["median"], ce["metrics"]["host.calib_s"]["median"]
        if pc and abs(cc - pc) / pc > DRIFT:
            drift.append(
                f"host drift on {w}: host.calib_s median {pc:.4g}s -> {cc:.4g}s "
                f"({(cc - pc) / pc:+.1%}); the host changed speed between the runs"
            )
    return rows, drift


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    for path in (args.parent, args.change):
        record = json.loads(path.read_text())
        if record.get("trace"):
            parser.error(f"{path} is a traced record; compare untraced runs")
        records.append(record)
    rows, drift = compare(records[0], records[1], spec)
    print(f"{'workload':14s} {'metric':12s} {'parent':>10s} {'change':>10s} "
          f"{'worse':>7s} {'spread p/c':>13s} {'bound':>6s}  label")
    for w, name, label, pm, cm, worse, bound in rows:
        print(f"{w:14s} {name:12s} {pm['median']:10.4g} {cm['median']:10.4g} "
              f"{worse:+7.1%} {spread(pm):6.1%}/{spread(cm):6.1%} {bound:6.0%}  {label}")
    for line in drift:
        print(line)
    return 1 if any(r[2] in ("regression", "unresolved") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
