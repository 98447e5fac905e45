"""Pin the simulated trajectories of the end-to-end benchmark's cells.

Reads the ``--out`` record of ``benchmarks/e2e/run.py`` (and, with
``--result``, the run's standard output) and fails unless the run reads
``correct`` with no failed operation and each workload's ``sim_digest``
starts with the pinned prefix below.  The golden traces pin the seven
kernels at test scale; this check pins the exact cells the benchmark
times — the paper grid, both YCSB pairs and the durable sweep — so any
kernel or model change that moves a trajectory fails here, not in a
later timing run.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1999 --seconds 1 --out e2e.json > e2e.out
    python3 scripts/check_sim_digests.py e2e.json --result e2e.out

A change that moves a trajectory on purpose updates ``PINNED`` together
with the golden traces, and says why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

#: seed the prefixes below were recorded at
SEED = 1999

#: workload -> leading hex digits of its ``sim_digest`` at seed 1999
PINNED: Dict[str, str] = {
    "paper-grid": "b32c31d8e921",
    "ycsb-write": "4db84d81649b",
    "ycsb-read": "b800196a7573",
    "sweep-service": "1efa1526300c",
}


def check(record: Dict) -> List[str]:
    """Every problem with ``record`` (empty when it matches the pins)."""
    problems = []
    if record.get("seed") != SEED:
        problems.append(f"record seed {record.get('seed')!r}, pins are for {SEED}")
    if record.get("trace"):
        problems.append("record is a traced run; pin an untraced one")
    workloads = record.get("workloads", {})
    for name, prefix in PINNED.items():
        entry = workloads.get(name)
        if entry is None:
            problems.append(f"{name}: missing from the record")
            continue
        if entry["attempted"] == 0 or entry["failed"]:
            problems.append(
                f"{name}: {entry['failed']} of {entry['attempted']} operations failed"
            )
        digest = entry.get("sim_digest", "")
        if not digest.startswith(prefix):
            problems.append(f"{name}: sim_digest {digest[:16]}..., pinned {prefix}")
    for name in sorted(set(workloads) - set(PINNED)):
        problems.append(f"{name}: no pinned digest (add one to PINNED)")
    return problems


def check_result_line(stdout: str) -> List[str]:
    """Problems with run.py's result line (the last line of its stdout)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["run produced no result line"]
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        return [
            f"result line reads correct={result.get('correct')!r}, "
            f"failed={result.get('failed')!r}"
        ]
    return []


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", type=Path, help="benchmarks/e2e/run.py --out file")
    parser.add_argument("--result", type=Path,
                        help="the same run's standard output (its result line)")
    args = parser.parse_args(argv)
    problems = check(json.loads(args.record.read_text()))
    if args.result is not None:
        problems += check_result_line(args.result.read_text())
    for p in problems:
        print(f"[sim-digests] FAIL {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"[sim-digests] ok: {len(PINNED)} workloads correct, trajectories pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main())
