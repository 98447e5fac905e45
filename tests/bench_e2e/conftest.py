"""Make the end-to-end benchmark's modules importable by name.

The benchmark runs as scripts (``python3 benchmarks/e2e/run.py``), so
its modules import each other as top-level names; the tests do the same.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))
