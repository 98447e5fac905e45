"""Per-layer attribution for the traced benchmark run.

Two instruments, both owned by the benchmark (nothing inside the
simulator changes):

* **self time by layer** — a ``cProfile`` run's self time grouped by the
  ``repro`` package each function lives in.  Code outside ``repro``
  (builtins such as ``os.fsync``, the standard library, NumPy) has no
  layer of its own, so its self time goes to the layer of its callers,
  split the way ``pstats`` records the calls (``callers`` holds each
  caller's share of the callee's self time).  What no ``repro`` caller
  reaches — the benchmark harness itself — is ``other``.
* **spans** — wrappers around public entry points (``Machine.run``,
  ``get_trace``, ``Journal.append``, ...) that record name, start, end and
  the enclosing span, kept in memory and written once as Chrome
  trace-event JSON (open it in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: the simulator's layers, one per ``repro`` subpackage
PACKAGES = ("sim", "hw", "osim", "optical", "disk", "core", "apps", "service")
LAYERS = PACKAGES + ("other",)

Func = Tuple[str, int, str]


def layer_of_path(filename: str, pkg_root: Path) -> Optional[str]:
    """The layer of a source file, or None for code outside ``repro``.

    Top-level modules (``config``, ``metrics``, ``ioutil``, ``cli``, the
    package ``__init__``) count as ``core``.
    """
    try:
        rel = Path(filename).resolve().relative_to(pkg_root)
    except ValueError:
        return None
    parts = rel.parts
    if len(parts) == 1:
        return "core"
    return parts[0] if parts[0] in PACKAGES else None


def layer_self_times(stats: Dict[Func, tuple], pkg_root: Path) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    The result always has every key of :data:`LAYERS` and sums to the
    profile's total self time.
    """
    own: Dict[Func, Optional[str]] = {}
    for func in stats:
        filename = func[0]
        own[func] = (
            None if filename.startswith(("~", "<")) else layer_of_path(filename, pkg_root)
        )
    memo: Dict[Func, Dict[str, float]] = {}
    in_progress: set = set()

    def shares(func: Func) -> Dict[str, float]:
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        # Callers already on the resolution path (recursion, call cycles)
        # are left out and the remaining callers' shares renormalised.
        in_progress.add(func)
        callers = {
            caller: v
            for caller, v in (stats[func][4] if func in stats else {}).items()
            if caller not in in_progress
        }
        # weight by each caller's share of the self time; by its share of
        # the calls when the timer was too coarse to split the time
        weights = {caller: v[2] for caller, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: v[1] for caller, v in callers.items()}
        total = sum(weights.values())
        out: Dict[str, float] = defaultdict(float)
        if total <= 0:
            out["other"] = 1.0
        else:
            for caller, w in weights.items():
                for lay, frac in shares(caller).items():
                    out[lay] += frac * w / total
        in_progress.discard(func)
        memo[func] = out
        return out

    totals = {layer: 0.0 for layer in LAYERS}
    for func, entry in stats.items():
        self_s = entry[2]
        if self_s <= 0:
            continue
        for layer, frac in shares(func).items():
            totals[layer] += self_s * frac
    return totals


class SpanRecorder:
    """In-memory spans with parent links, one stack per thread."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "name": name,
                    "id": sid,
                    "parent": parent,
                    "tid": threading.get_ident(),
                    "start": start - self.t0,
                    "dur": end - start,
                })

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)


def span_totals(spans: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """``{name: [calls, seconds]}`` over ``spans``."""
    out: Dict[str, List[float]] = {}
    for s in spans:
        entry = out.setdefault(s["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += s["dur"]
    return out


def chrome_trace(span_sets: List[Tuple[str, List[Dict[str, Any]]]]) -> Dict[str, Any]:
    """Chrome trace-event JSON for spans of several processes.

    ``span_sets`` is ``[(process label, spans), ...]``; each process gets
    its own ``pid`` row, and every event carries its id and parent id.
    """
    events: List[Dict[str, Any]] = []
    for pid, (label, spans) in enumerate(span_sets, start=1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        tids: Dict[int, int] = {}
        for s in spans:
            tid = tids.setdefault(s["tid"], len(tids) + 1)
            events.append({
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": s["dur"] * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"id": s["id"], "parent": s["parent"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
