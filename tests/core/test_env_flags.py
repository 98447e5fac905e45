"""The boolean ``NWCACHE_*`` switches share one parser.

``NWCACHE_AUDIT``, ``NWCACHE_COMPILED_TRACES``, ``NWCACHE_TRACE_CACHE``
and the benchmark suite's ``NWCACHE_NO_CACHE`` accept ``1/true/yes/on``
and ``0/false/no/off`` (or empty) in any case; anything else is an error
naming the variable instead of a silent flip.
"""

import os

import pytest

from benchmarks.conftest import _disk_cache_arg
from repro.core.machine import _compiled_traces_default
from repro.core.runner import _audit_default
from repro.core.trace import trace_cache_enabled


def _no_cache() -> bool:
    """NWCACHE_NO_CACHE as the benchmark suite reads it."""
    return _disk_cache_arg() is False


READERS = {
    "NWCACHE_AUDIT": (_audit_default, False),
    "NWCACHE_COMPILED_TRACES": (_compiled_traces_default, True),
    "NWCACHE_TRACE_CACHE": (trace_cache_enabled, True),
    "NWCACHE_NO_CACHE": (_no_cache, False),
}


@pytest.mark.parametrize("name", sorted(READERS))
@pytest.mark.parametrize(
    "value, expected",
    [
        (None, "default"),
        ("1", True), ("true", True), ("YES", True), (" On ", True),
        ("", False), ("0", False), ("False", False), ("no", False),
        ("OFF", False),
        ("2", ValueError), ("enabled", ValueError), ("of", ValueError),
    ],
)
def test_boolean_env_switches(monkeypatch, name, value, expected):
    reader, default = READERS[name]
    if value is None:
        monkeypatch.delenv(name, raising=False)
    else:
        monkeypatch.setenv(name, value)
    if expected is ValueError:
        with pytest.raises(ValueError, match=name):
            reader()
    else:
        assert reader() is (default if expected == "default" else expected)


def test_no_cache_zero_keeps_both_caches(monkeypatch):
    monkeypatch.delenv("NWCACHE_TRACE_CACHE", raising=False)
    monkeypatch.setenv("NWCACHE_NO_CACHE", "0")
    assert _disk_cache_arg() is None
    assert "NWCACHE_TRACE_CACHE" not in os.environ
    monkeypatch.setenv("NWCACHE_NO_CACHE", "1")
    assert _disk_cache_arg() is False
    assert os.environ["NWCACHE_TRACE_CACHE"] == "0"
