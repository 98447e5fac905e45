"""The boolean ``NWCACHE_*`` switches share one parser.

``NWCACHE_AUDIT``, ``NWCACHE_COMPILED_TRACES`` and
``NWCACHE_TRACE_CACHE`` accept ``1/true/yes/on`` and ``0/false/no/off``
(or empty) in any case; anything else is an error naming the variable
instead of a silent flip.
"""

import pytest

from repro.core.machine import _compiled_traces_default
from repro.core.runner import _audit_default
from repro.core.trace import trace_cache_enabled

READERS = {
    "NWCACHE_AUDIT": (_audit_default, False),
    "NWCACHE_COMPILED_TRACES": (_compiled_traces_default, True),
    "NWCACHE_TRACE_CACHE": (trace_cache_enabled, True),
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
