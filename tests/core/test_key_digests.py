"""Pinned cache and trace key digests.

A result or trace cache entry is found only by its key, so a change to
the key encoding (``canonical()``, the JSON encoder settings, the
payload layout) silently orphans every entry users have on disk.  The
property tests check that keys are deterministic and order-independent;
these pin the exact bytes.  Update a digest here only together with a
deliberate ``CACHE_FORMAT_VERSION`` / ``TRACE_FORMAT_VERSION`` bump.
"""

import pytest

from repro.apps import make_app
from repro.core.batch import ExperimentSpec
from repro.core.trace import trace_key

SPECS = {
    "kernel": (
        ExperimentSpec("sor", "nwcache", "naive", data_scale=0.05),
        "370eb087d5e140e0ebfe6b455623cf3844521e6f053df47591916707dac77995",
    ),
    "openloop-params": (
        ExperimentSpec(
            "zipf", "nwcache", "optimal", data_scale=0.1,
            app_params={"alpha": 0.9, "rate": 50.0, "node_skew": 0.5},
        ),
        "6165cfc9121c9876b89aea42e0f30ecacdbab325e39e82dfdc032f9df81f6f5c",
    ),
    "faults": (
        ExperimentSpec(
            "fft", "standard", "optimal", data_scale=0.05,
            faults="disk_transient_rate=0.01,max_retries=2,"
                   "channel_failures=0;2@2e6",
        ),
        "4ae3b0517878a4a33825e18dfcf9080e8f58cd8aec727d2843bee46867f0dfa4",
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_key_is_pinned(name, monkeypatch):
    # a fault plan in the environment would join the kernel cells' keys
    monkeypatch.delenv("NWCACHE_FAULTS", raising=False)
    spec, digest = SPECS[name]
    assert spec.key() == digest


def test_trace_key_is_pinned():
    workload = make_app("fft", scale=0.05, page_size=4096)
    assert trace_key(workload, 8, 1) == (
        "45d66fb78815bc652f8ccf6b69883a1972f02a6bf9a1b8511e2c5a130303dc01"
    )
