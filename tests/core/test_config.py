"""Tests that SimConfig defaults reproduce Table 1 exactly."""

import pytest

from repro.config import KB, PCYCLES_PER_SEC, SimConfig


@pytest.fixture
def cfg():
    return SimConfig.paper()


def test_pcycle_is_5ns():
    assert PCYCLES_PER_SEC == 200_000_000


def test_table1_machine(cfg):
    assert cfg.n_nodes == 8
    assert cfg.n_io_nodes == 4
    assert cfg.page_size == 4 * KB
    assert cfg.tlb_miss_pcycles == 100
    assert cfg.tlb_shootdown_pcycles == 500
    assert cfg.interrupt_pcycles == 400
    assert cfg.memory_per_node == 256 * KB


def test_table1_rates(cfg):
    assert cfg.mem_bus_rate == pytest.approx(4.0)      # 800 MB/s
    assert cfg.io_bus_rate == pytest.approx(1.5)       # 300 MB/s
    assert cfg.link_rate == pytest.approx(1.0)         # 200 MB/s
    assert cfg.ring_rate == pytest.approx(6.25)        # 1.25 GB/s
    assert cfg.disk_rate == pytest.approx(0.1)         # 20 MB/s


def test_table1_ring(cfg):
    assert cfg.ring_channels == 8
    assert cfg.ring_round_trip_pcycles == pytest.approx(10_400)  # 52 us
    assert cfg.ring_channel_bytes == 64 * KB
    assert cfg.ring_capacity_bytes == 512 * KB
    assert cfg.ring_slots_per_channel == 16


def test_table1_disks(cfg):
    assert cfg.disk_cache_bytes == 16 * KB
    assert cfg.disk_cache_pages == 4
    assert cfg.seek_min_pcycles == pytest.approx(400_000)     # 2 ms
    assert cfg.seek_max_pcycles == pytest.approx(4_400_000)   # 22 ms
    assert cfg.rotational_pcycles == pytest.approx(800_000)   # 4 ms


def test_derived_frames(cfg):
    # 64 raw frames minus the 10% kernel/code reservation
    assert cfg.frames_per_node == 58
    assert cfg.total_frames == 8 * 58
    assert cfg.replace(os_reserved_fraction=0.0).frames_per_node == 64


def test_mesh_auto_shape(cfg):
    assert cfg.mesh_dims in ((2, 4), (4, 2))


def test_pages_per_group_is_32(cfg):
    assert cfg.pages_per_group == 32


def test_replace_returns_modified_copy(cfg):
    cfg2 = cfg.replace(n_nodes=4, n_io_nodes=2, ring_channels=4)
    assert cfg2.n_nodes == 4
    assert cfg.n_nodes == 8


def test_describe_mentions_table1_values(cfg):
    text = cfg.describe()
    assert "8" in text and "52" in text and "20 MBytes/sec" in text


# ---------------------------------------------------------------- validation
def test_validation_rejects_bad_configs():
    with pytest.raises(ValueError):
        SimConfig(n_nodes=0)
    with pytest.raises(ValueError):
        SimConfig(n_io_nodes=9)
    with pytest.raises(ValueError):
        SimConfig(n_io_nodes=0)
    with pytest.raises(ValueError):
        SimConfig(page_size=128)
    with pytest.raises(ValueError):
        SimConfig(memory_per_node=4096)
    with pytest.raises(ValueError):
        SimConfig(min_free_frames=0)
    with pytest.raises(ValueError):
        SimConfig(min_free_frames=64)  # = frames_per_node
    with pytest.raises(ValueError):
        SimConfig(ring_channels=4)     # fewer channels than nodes


def test_presets_are_valid():
    for preset in (SimConfig.paper(), SimConfig.small(), SimConfig.tiny()):
        assert preset.frames_per_node > preset.min_free_frames
        assert preset.ring_slots_per_channel >= 1
        assert preset.disk_cache_pages >= 1


def test_tiny_preset_is_small():
    tiny = SimConfig.tiny()
    assert tiny.n_nodes == 4
    assert tiny.frames_per_node == 8


_TIME_FIELDS = [
    "tlb_miss_pcycles", "tlb_shootdown_pcycles", "interrupt_pcycles",
    "router_delay_pcycles", "message_overhead_pcycles", "ring_round_trip_usec",
    "seek_min_msec", "seek_max_msec", "rotational_msec",
    "controller_overhead_pcycles", "cpu_cycles_per_access",
    "remote_latency_pcycles",
]


@pytest.mark.parametrize("name", _TIME_FIELDS)
def test_validation_rejects_negative_times_and_costs(name):
    with pytest.raises(ValueError, match=name):
        SimConfig(**{name: -1.0})
    with pytest.raises(ValueError, match=name):
        SimConfig.tiny(**{name: -50.0})
    assert getattr(SimConfig(**{name: 0.0}), name) == 0.0


def test_negative_latency_cannot_reach_the_compiled_path():
    # dataclasses.replace re-validates: a negative remote latency used to
    # run the compiled replay's clock backwards and return a result.
    import dataclasses

    with pytest.raises(ValueError, match="remote_latency_pcycles"):
        dataclasses.replace(SimConfig.tiny(), remote_latency_pcycles=-50.0)
