"""Tests for the wormhole mesh network."""

import pytest

from repro.config import SimConfig
from repro.hw.network import MeshNetwork
from repro.sim import Engine


def make_net(n_nodes=8, **kw):
    kw.setdefault("ring_channels", n_nodes)
    cfg = SimConfig.paper(n_nodes=n_nodes, n_io_nodes=max(1, n_nodes // 2), **kw)
    eng = Engine()
    return eng, cfg, MeshNetwork(eng, cfg)


def test_mesh_dims_near_square():
    _, cfg, net = make_net(8)
    assert (net.rows, net.cols) in ((2, 4), (4, 2))
    assert net.rows * net.cols == 8


def test_explicit_mesh_shape():
    cfg = SimConfig.paper(mesh_shape=(1, 8))
    eng = Engine()
    net = MeshNetwork(eng, cfg)
    assert (net.rows, net.cols) == (1, 8)


def test_bad_mesh_shape_rejected():
    with pytest.raises(ValueError):
        SimConfig.paper(mesh_shape=(3, 3))


def test_route_is_xy_dimension_order():
    _, _, net = make_net(8)  # 2x4 mesh
    # node ids: row-major; 0=(0,0), 5=(1,1)
    path = net.route(0, 5)
    # X first along row 0 to column 1, then Y down to row 1
    assert path == [(0, 1), (1, 5)]


def test_route_same_node_is_empty():
    _, _, net = make_net(8)
    assert net.route(3, 3) == []
    assert net.hops(3, 3) == 0


def test_hops_is_manhattan():
    _, _, net = make_net(8)  # 2x4
    assert net.hops(0, 7) == 1 + 3


def test_base_latency_zero_hop_has_no_serialization():
    _, cfg, net = make_net(8)
    assert net.base_latency(2, 2, 4096) == pytest.approx(
        cfg.message_overhead_pcycles
    )


def test_base_latency_scales_with_size_and_hops():
    _, cfg, net = make_net(8)
    lat = net.base_latency(0, 7, 4096)
    expected = (
        cfg.message_overhead_pcycles
        + 4 * cfg.router_delay_pcycles
        + 4096 / cfg.link_rate
    )
    assert lat == pytest.approx(expected)


def test_transfer_advances_clock():
    eng, cfg, net = make_net(8)

    def go():
        yield from net.transfer(0, 7, 4096)

    eng.process(go())
    eng.run()
    assert eng.now == pytest.approx(net.base_latency(0, 7, 4096))
    assert net.bytes_sent == 4096


def test_contention_on_shared_link():
    eng, cfg, net = make_net(8)
    done = []

    def go(tag):
        yield from net.transfer(0, 3, 4096)  # same row, shares links
        done.append((tag, eng.now))

    eng.process(go("a"))
    eng.process(go("b"))
    eng.run()
    assert done[0][0] == "a"
    assert done[1][1] > done[0][1]


def test_disjoint_paths_do_not_contend():
    eng, cfg, net = make_net(8)  # 2x4: 0->1 and 6->7 are disjoint
    done = []

    def go(src, dst):
        yield from net.transfer(src, dst, 4096)
        done.append(eng.now)

    eng.process(go(0, 1))
    eng.process(go(6, 7))
    eng.run()
    assert done[0] == pytest.approx(done[1])


def test_negative_bytes_rejected():
    eng, _, net = make_net(8)

    def go():
        yield from net.transfer(0, 1, -1)

    eng.process(go())
    with pytest.raises(ValueError):
        eng.run()


def test_coords_out_of_range():
    _, _, net = make_net(8)
    with pytest.raises(ValueError):
        net.coords(8)


def test_xy_routing_cannot_deadlock_under_crossing_traffic():
    # All-to-all bursts on a 4x4 mesh must complete (acyclic link order).
    eng, cfg, net = make_net(16)
    done = []

    def go(src, dst):
        yield from net.transfer(src, dst, 1024)
        done.append((src, dst))

    for s in range(16):
        for d in range(16):
            if s != d:
                eng.process(go(s, d))
    eng.run()
    assert len(done) == 16 * 15


def test_jump_transfer_rejects_a_negative_window():
    eng, cfg, net = make_net(8)
    t0 = eng.now
    huge = 10 * cfg.link_rate * (
        cfg.message_overhead_pcycles + 8 * cfg.router_delay_pcycles
    )
    with pytest.raises(ValueError, match="negative timeout delay"):
        net.try_jump_transfer(0, 7, -huge)
    assert eng.now == t0 and net.bytes_sent == 0
