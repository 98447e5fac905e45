"""Simulator performance microbenchmarks (not a paper table).

Measures the event kernel's throughput — the quantity that bounds how
large a machine/workload the reproduction can simulate — plus the cost
of the hot primitives (resource handoff, ring arithmetic, mesh routing).
These use real pytest-benchmark rounds."""

from repro.config import SimConfig
from repro.hw.network import MeshNetwork
from repro.optical.ring import CacheChannel
from repro.sim import Engine, Resource


def test_timeout_throughput(benchmark):
    """Schedule-and-fire throughput of bare timeouts."""

    def run():
        eng = Engine()
        for i in range(5_000):
            eng.timeout(i % 97)
        eng.run()
        return eng.events_processed

    events = benchmark(run)
    assert events == 5_000


def test_process_switch_throughput(benchmark):
    """Generator suspend/resume cost."""

    def run():
        eng = Engine()

        def proc():
            for _ in range(2_000):
                yield eng.timeout(1)

        eng.process(proc())
        eng.run()
        return eng.now

    assert benchmark(run) == 2_000


def test_sleep_throughput(benchmark):
    """Processes sleeping on bare delays (``yield d``): the wait most
    model processes make, served by their wake tokens."""

    def run():
        eng = Engine()

        def proc(d):
            for _ in range(250):
                yield d

        for k in range(8):
            eng.process(proc(1.0 + 0.125 * k))
        eng.run()
        return eng.events_processed

    # 8 x 250 sleeps, 8 first resumes, 8 completion events
    assert benchmark(run) == 2_016


def test_claim_cycle_throughput(benchmark):
    """Claim, hold and release on shared capacity-1 resources."""

    def run():
        eng = Engine()
        resources = [Resource(eng, capacity=1) for _ in range(4)]

        def proc(k):
            for i in range(100):
                res = resources[(i + k) % 4]
                tok = res.claim()
                yield tok
                yield 1.0
                res.release(tok)

        for k in range(8):
            eng.process(proc(k))
        eng.run()
        return eng.now

    assert benchmark(run) == 200.0


def test_resource_handoff_throughput(benchmark):
    """Contended single-server queue churn."""

    def run():
        eng = Engine()
        res = Resource(eng, capacity=1)

        def worker():
            for _ in range(200):
                req = res.request()
                yield req
                yield eng.timeout(1)
                res.release(req)

        for _ in range(10):
            eng.process(worker())
        eng.run()
        return eng.now

    assert benchmark(run) == 2_000


def test_ring_phase_arithmetic(benchmark):
    """read_delay is pure arithmetic — must stay nanosecond-cheap."""
    cfg = SimConfig.paper()
    eng = Engine()
    ch = CacheChannel(eng, cfg, owner=0)
    ch._reserved = 1
    ch.insert(1)

    def run():
        total = 0.0
        for _ in range(1_000):
            total += ch.read_delay(1)
        return total

    assert benchmark(run) > 0


def test_mesh_routing(benchmark):
    """XY route computation across the 2x4 mesh."""
    net = MeshNetwork(Engine(), SimConfig.paper())

    def run():
        n = 0
        for s in range(8):
            for d in range(8):
                n += len(net.route(s, d))
        return n

    assert benchmark(run) > 0


def test_machine_simulation_rate(benchmark):
    """End-to-end events/second on a small full-machine run."""
    from repro.core.runner import run_experiment

    def run():
        res = run_experiment("sor", "nwcache", "optimal", data_scale=0.1)
        return res.events_processed

    events = benchmark.pedantic(run, rounds=1, iterations=1)
    assert events > 1_000
