"""Tests for page-table entries and their state machine."""

import pytest

from repro.osim.pagetable import PageEntry, PageState, PageTable
from repro.sim import Engine


@pytest.fixture
def entry():
    return PageEntry(Engine(), page=7)


def test_initial_state(entry):
    assert entry.state is PageState.ABSENT
    assert not entry.dirty
    assert not entry.ring_bit


def test_fault_cycle(entry):
    entry.to_inflight(fetcher=2)
    assert entry.state is PageState.INFLIGHT
    entry.to_memory(2, frame=5, dirty=False)
    assert entry.state is PageState.MEMORY
    assert entry.node == 2 and entry.frame == 5


def test_standard_eviction_cycle(entry):
    entry.to_inflight(0)
    entry.to_memory(0, 1, dirty=True)
    entry.to_swapping()
    entry.to_absent()
    assert entry.state is PageState.ABSENT
    assert entry.frame is None and not entry.dirty


def test_ring_cycle(entry):
    entry.to_inflight(0)
    entry.to_memory(0, 1, dirty=True)
    entry.to_swapping()
    entry.to_ring(channel=0, swapper=0)
    assert entry.ring_bit
    assert entry.ring_channel == 0
    assert entry.last_swapper == 0
    # victim read
    entry.to_inflight(3)
    entry.to_memory(3, 2, dirty=True)
    assert not entry.ring_bit
    assert entry.dirty


def test_ring_drain_cycle(entry):
    entry.to_inflight(0)
    entry.to_memory(0, 1, dirty=True)
    entry.to_swapping()
    entry.to_ring(0, 0)
    entry.to_absent()
    assert entry.state is PageState.ABSENT


def test_illegal_transitions(entry):
    with pytest.raises(RuntimeError):
        entry.to_memory(0, 0, False)  # not inflight
    with pytest.raises(RuntimeError):
        entry.to_swapping()           # not memory
    with pytest.raises(RuntimeError):
        entry.to_ring(0, 0)           # not swapping
    with pytest.raises(RuntimeError):
        entry.to_absent()             # not swapping/ring
    entry.to_inflight(1)
    with pytest.raises(RuntimeError):
        entry.to_inflight(2)          # already inflight


def test_settle_event_fires_on_transition():
    eng = Engine()
    entry = PageEntry(eng, 1)
    woke = []

    def waiter():
        yield entry.settle_event()
        woke.append(eng.now)

    def mover():
        yield eng.timeout(25)
        entry.to_inflight(0)

    eng.process(waiter())
    eng.process(mover())
    eng.run()
    assert woke == [25.0]


def test_settle_event_is_recreated_after_firing():
    eng = Engine()
    entry = PageEntry(eng, 1)
    ev1 = entry.settle_event()
    entry.to_inflight(0)
    ev2 = entry.settle_event()
    assert ev1 is not ev2


# ---------------------------------------------------------------- PageTable
def test_table_register_and_lookup():
    table = PageTable(Engine())
    table.register(range(10, 20))
    assert len(table) == 10
    assert 15 in table
    assert table[15].page == 15
    assert 9 not in table


def test_table_double_register_rejected():
    table = PageTable(Engine())
    table.register(range(5))
    with pytest.raises(ValueError):
        table.register(range(3, 8))


def test_census():
    table = PageTable(Engine())
    table.register(range(4))
    table[0].to_inflight(0)
    census = table.census()
    assert list(census) == list(PageState)  # every state, in enum order
    assert census[PageState.ABSENT] == 3
    assert census[PageState.INFLIGHT] == 1
    assert sum(census.values()) == len(table)
