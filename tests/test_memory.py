"""Memory stays bounded in a long-lived process.

The same mix of heavy queries, a scaled-down library session of every route,
runs round after round: once with the tables kept, once with both
``cache_clear``s between rounds.  The first round warms up untraced, since
``tracemalloc`` slows each big-int allocation many times over; from the
second round on, the memory held at the end of a round must stop growing.
"""

import gc
import tracemalloc

import pytest

from chowchi.chow import (
    ChowParams,
    chow_euler_closed,
    chow_euler_recursive,
    chow_series,
    points_euler_recursive,
)
from chowchi.invariants import QuaternionicParams, quaternionic_euler_closed, sp_euler

from oracles import clear_tables

ROUNDS = 6
SLACK = 4096    # bytes


def one_round(clearing):
    # the second recursive (functional) query reuses most of the first's box
    chow_euler_recursive(ChowParams(4, 14, 40))
    chow_euler_recursive(ChowParams(2, 15, 45))
    chow_series(4, 12, 60, method="functional")
    chow_series(3, 13, 60, method="functional")
    chow_euler_closed(ChowParams(9, 38, 5000))
    points_euler_recursive(20, 150)
    sp_euler(-3, 15000)
    sp_euler(3, 15000)
    quaternionic_euler_closed(QuaternionicParams(3, 6, 2000))
    if clearing:
        clear_tables()


@pytest.mark.parametrize("clearing", [False, True], ids=["tables-kept", "tables-cleared"])
def test_memory_stops_growing_after_warm_up(clearing):
    clear_tables()
    one_round(clearing)     # warm-up, untraced
    readings = []
    tracemalloc.start()
    try:
        for _ in range(ROUNDS - 1):
            one_round(clearing)
            # freelists, which only a full collection empties, read as growth
            gc.collect()
            readings.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        clear_tables()
    growth = [reading - readings[0] for reading in readings[1:]]
    assert all(abs(g) <= SLACK for g in growth), growth
