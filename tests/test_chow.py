"""Cycle-space Euler characteristics: the three routes and their identities."""

import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from chowchi import chow
from chowchi.chow import (
    ChowParams,
    chow_euler_closed,
    chow_euler_recursive,
    chow_euler_series,
    chow_series,
    divisor_check,
    points_euler_recursive,
    v_pn,
)
from chowchi.series import series_mul

from oracles import clear_tables


def test_params_validation():
    with pytest.raises(ValueError, match="^require 0 <= p <= n, got p=2, n=1$"):
        ChowParams(2, 1, 0)
    with pytest.raises(ValueError, match="^require 0 <= p <= n, got p=-1, n=3$"):
        ChowParams(-1, 3, 0)
    with pytest.raises(ValueError, match="^degree must be nonnegative, got d=-1$"):
        ChowParams(p=1, n=3, d=-1)
    # integers only: a float field would reach some routes and not others
    for args in ((2, 2.0, 3), (1.0, 2, 3), (1, 2, 3.0), ("1", 2, 3)):
        with pytest.raises(TypeError):
            ChowParams(*args)
    assert repr(ChowParams(True, 2, 3)) == "ChowParams(p=1, n=2, d=3)"


def test_v_pn_values():
    assert v_pn(0, 1) == 2
    assert v_pn(1, 3) == 6
    for n in range(6):
        assert v_pn(n, n) == 1


def test_v_pn_rejects_bad_range():
    with pytest.raises(ValueError):
        v_pn(-1, 3)
    with pytest.raises(ValueError):
        v_pn(4, 3)


def test_closed_examples():
    assert chow_euler_closed(ChowParams(0, 2, 2)).chi == 6
    assert chow_euler_closed(ChowParams(1, 3, 2)).chi == 21
    for d in (0, 1, 5, 9):
        assert chow_euler_closed(ChowParams(3, 3, d)).chi == 1


def test_recursive_examples():
    assert chow_euler_recursive(ChowParams(1, 2, 2)).chi == 6
    assert chow_euler_recursive(ChowParams(2, 2, 7)).chi == 1
    assert chow_euler_recursive(ChowParams(1, 3, 3)).chi == 56


def test_points_rejects_negative():
    with pytest.raises(ValueError):
        points_euler_recursive(-1, 2)
    with pytest.raises(ValueError):
        points_euler_recursive(2, -1)


def test_series_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chow_series(3, 2, 4)
    with pytest.raises(ValueError):
        chow_series(1, 2, -1)
    with pytest.raises(ValueError):
        chow_series(1, 2, 4, method="magic")
    for method in ("closed", "functional"):
        with pytest.raises(TypeError):
            chow_series(1, 2.0, 3, method)
        with pytest.raises(TypeError):
            chow_series(1.0, 2, 3, method)


def test_series_methods_agree():
    for n in range(7):
        for p in range(n + 1):
            assert chow_series(p, n, 12, method="functional") \
                == chow_series(p, n, 12, method="closed")


def test_divisor_examples():
    assert divisor_check(0, 1) == 2
    assert divisor_check(1, 2) == 6
    assert divisor_check(2, 3) == 20


def test_divisor_rejects_negative():
    with pytest.raises(ValueError):
        divisor_check(-1, 2)
    with pytest.raises(ValueError):
        divisor_check(2, -1)


def test_degree_one_is_pascal():
    for n in range(1, 17):
        for p in range(n):
            left = chow_euler_closed(ChowParams(p + 1, n + 1, 1)).chi
            assert left == chow_euler_closed(ChowParams(p, n, 1)).chi \
                + chow_euler_closed(ChowParams(p + 1, n, 1)).chi


def test_series_factorization_both_methods():
    for method in ("closed", "functional"):
        for n in range(1, 7):
            for p in range(n):
                assert chow_series(p + 1, n + 1, 16, method) == series_mul(
                    chow_series(p + 1, n, 16, method),
                    chow_series(p, n, 16, method),
                )


def test_chi_is_one_exactly_on_degenerate_cells():
    for n in range(7):
        for p in range(n + 1):
            for d in range(9):
                chi = chow_euler_closed(ChowParams(p, n, d)).chi
                assert chi >= 1
                assert (chi == 1) == (p == n or d == 0)


def closed(p, n, d):
    return math.comb(math.comb(n + 1, p + 1) + d - 1, d)


def test_routes_do_not_recurse_in_the_ambient_dimension():
    # n = 1200 is past the default recursion limit of 1000
    clear_tables()
    assert chow_euler_recursive(ChowParams(1, 1200, 3)).chi == closed(1, 1200, 3)
    assert chow_series(1, 1200, 3, "functional").coeffs \
        == tuple(closed(1, 1200, e) for e in range(4))
    assert points_euler_recursive(1200, 3) == math.comb(1203, 3)


# a clear step empties one table or both
_CLEARS = {"recursive": (chow_euler_recursive,), "functional": (chow_series,),
           "both": (chow_euler_recursive, chow_series)}


@st.composite
def route_queries(draw):
    kind = draw(st.sampled_from(["recursive", "points", "functional", "clear"]))
    if kind == "clear":
        return kind, draw(st.sampled_from(sorted(_CLEARS)))
    n = draw(st.integers(0, 9))
    p = draw(st.integers(0, n))
    return kind, p, n, draw(st.integers(0, 24))


@settings(max_examples=80, deadline=None)
@given(st.lists(route_queries(), min_size=1, max_size=12), st.integers(0, 6))
@example([("recursive", 0, 0, 0), ("functional", 4, 4, 0), ("points", 0, 0, 7),
          ("recursive", 5, 5, 9), ("functional", 0, 3, 5)], 3)
@example([("functional", 4, 9, 10), ("functional", 2, 6, 10)], 0)    # inside
@example([("functional", 4, 9, 6), ("functional", 4, 9, 15)], 0)     # higher
@example([("functional", 4, 9, 15), ("functional", 2, 6, 4)], 0)     # lower
@example([("recursive", 1, 2, 6)], 0)         # an inner row (1, 1) of 7 entries
@example([("functional", 4, 9, 10), ("clear", "functional"),
          ("functional", 2, 6, 8)], 0)        # inside, after a clear
def test_tables_answer_any_query_sequence(queries, k):
    # Boxes grow and shrink, orders rise and fall and tables are emptied
    # between queries; every answer is the closed form, a lower order is a
    # prefix of a higher one, and every entry either table keeps, read or
    # not, is its closed value.
    clear_tables()
    for kind, *args in queries:
        if kind == "clear":
            for route in _CLEARS[args[0]]:
                route.cache_clear()
        elif kind == "recursive":
            p, n, d = args
            assert chow_euler_recursive(ChowParams(p, n, d)).chi == closed(p, n, d)
        elif kind == "points":
            _, n, d = args
            assert points_euler_recursive(n, d) == math.comb(n + d, d)
        else:
            p, n, d = args
            s = chow_series(p, n, d, "functional")
            assert s.coeffs == tuple(closed(p, n, e) for e in range(d + 1))
            assert chow_series(p, n, d + k, "functional").coeffs[:d + 1] == s.coeffs
            assert chow_series(p, n, d, "functional") == s
        for cells in chow._SUSPENSION, chow._FUNCTIONAL:
            for (a, b), cell in cells.items():     # cell (a, b) is Q_{a,a+b}
                expected = [closed(a, a + b, e) for e in range(len(cell))]
                assert list(cell) == expected, (a, b)


def test_functional_table_keeps_only_its_frontier():
    # A functional cell is read only to grow its two neighbours, so a fresh
    # (p, n) box keeps its top row and right column; suspension rows are
    # extended in place and every one is kept.  Neither grower reads the
    # edges p = 0 or p = n, so an edge query grows one cell and no box
    # grows the cell (0, 0).
    for p, n, functional, suspension in [(0, 5, 1, 1), (5, 5, 1, 1),
                                         (2, 7, 8, 17), (4, 9, 10, 29)]:
        clear_tables()
        chow_series(p, n, 6, "functional")
        assert len(chow._FUNCTIONAL) == functional
        chow_euler_recursive(ChowParams(p, n, 6))
        assert len(chow._SUSPENSION) == suspension
        assert (0, 0) not in chow._SUSPENSION
    # a second box one column wider: growing its right column releases the
    # first box's, by the (a, b - 1) half of the rule
    clear_tables()
    chow_series(3, 5, 0, "functional")
    chow_series(3, 6, 0, "functional")
    assert {key: len(cell) for key, cell in chow._FUNCTIONAL.items()} == dict.fromkeys(
        [(0, 3), (1, 3), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)], 1)


def test_zero_cycle_query_grows_one_suspension_row():
    # p = 0 is a base case of the recursion: its row reads no other row
    clear_tables()
    assert chow_euler_recursive(ChowParams(0, 1000, 300)).chi == math.comb(1300, 300)
    assert list(chow._SUSPENSION) == [(0, 1000)]


def test_only_the_two_convolution_routes_keep_tables():
    # The 0-cycle point recursion recomputes its running sums on every call.
    tables = {name for name, value in vars(chow).items()
              if callable(getattr(value, "cache_clear", None))}
    assert tables == {"chow_euler_recursive", "chow_series"}
    clear_tables()
    assert points_euler_recursive(30, 200) == math.comb(230, 200)
    assert chow._SUSPENSION == {} and chow._FUNCTIONAL == {}


@pytest.mark.parametrize("seed", range(3))
def test_tables_grow_consistently_under_concurrent_queries(seed):
    clear_tables()
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(0, 10)
            p, d = rng.randint(0, n), rng.randint(0, 40)
            try:
                got = (chow_euler_recursive(ChowParams(p, n, d)).chi,
                       points_euler_recursive(n, d),
                       chow_euler_series(ChowParams(p, n, d)).chi)
            except Exception as exc:    # a half-grown table can raise here
                errors.append(exc)
                return
            if got != (closed(p, n, d), math.comb(n + d, d), closed(p, n, d)):
                errors.append((p, n, d))

    def clearer():
        # emptying a table mid-growth must not leave a half-cleared box
        while not done.is_set():
            clear_tables()

    done = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=worker, args=(6 * seed + i,))
               for i in range(6)]
    emptier = threading.Thread(target=clearer)
    try:
        emptier.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        done.set()
        emptier.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [emptier])
    assert not errors
