"""Exact-value tables filled bottom-up over a grid of cells (a, b).

An inner cell (a, b), with a and b both positive, draws on the cells
(a, b - 1) and (a - 1, b); an edge cell, with a = 0 or b = 0, draws on none.
A cell is grown only after the cells it draws on are at least as large, so
no evaluation recurses and a cell is computed again only when a query needs
it larger or its grower dropped it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

__all__ = ["GridTable"]


class GridTable:
    """Cells (a, b) with a, b >= 0, grown in dependency order on demand.

    A cell is a sequence; its ``len`` is the number of entries it holds.
    ``grow(cells, a, b, need)`` brings cell (a, b) of the dict ``cells`` to
    ``need`` entries; it is called only once the inner neighbours of (a, b)
    hold at least ``need``, and it may drop cells it no longer needs.
    Growth runs under a lock, so concurrent readers never see a half-grown
    box.
    """

    def __init__(self, grow: Callable[[dict, int, int, int], None]):
        self._grow = grow
        self._cells: dict[tuple[int, int], object] = {}
        self._lock = threading.Lock()

    def cache_clear(self) -> None:
        """Drop every cell."""
        with self._lock:
            self._cells = {}

    def cell(self, a: int, b: int, need: int) -> object:
        """Cell (a, b) holding at least ``need`` entries."""
        cell = self._cells.get((a, b))
        if cell is None or len(cell) < need:
            with self._lock:
                cells = self._cells
                for a_, b_ in self._stale(cells, a, b, need):
                    self._grow(cells, a_, b_, need)
                cell = cells[a, b]
        return cell

    def _stale(self, cells: dict, a: int, b: int, need: int) -> list:
        """Cells to grow, in dependency order, for (a, b) to hold ``need``.

        The walk goes back from (a, b) through the inner neighbours of each
        cell and stops at cells holding ``need``, so a query missing only
        its own cell costs O(1) and a cell nothing reads is never grown.
        Sorting puts every cell after the cells it draws on.
        """
        stale, todo = set(), [(a, b)]
        while todo:
            cell = todo.pop()
            if cell not in stale and len(cells.get(cell, ())) < need:
                stale.add(cell)
                x, y = cell
                if x and y:
                    todo += (x, y - 1), (x - 1, y)
        return sorted(stale)
