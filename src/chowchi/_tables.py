"""Exact-value tables filled bottom-up over a grid of cells (a, b).

Cell (a, b) of a table draws on cells (a, b - 1) and (a - 1, b).  A cell is
grown only after both are at least as large, so no evaluation recurses and
a cell is computed again only when a query needs it larger.
"""

from __future__ import annotations

import threading

__all__ = ["GridTable"]


class GridTable:
    """Cells (a, b) with a, b >= 0, grown in dependency order on demand.

    ``size(cell)`` is the number of entries a cell holds.
    ``grow(cells, a, b, need)`` brings cell (a, b) of the dict ``cells`` to
    ``need`` entries; it is called only once the cells it draws on hold at
    least ``need``.  Growth runs under a lock, so concurrent readers never
    see a half-grown box.
    """

    def __init__(self, size: Callable[[Any], int],
                 grow: Callable[[dict, int, int, int], None]):
        self._size = size
        self._grow = grow
        self._cells: dict[tuple[int, int], Any] = {}
        self._lock = threading.Lock()

    def cache_clear(self) -> None:
        """Drop every cell."""
        with self._lock:
            self._cells = {}

    def cell(self, a: int, b: int, need: int) -> Any:
        """Cell (a, b) holding at least ``need`` entries."""
        cell = self._cells.get((a, b))
        if cell is None or self._size(cell) < need:
            with self._lock:
                cells = self._cells
                for a_, b_ in self._stale(cells, a, b, need):
                    self._grow(cells, a_, b_, need)
                cell = cells[a, b]
        return cell

    def _stale(self, cells: dict, p: int, b_max: int, need: int):
        """Cells (a, b), a <= p, b <= b_max, holding fewer than ``need``
        entries, in dependency order.

        Every growth brings a run of cells ending at b_max to one size, so
        sizes never increase along b: for each a the stale cells form a
        suffix, found by scanning down from b_max.  A query whose box is
        grown but for its own cell therefore costs O(p) here.
        """
        def size(a, b):
            cell = cells.get((a, b))
            return 0 if cell is None else self._size(cell)

        for a in range(p + 1):
            b0 = b_max + 1
            while b0 > 0 and size(a, b0 - 1) < need:
                b0 -= 1
            for b in range(b0, b_max + 1):
                yield a, b
