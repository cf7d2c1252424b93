"""Exact-value tables filled bottom-up over a grid of cells (a, b).

Cell (a, b) of a table draws on at most the cells (a, b - 1) and (a - 1, b);
each table names the ones its grower reads.  A cell is grown only after
those are at least as large, so no evaluation recurses and a cell is
computed again only when a query needs it larger or it was released.
"""

from __future__ import annotations

import threading

__all__ = ["GridTable"]


class GridTable:
    """Cells (a, b) with a, b >= 0, grown in dependency order on demand.

    ``size(cell)`` is the number of entries a cell holds.
    ``grow(cells, a, b, need)`` brings cell (a, b) of the dict ``cells`` to
    ``need`` entries; it is called only once the cells ``reads(a, b)`` names,
    the ones it draws on, hold at least ``need``.  Growth runs under a lock,
    so concurrent readers never see a half-grown box.

    With ``release_used`` (for a grower that rebuilds a cell whole), a cell is
    dropped once both cells that may draw on it, (a, b + 1) and (a + 1, b),
    hold at least as many entries: a fresh box keeps its top row and right
    column, and a later query inside it rebuilds the cells it needs from them.
    """

    def __init__(self, size: Callable[[Any], int],
                 grow: Callable[[dict, int, int, int], None],
                 reads: Callable[[int, int], tuple], *,
                 release_used: bool = False):
        self._size = size
        self._grow = grow
        self._reads = reads
        self._release_used = release_used
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
                    if self._release_used:
                        for x, y in (a_, b_ - 1), (a_ - 1, b_):
                            if self._entries(cells, x, y) <= min(
                                    self._entries(cells, x, y + 1),
                                    self._entries(cells, x + 1, y)):
                                cells.pop((x, y), None)
                cell = cells[a, b]
        return cell

    def _entries(self, cells: dict, a: int, b: int) -> int:
        cell = cells.get((a, b))
        return 0 if cell is None else self._size(cell)

    def _stale(self, cells: dict, a: int, b: int, need: int) -> list:
        """Cells to grow, in dependency order, for (a, b) to hold ``need``.

        The walk goes back from (a, b) through the cells each one reads and
        stops at cells holding ``need``, so a query missing only its own cell
        costs O(1) and a cell nothing reads is never grown.  Sorting puts
        every cell after the cells it draws on.
        """
        stale, todo = set(), [(a, b)]
        while todo:
            cell = todo.pop()
            if cell not in stale and self._entries(cells, *cell) < need:
                stale.add(cell)
                todo += self._reads(*cell)
        return sorted(stale)
