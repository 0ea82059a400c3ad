"""The demand-cell list functions and the per-cell tile carve, kept as
test oracles.

``list_aggregate_users`` and ``list_singleton_cells`` are the
``aggregate_users`` and ``singleton_cells`` that returned one
:class:`~repro.workload.aggregate.DemandCell` per cell, and
``replace_carve`` is the tile carve that renumbered a tile's cells with one
``dataclasses.replace`` each, verbatim.  The columnar
:class:`~repro.workload.aggregate.CellTable` they became must give the
same cells field for field (``CellTable.to_cells()``).
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace

import numpy as np

from repro.network.users import UserTable
from repro.workload.aggregate import DemandCell

#: Dense cell ids index a ``bincount`` over the whole grid-key span, so
#: they are used only while the span is at most this many bins beyond
#: the user count.  Wider spans (users passed in directly can be
#: arbitrarily far apart) fall back to a 1-D ``np.unique``.
_DENSE_SPAN_SLACK = 1 << 16


def list_aggregate_users(users: "UserTable | list", cell_size_m: float) -> list:
    """Bin users into a square grid of ``cell_size_m`` demand cells.

    Cells are ordered by grid key (lexicographic on the integer bin
    coordinates), so the output is a deterministic function of the user
    list.  Empty bins produce no cell; ``sum(c.demand) == len(users)``.

    ``users`` is a :class:`UserTable` (a :class:`User` list is converted
    once).  Each user's bin becomes a dense id ``(kx - kx_min) * span_y
    + (ky - ky_min)``; a ``bincount`` and a cumsum compact the ids to
    cell indices in key order, ``bincount`` sums each cell's members in
    user order, and one stable sort lists the members.  A key span too
    wide for a ``bincount`` ranks each axis and takes a 1-D ``np.unique``
    of the rank pairs instead.
    """
    if cell_size_m <= 0:
        raise ValueError(f"cell_size_m must be positive, got {cell_size_m}")
    table = UserTable.of(users)
    n = len(table)
    if not n:
        return []
    xy, rates = table.xy, table.min_rate_bps
    keys = np.floor_divide(xy, float(cell_size_m))
    if np.abs(keys).max() >= 2.0 ** 62:
        raise ValueError(
            f"user coordinates up to {np.abs(xy).max()} m are too far out "
            f"for {cell_size_m} m cells"
        )
    keys = keys.astype(np.int64)
    kx, ky = keys[:, 0], keys[:, 1]
    span_x = int(kx.max()) - int(kx.min()) + 1
    span_y = int(ky.max()) - int(ky.min()) + 1
    if span_x * span_y <= n + _DENSE_SPAN_SLACK:
        dense = (kx - kx.min()) * span_y + (ky - ky.min())
        rank = np.cumsum(np.bincount(dense, minlength=span_x * span_y) > 0)
        cell = rank[dense] - 1
    else:
        # Rank each axis (order-preserving, each rank < n), then key on
        # the rank pair, which fits in int64.
        _, rx = np.unique(kx, return_inverse=True)
        _, ry = np.unique(ky, return_inverse=True)
        _, cell = np.unique(rx * (int(ry.max()) + 1) + ry,
                            return_inverse=True)
    num_cells = int(cell.max()) + 1
    counts = np.bincount(cell, minlength=num_cells)
    cx = np.bincount(cell, weights=xy[:, 0], minlength=num_cells) / counts
    cy = np.bincount(cell, weights=xy[:, 1], minlength=num_cells) / counts
    spread = np.hypot(xy[:, 0] - cx[cell], xy[:, 1] - cy[cell])
    # NumPy's stable sort is a radix sort on 16-bit keys.
    order = np.argsort(
        cell.astype(np.uint16) if num_cells <= 1 << 16 else cell,
        kind="stable",
    )
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    radius = np.maximum.reduceat(spread[order], starts)
    min_rate = np.maximum.reduceat(rates[order], starts)
    members = order.tolist()
    bounds = np.append(starts, n).tolist()
    return [
        DemandCell(
            index=c, x=x, y=y, radius_m=r, min_rate_bps=rate, demand=d,
            members=tuple(members[bounds[c]:bounds[c + 1]]),
        )
        for c, (x, y, r, rate, d) in enumerate(zip(
            cx.tolist(), cy.tolist(), radius.tolist(), min_rate.tolist(),
            counts.tolist(),
        ))
    ]


def list_singleton_cells(users: "UserTable | list") -> list:
    """One cell per user: radius 0, demand 1, centroid = exact position.

    The degenerate aggregation whose solve is bit-identical to the
    per-user path (see module docstring)."""
    table = UserTable.of(users)
    return [
        DemandCell(
            index=i, x=x, y=y, radius_m=0.0, min_rate_bps=rate, demand=1,
            members=(i,),
        )
        for i, ((x, y), rate) in enumerate(zip(
            table.xy.tolist(), table.min_rate_bps.tolist()
        ))
    ]


def replace_carve(cells: list, node_idx: list) -> list:
    """A tile's cells: ``cells[i]`` for ``i`` in ``node_idx``, renumbered
    in that order."""
    return [
        dataclass_replace(cells[i], index=new)
        for new, i in enumerate(node_idx)
    ]
