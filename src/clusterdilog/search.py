"""Best-effort breadth-first search for short mutation periods.

Explores tropical states (the rows of the matrix plus the c-vectors, in
Python ints) up to a depth bound, deduplicating revisited states, and
reads the relabeling permutation off the c-vectors whenever they are
the unit vectors in some order.  Resource-guarded to small ranks and
depths.
"""

from __future__ import annotations

from .exchange import (ExchangeMatrix, MutationSchedule, _step, _units,
                       check_period)

MAX_RANK = 4
MAX_DEPTH = 12


def search_periods(B: ExchangeMatrix, max_depth: int):
    """All (sequence, nu) with length <= max_depth passing check_period.

    Sequences related by state-revisits are reported once (first hit in
    BFS order).
    """
    if B.n > MAX_RANK:
        raise ValueError(f"search is limited to rank <= {MAX_RANK}")
    if max_depth < 1:
        raise ValueError(f"search depth must be at least 1, got {max_depth}")
    if max_depth > MAX_DEPTH:
        raise ValueError(f"search is limited to depth <= {MAX_DEPTH}")
    units = _units(B.n)
    initial = (B.rows, units)
    seen = {initial}
    frontier = [(initial, ())]
    found = []
    for _ in range(max_depth):
        nxt = []
        for (rows, cols), seq in frontier:
            for kk in range(B.n):
                new = _step(rows, cols, kk)[:2]
                nseq = seq + (kk + 1,)
                # nu with c_{nu(i)} = e_i, if the c-vectors permute the units
                where = {c: j + 1 for j, c in enumerate(new[1])}
                if all(e in where for e in units):
                    sched = MutationSchedule(nseq, tuple(where[e] for e in units))
                    if check_period(B, sched).periodic:
                        found.append(sched)
                if new not in seen:
                    seen.add(new)
                    nxt.append((new, nseq))
        frontier = nxt
    return found
