"""Best-effort breadth-first search for short mutation periods.

Explores tropical states (matrix plus c-vector matrix) up to a depth
bound, deduplicating revisited states, and reads the relabeling
permutation off the c-vector matrix whenever it is a permutation
matrix.  Resource-guarded to small ranks and depths.
"""

from __future__ import annotations

import numpy as np

from .exchange import (ExchangeMatrix, MutationSchedule, TropicalState,
                       check_period, mutate_tropical)

MAX_RANK = 4
MAX_DEPTH = 12


def _permutation_from_cvectors(c: np.ndarray):
    """If the c-vector matrix is a permutation matrix, return nu as an
    image tuple (1-based) with c[:, nu(i)-1] = e_i; else None."""
    n = c.shape[0]
    if not np.array_equal(np.sort(np.abs(c).sum(axis=0)), np.ones(n)):
        return None
    nu = [0] * n
    for i in range(n):
        cols = np.nonzero(c[i, :] == 1)[0]
        if len(cols) != 1 or c[:, cols[0]].sum() != 1:
            return None
        nu[i] = int(cols[0]) + 1
    return tuple(nu)


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
    initial = TropicalState.initial(B)
    seen = {(initial.matrix.entries.tobytes(), initial.cvectors.tobytes())}
    frontier = [(initial, ())]
    found = []
    for _ in range(max_depth):
        nxt = []
        for state, seq in frontier:
            for k in range(1, B.n + 1):
                new = mutate_tropical(state, k)
                nseq = seq + (k,)
                nu = _permutation_from_cvectors(new.cvectors)
                if nu is not None:
                    sched = MutationSchedule(nseq, nu)
                    if check_period(B, sched).periodic:
                        found.append(sched)
                key = (new.matrix.entries.tobytes(), new.cvectors.tobytes())
                if key not in seen:
                    seen.add(key)
                    nxt.append((new, nseq))
        frontier = nxt
    return found
