"""Generated periods: the bipartite belt of a Dynkin tree.

Colour the tree in two classes, orient every edge from class 0 to class
1 (b_ij = 1, b_ji = -1), and mutate all of one class, then all of the
other, for h + 2 half-steps, h the Coxeter number.  That is a period of
length n (h + 2) / 2, with nu read off the final c-vectors (Fomin and
Zelevinsky, Y-systems and generalized associahedra, hep-th/0111053).
Every check of the package passes on it, well beyond the A1/A2/A3
fixtures.
"""

import numpy as np
import pytest

from clusterdilog.dilog import verify_classical_identity
from clusterdilog.exchange import (ExchangeMatrix, MutationSchedule, _units,
                                   _walk, check_period, numeric_trajectory)
from clusterdilog.qident import (_shuffle_residuals,
                                 verify_tropical_identity,
                                 verify_universal_identity)
from clusterdilog.saddle import build_solution, newton_refine, residuals


def dynkin_tree(kind: str, n: int):
    """(edges, Coxeter number) of A_n (a path) or D_n (a path with a fork
    at its end), vertices 0-based."""
    path = [(i, i + 1) for i in range(n - 1)]
    if kind == "A":
        return path, n + 1
    if kind == "D":
        return path[:-1] + [(n - 3, n - 1)], 2 * n - 2
    raise ValueError(kind)


def bipartite_period(kind: str, n: int):
    """(B, sched) of the bipartite belt of the Dynkin tree kind_n."""
    edges, h = dynkin_tree(kind, n)
    colour = {0: 0}
    while len(colour) < n:
        for i, j in edges:
            if (i in colour) != (j in colour):
                a, b = (i, j) if i in colour else (j, i)
                colour[b] = 1 - colour[a]
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        s = 1 if colour[i] == 0 else -1
        rows[i][j], rows[j][i] = s, -s
    B = ExchangeMatrix(rows)
    sequence = [i + 1 for half in range(h + 2) for i in range(n)
                if colour[i] == half % 2]
    # nu with c_{nu(i)}(L+1) = e_i, as search reads it
    final = _walk(B, MutationSchedule.identity_nu(sequence, n)).cvectors
    where = {c: j + 1 for j, c in enumerate(final)}
    return B, MutationSchedule(sequence, tuple(where[e] for e in _units(n)))


# kind, n and the period length n (h + 2) / 2
CASES = [("A", 3, 9), ("A", 4, 14), ("D", 4, 16), ("D", 5, 25)]


@pytest.fixture(params=CASES, ids=[f"{kind}{n}" for kind, n, _ in CASES])
def case(request):
    kind, n, length = request.param
    return bipartite_period(kind, n) + (length,)


def test_length_and_period(case):
    B, sched, length = case
    assert sched.length == length
    assert check_period(B, sched).periodic


def test_classical_and_numeric_closure(case):
    B, sched, _ = case
    rng = np.random.default_rng(20111101)
    for _ in range(5):
        y0 = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=B.n))
        assert verify_classical_identity(B, sched, y0).passed()
        end = numeric_trajectory(B, sched.sequence, y0)[-1].values
        assert [end[v - 1] for v in sched.nu] == pytest.approx(y0, rel=1e-10)


def test_stationary_point(case):
    B, sched, _ = case
    rng = np.random.default_rng(20111102)
    for _ in range(3):
        st = build_solution(B, sched, rng.uniform(-1.0, 1.0, size=B.n))
        rep = residuals(st, B, sched)
        assert rep.max_residual < 1e-10
        assert abs(rep.action_value) < 1e-10
        assert abs(rep.action_value - rep.cross_check_value) < 1e-12
        assert newton_refine(st, B, sched) < 1e-12


def test_tropical_and_universal(case):
    B, sched, _ = case
    assert verify_tropical_identity(B, sched, 6).passed
    assert verify_universal_identity(B, sched, 6).passed


def test_shuffle_every_cut(case):
    """The shuffle formula at every cut, all read off one quantum walk."""
    B, sched, length = case
    cuts = list(range(1, length + 1))
    assert all(r.passed for r in _shuffle_residuals(B, sched, cuts, 4))
