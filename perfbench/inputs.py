"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is drawn here from one integer
seed, so the same seed always gives the same inputs:

- vertex relabellings B -> P B P^T of the A2, A2-principal and A3
  periods (the relabelled schedule is again a period and does the same
  work, so the seed changes labels, not cost);
- fixed-length A3 mutation words with no immediate repeats that are not
  periods (the shuffle formula holds without periodicity);
- numeric sample points for the Rogers sums, the stationary-point
  construction, Phi_b and li2;
- the values passed to the command line as --rng-seed, --y and --z.

`check_schedules` re-runs `check_period` on every relabelled schedule;
the benchmark calls it before any timing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from clusterdilog import (ExchangeMatrix, MutationSchedule, builtin_seed,
                          check_period)

A3_MATRIX = ((0, -1, 0), (1, 0, -1), (0, 1, 0))
A3_PERIOD = ((1, 2, 1, 3, 2, 1, 3, 2, 1), (3, 2, 1))
WORD_LENGTH = 6
ROGERS_POINTS = (300, 150)      # A2, A3
SADDLE_POINTS = (30, 10)        # A2, A3
PHIB_POINTS = 24
PHIPSI_POINTS = 16
LI2_POINTS = 200                # half real, half complex


def a3_seed():
    return (ExchangeMatrix(np.array(A3_MATRIX, dtype=np.int64)),
            MutationSchedule(*A3_PERIOD))


def relabel(B: ExchangeMatrix, sched: MutationSchedule, perm):
    """Rename vertex i to perm[i] (0-based perm, 1-based schedule).

    B'[perm[i], perm[j]] = B[i, j]; the sequence is renamed letter by
    letter and nu' = perm . nu . perm^-1.
    """
    n = B.n
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            b[perm[i], perm[j]] = B.entries[i, j]
    seq = tuple(perm[k - 1] + 1 for k in sched.sequence)
    nu = [0] * n
    for i, v in enumerate(sched.nu):
        nu[perm[i]] = perm[v - 1] + 1
    return ExchangeMatrix(b), MutationSchedule(seq, tuple(nu))


def nonperiodic_word(rng, B: ExchangeMatrix, length: int) -> MutationSchedule:
    """A word of the given length with no immediate repeats that is not
    a period of B (redrawn until it is not)."""
    while True:
        word = [int(rng.integers(1, B.n + 1))]
        while len(word) < length:
            k = int(rng.integers(1, B.n + 1))
            if k != word[-1]:
                word.append(k)
        sched = MutationSchedule.identity_nu(word, B.n)
        if not check_period(B, sched).periodic:
            return sched


@dataclass(frozen=True)
class Inputs:
    """All generated inputs of one seed."""

    seed: int
    a2: tuple
    a2p: tuple
    a3: tuple
    word: MutationSchedule
    y_a2: tuple        # Rogers-sum sample points, one y0 per trial
    y_a3: tuple
    u_a2: tuple        # stationary-point initial data, one u1 per trial
    u_a3: tuple
    z_phib: tuple      # real points for unitarity and recurrence
    z_phipsi: tuple
    x_li2: tuple       # real and complex li2 arguments
    cli_rng_seed: int
    cli_y: tuple
    cli_z: float


def _perm(rng, n):
    return [int(v) for v in rng.permutation(n)]


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    a2 = builtin_seed("A2")
    a2p = builtin_seed("A2-principal")
    a3 = a3_seed()
    a2 = relabel(*a2, _perm(rng, 2))
    a2p = relabel(*a2p, _perm(rng, 4))
    a3 = relabel(*a3, _perm(rng, 3))
    word = nonperiodic_word(rng, a3[0], WORD_LENGTH)
    lo, hi = np.log(1e-3), np.log(1e3)
    y_a2 = tuple(tuple(np.exp(rng.uniform(lo, hi, 2))) for _ in range(ROGERS_POINTS[0]))
    y_a3 = tuple(tuple(np.exp(rng.uniform(lo, hi, 3))) for _ in range(ROGERS_POINTS[1]))
    u_a2 = tuple(tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(SADDLE_POINTS[0]))
    u_a3 = tuple(tuple(rng.uniform(-1.5, 1.5, 3)) for _ in range(SADDLE_POINTS[1]))
    z_phib = tuple(float(z) for z in rng.uniform(-0.4, 0.4, PHIB_POINTS))
    z_phipsi = tuple(float(z) for z in rng.uniform(-0.4, 0.4, PHIPSI_POINTS))
    half = LI2_POINTS // 2
    real = [float(x) for x in rng.uniform(-30.0, 1.0, half)]
    # complex points keep an angle of at least 0.2 from the cut [1, oo)
    cplx = [complex(r * np.cos(t), r * np.sin(t)) for r, t in
            zip(rng.uniform(0.1, 4.0, half),
                rng.uniform(0.2, 2 * np.pi - 0.2, half))]
    return Inputs(
        seed=seed, a2=a2, a2p=a2p, a3=a3, word=word,
        y_a2=y_a2, y_a3=y_a3, u_a2=u_a2, u_a3=u_a3,
        z_phib=z_phib, z_phipsi=z_phipsi, x_li2=tuple(real + cplx),
        cli_rng_seed=int(rng.integers(1, 2**31)),
        cli_y=tuple(round(float(v), 6) for v in np.exp(rng.uniform(-2, 2, 2))),
        cli_z=round(float(rng.uniform(-0.4, 0.4)), 6),
    )


def check_schedules(inp: Inputs) -> list:
    """Names of relabelled schedules that fail check_period (empty when
    every one is still a period)."""
    return [name for name in ("a2", "a2p", "a3")
            if not check_period(*getattr(inp, name)).periodic]
