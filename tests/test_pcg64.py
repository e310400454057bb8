"""The `--rng-seed` contract of the CLI modes that draw: a non-negative
seed, one `random.Random` stream per command line, and draws
lo + (hi - lo)·random() in a fixed order."""

import json
import math
import random

import pytest

from clusterdilog.cli import main
from clusterdilog.dilog import verify_classical_identity
from clusterdilog.fixtures import builtin_seed


@pytest.mark.parametrize("mode", ["classical", "saddle", "saddle-lambda"])
def test_negative_rng_seed_exit_4(capsys, mode):
    assert main(["verify", mode, "--builtin", "A2", "--rng-seed", "-1"]) == 4
    assert capsys.readouterr().err == "error: expected non-negative integer\n"


# `--rng-seed 7 --trials 7` on A2, as printed with the draws taken from
# random.Random; newton_step is the step of the exact Jacobian
PINNED = {
    "classical": {
        "identity": "classical", "trials": 7, "n_plus": 2, "n_minus": 3,
        "max_residuals": {"signed": 4.440892098500626e-16, "di": 0.0,
                          "di_prime": 4.440892098500626e-16},
        "tolerance": 1e-10, "verdict": "PASS"},
    "saddle": {
        "identity": "saddle", "trials": 7,
        "max_residuals": {"stationarity": 4.440892098500626e-16,
                          "action": 8.881784197001252e-16,
                          "cross_gap": 8.881784197001252e-16,
                          "newton_step": 3.602387652817451e-16},
        "tolerance": 1e-10, "verdict": "PASS"},
    "saddle-lambda": {
        "identity": "saddle-lambda",
        "points": [
            {"lambda": "(1.0707106781186548+0.07071067811865475j)",
             "abs_action": 3.1923154206301063e-16,
             "abs_action_minus_cross": 2.637478615936459e-16},
            {"lambda": "(1.0353553390593273+0.035355339059327376j)",
             "abs_action": 4.892383465290044e-17,
             "abs_action_minus_cross": 9.078858071346792e-18},
            {"lambda": "(1.0070710678118655+0.0070710678118654745j)",
             "abs_action": 1.9255522917343355e-16,
             "abs_action_minus_cross": 1.3704496659737956e-16}],
        "tolerance": 1e-06, "verdict": "PASS"},
}


def verify(capsys, *modes, trials=7):
    code = main(["verify", *modes, "--builtin", "A2", "--rng-seed", "7",
                 "--trials", str(trials)])
    assert code == 0
    return json.loads(capsys.readouterr().out)["results"]


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_pinned_output(capsys, mode):
    assert verify(capsys, mode) == [PINNED[mode]]


def test_modes_share_one_stream(capsys):
    """The modes of one command line draw in turn from one stream, so
    saddle-lambda's points after classical and saddle differ from its
    points alone."""
    *_, lam = verify(capsys, "classical", "saddle", "saddle-lambda")
    assert [p["abs_action"] for p in lam["points"]] == [
        2.517441801362893e-16, 2.8452770308440397e-16,
        9.888215069230255e-17]


def test_classical_draws_from_random(capsys):
    """`verify classical` reports the Rogers sums at y0 = exp(u), each u
    drawn as lo + (hi - lo)·random() on [log 1e-3, log 1e3] from
    random.Random(seed)."""
    B, sched = builtin_seed("A2")
    r, lo, hi = random.Random(7), math.log(1e-3), math.log(1e3)
    reps = [verify_classical_identity(B, sched, [
        math.exp(lo + (hi - lo) * r.random()) for _ in range(B.n)])
        for _ in range(3)]
    [got] = verify(capsys, "classical", trials=3)
    assert got["max_residuals"] == {
        "signed": max(abs(rep.sum_signed) for rep in reps),
        "di": max(rep.di_residual for rep in reps),
        "di_prime": max(rep.di_prime_residual for rep in reps)}
