"""The standard-library PCG64 stream against numpy's default_rng, and the
`--rng-seed` outputs of the CLI modes that draw from it."""

import json

import numpy as np
import pytest

from clusterdilog.cli import main
from clusterdilog.pcg64 import PCG64

EDGE_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**63 + 17, 2**64 - 1,
              2**64, 2**100 + 3, 2**128 + 9, 20111101]
SEEDS = EDGE_SEEDS + list(range(2, 300)) + [
    int(x) for x in np.random.default_rng(0).integers(0, 2**62, 40)]
# the (lo, hi) pairs of `verify classical`, `saddle` and `saddle-lambda`
RANGES = [(np.log(1e-3), np.log(1e3)), (-2.0, 2.0), (-0.5, 0.5)]


def test_seeding_matches_numpy():
    for seed in EDGE_SEEDS:
        ours, ref = PCG64(seed), np.random.PCG64(seed).state["state"]
        assert (ours.state, ours.inc) == (ref["state"], ref["inc"]), seed


def test_raw_stream_matches_numpy():
    for seed in EDGE_SEEDS:
        ours = PCG64(seed)
        ref = np.random.PCG64(seed).random_raw(50).tolist()
        assert [ours.next64() for _ in range(50)] == ref, seed


def test_uniform_matches_numpy_over_many_seeds():
    assert len(set(SEEDS)) >= 300
    for seed in SEEDS:
        ours, ref = PCG64(seed), np.random.default_rng(seed)
        for size in (1, 2, 3):
            for lo, hi in RANGES:
                assert (ours.uniform(lo, hi, size)
                        == ref.uniform(lo, hi, size=size).tolist()), seed


def test_negative_seed():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        PCG64(-1)


@pytest.mark.parametrize("mode", ["classical", "saddle", "saddle-lambda"])
def test_negative_rng_seed_exit_4(capsys, mode):
    assert main(["verify", mode, "--builtin", "A2", "--rng-seed", "-1"]) == 4
    assert capsys.readouterr().err == "error: expected non-negative integer\n"


# `--rng-seed 7 --trials 7` on A2, as printed when the draws came from
# numpy.random.default_rng; newton_step is the step of the exact Jacobian
PINNED = {
    "classical": {
        "identity": "classical", "trials": 7, "n_plus": 2, "n_minus": 3,
        "max_residuals": {"signed": 4.440892098500626e-16,
                          "di": 8.881784197001252e-16,
                          "di_prime": 4.440892098500626e-16},
        "tolerance": 1e-10, "verdict": "PASS"},
    "saddle": {
        "identity": "saddle", "trials": 7,
        "max_residuals": {"stationarity": 5.828670879282072e-16,
                          "action": 1.9984014443252818e-15,
                          "cross_gap": 2.220446049250313e-15,
                          "newton_step": 5.914358653388038e-16},
        "tolerance": 1e-10, "verdict": "PASS"},
    "saddle-lambda": {
        "identity": "saddle-lambda",
        "points": [
            {"lambda": "(1.0707106781186548+0.07071067811865475j)",
             "abs_action": 1.4622185762818233e-16,
             "abs_action_minus_cross": 1.4625851139922054e-16},
            {"lambda": "(1.0353553390593273+0.035355339059327376j)",
             "abs_action": 1.9431274478453612e-16,
             "abs_action_minus_cross": 8.327124423340014e-17},
            {"lambda": "(1.0070710678118655+0.0070710678118654745j)",
             "abs_action": 2.0816910409361176e-16,
             "abs_action_minus_cross": 4.3021338934007917e-16}],
        "tolerance": 1e-06, "verdict": "PASS"},
}


def verify(capsys, *modes):
    code = main(["verify", *modes, "--builtin", "A2", "--rng-seed", "7",
                 "--trials", "7"])
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
        1.3947004136484323e-16, 2.9312434655682696e-17,
        1.1102569054260746e-16]
