"""Built-in seeds and the JSON seed-file format.

Seed documents are JSON objects {"n": int, "B": [[int]], "sequence":
[int], "nu": [int]} with 1-based indices; nu is the image list
[nu(1), ..., nu(n)].
"""

from __future__ import annotations

import json

from .exchange import (ExchangeMatrix, MutationSchedule, extend_schedule,
                       principal_extension)


def _a1():
    B = ExchangeMatrix([[0]])
    return B, MutationSchedule((1, 1), (1,))


def _a2():
    B = ExchangeMatrix([[0, -1], [1, 0]])
    return B, MutationSchedule((1, 2, 1, 2, 1), (2, 1))


def _a2_principal():
    B, sched = _a2()
    return principal_extension(B), extend_schedule(sched, B.n)


BUILTINS = {
    "A1": _a1,
    "A2": _a2,
    "A2-principal": _a2_principal,
}


def builtin_seed(name: str):
    try:
        return BUILTINS[name]()
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; available: {sorted(BUILTINS)}") from None


def _integers(values, name):
    """values as a tuple of JSON integers (bool and float rejected)."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{name}: {v!r} is not an integer")
    return values


def seed_from_dict(doc: dict):
    try:
        (n,) = _integers([doc["n"]], "n")
        B = ExchangeMatrix([_integers(row, "B") for row in doc["B"]])
        if B.n != n:
            raise ValueError(f"matrix is {B.n}x{B.n} but n = {n}")
        sequence = _integers(doc["sequence"], "sequence")
        nu = _integers(doc.get("nu", range(1, n + 1)), "nu")
        sched = MutationSchedule(sequence, nu)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed seed document: {exc}") from exc
    return B, sched


def load_seed_file(path: str):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"seed file is not valid JSON: {exc}") from exc
    return seed_from_dict(doc)


def seed_to_dict(B: ExchangeMatrix, sched: MutationSchedule) -> dict:
    return {
        "n": B.n,
        "B": [list(r) for r in B.rows],
        "sequence": list(sched.sequence),
        "nu": list(sched.nu),
    }
