"""Command-line driver.

Subcommands
-----------
mutate   dump a numeric y-seed trajectory along the schedule
verify   run one or more verifications: classical, quantum-tropical,
         quantum-universal, shuffle, dual, saddle, saddle-lambda
search   best-effort BFS for short periods of a matrix
phib     noncompact quantum dilogarithm values and property checks

Seeds come from --builtin {A1, A2, A2-principal} or --seed-file (JSON
with 1-based indices).  Reports are JSON on stdout; exit code 0 means
every requested verification passed, 2 a schedule failed the period
check, 3 a numerical verification failed, 4 the input could not be
parsed or was out of range.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import re
import sys

from . import __version__
from .errors import ClusterDilogError, NotAPeriod

EXIT_PASS = 0
EXIT_NOT_A_PERIOD = 2
EXIT_NUMERICAL = 3
EXIT_PARSE = 4

class CLIParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option looks like "-<digit>" or "-.", so such a word is a
        # value: --q0 -2/5, --b -0.8,0.3 and --z -1,0.2 parse
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise CLIParseError(message)


def _positive(kind, what):
    """An argparse type: a finite positive `kind`, else a one-line error."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = 0           # not a number of this kind: reported below
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a {what}, got {text}")
        return value
    return parse


_positive_int = _positive(int, "positive integer")


def _rational_point(text):
    from .ratfunc import RationalPointField
    try:
        return RationalPointField(text).q0
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"q0={text}: {exc}") from None


def _build_parser():
    top = _Parser(prog="clusterdilog", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_seed_opts(p):
        p.add_argument("--builtin", help="builtin seed: A1, A2, A2-principal")
        p.add_argument("--seed-file", help="JSON seed document")
        p.add_argument("--format", choices=("json", "md", "csv"),
                       default="json")

    p = sub.add_parser("mutate", help="dump a numeric trajectory")
    add_seed_opts(p)
    p.add_argument("--y", help="comma-separated positive initial y (default all ones)")
    p.set_defaults(run=cmd_mutate)

    p = sub.add_parser("verify", help="verify identities for a period")
    p.add_argument("modes", nargs="+", choices=VERIFY_MODES)
    add_seed_opts(p)
    p.add_argument("-N", type=_positive_int, default=None, help="truncation order")
    p.add_argument("--tol", type=_positive(float, "finite positive number"),
                   help="tolerance (default 1e-10; 1e-6 for saddle-lambda)")
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--cut", type=_positive_int, default=None,
                   help="shuffle cut index (default: every cut, one walk)")
    p.add_argument("--q0", type=_rational_point, default=None,
                   help="rational point q0, e.g. 3/8: a probabilistic "
                   "cross-check in Fraction arithmetic, independent of the "
                   "packed numerators (slower than the exact check)")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="deformation parameter as 're,im'")
    p.add_argument("--rng-seed", type=int, default=20111101)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("search", help="BFS for short periods")
    add_seed_opts(p)
    p.add_argument("--depth", type=_positive_int, default=6)
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("phib", help="noncompact quantum dilogarithm")
    p.add_argument("--b", default="1.0", help="parameter b, 're' or 're,im'")
    p.add_argument("--z", default="0.0", help="argument z, 're' or 're,im'")
    p.add_argument("--check",
                   choices=("value", "unitarity", "recurrence", "duality",
                            "phipsi", "asymptotics", "psi-asymptotics"),
                   default="value")
    p.add_argument("--format", choices=("json", "md", "csv"), default="json")
    p.set_defaults(run=cmd_phib)
    return top


def _parse_complex(text):
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(text), 0.0)


def _load_seed(args):
    from .fixtures import builtin_seed, load_seed_file
    if getattr(args, "builtin", None):
        return builtin_seed(args.builtin)
    if getattr(args, "seed_file", None):
        return load_seed_file(args.seed_file)
    raise ValueError("a seed is required: pass --builtin or --seed-file")


def _render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, default=str)
    if fmt == "md":
        return _render_md(report)
    return _render_csv(report)


def _render_md(report, indent=0):
    lines = []
    pad = "  " * indent
    for key, val in report.items():
        if isinstance(val, dict):
            lines.append(f"{pad}- **{key}**:")
            lines.append(_render_md(val, indent + 1))
        elif isinstance(val, list):
            lines.append(f"{pad}- **{key}**: {json.dumps(val, default=str)}")
        else:
            lines.append(f"{pad}- **{key}**: {val}")
    return "\n".join(lines)


def _csv_rows(report):
    """The report's first table (rows or points), else its scalars."""
    for rep in [report, *report.get("results", [])]:
        rows = rep.get("rows") or rep.get("points")
        if rows:
            return rows
    return [{k: v for k, v in report.items()
             if not isinstance(v, (dict, list))}]


def _render_csv(report):
    import csv
    import io
    rows, out = _csv_rows(report), io.StringIO()
    writer = csv.DictWriter(out, list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue().removesuffix("\n")


# ---------------------------------------------------------------------------
# command handlers


def cmd_mutate(args):
    from .exchange import numeric_trajectory
    from .fixtures import seed_to_dict
    B, sched = _load_seed(args)
    y0 = [float(v) for v in args.y.split(",")] if args.y else [1.0] * B.n
    if not all(map(math.isfinite, y0)):
        raise ValueError(f"--y must be finite, got {args.y}")
    if len(y0) != B.n:
        raise ValueError(f"--y needs {B.n} entries")
    traj = numeric_trajectory(B, sched.sequence, y0)
    rows = []
    for t, seed in enumerate(traj):
        row = {"t": t + 1, "y": list(seed.values)}
        if t < len(sched.sequence):
            k = sched.sequence[t]
            row["k"] = k
            row["active_y"] = seed.values[k - 1]
        rows.append(row)
    report = {
        "command": "mutate",
        "seed": seed_to_dict(B, sched),
        "y0": y0,
        "rows": rows,
    }
    return EXIT_PASS, report


def _uniform(r, lo, hi, size):
    """size draws from [lo, hi): `random()` keeps its stream across versions."""
    return [lo + (hi - lo) * r.random() for _ in range(size)]


def _verify_classical(B, sched, args, rng):
    tol = args.tol if args.tol is not None else 1e-10
    trials = args.trials or 100
    worst = {"signed": 0.0, "di": 0.0, "di_prime": 0.0}
    from .exchange import require_period
    require_period(B, sched)    # a non-period exits 2 before dilog loads
    from .dilog import verify_classical_identity
    for _ in range(trials):
        y0 = [math.exp(v) for v in _uniform(rng(), math.log(1e-3),
                                            math.log(1e3), B.n)]
        rep = verify_classical_identity(B, sched, y0)
        worst["signed"] = max(worst["signed"], abs(rep.sum_signed))
        worst["di"] = max(worst["di"], rep.di_residual)
        worst["di_prime"] = max(worst["di_prime"], rep.di_prime_residual)
    passed = max(worst.values()) < tol
    return passed, {"identity": "classical", "trials": trials,
                    "n_plus": rep.n_plus, "n_minus": rep.n_minus,
                    "max_residuals": worst, "tolerance": tol}


def _exact(name, B, sched, args, rng):
    rep = args.exact(name)
    return rep.passed, rep.to_json()


def _verify_shuffle(B, sched, args, rng):
    from .qident import _ring, _shuffle_residuals
    cuts = [args.cut] if args.cut else list(range(1, sched.length + 1))
    reports = _shuffle_residuals(B, sched, cuts, args.N, args.q0)
    passed = all(r.passed for r in reports)
    return passed, {"identity": "shuffle", "order": args.N, "cuts": cuts,
                    "residual_terms": [r.to_json()["residual_terms"]
                                       for r in reports],
                    "mode": _ring(args.q0).name}


def _verify_dual(B, sched, args, rng):
    from .qident import verify_dual_pair
    r1, r2 = verify_dual_pair(B, sched, args.N, q0=args.q0,
                              tropical=args.exact("verify_tropical_identity"))
    passed = r1.passed and r2.passed
    return passed, {"identity": "dual", "order": args.N,
                    "direct": r1.to_json(), "reversed": r2.to_json()}


def _verify_saddle(B, sched, args, rng):
    from .saddle import build_solution, newton_refine, residuals
    tol = args.tol if args.tol is not None else 1e-10
    trials = args.trials or 50
    worst = {"stationarity": 0.0, "action": 0.0, "cross_gap": 0.0,
             "newton_step": 0.0}
    for _ in range(trials):
        u1 = _uniform(rng(), -2.0, 2.0, B.n)
        st = build_solution(B, sched, u1)
        rep = residuals(st, B, sched)
        worst["stationarity"] = max(worst["stationarity"], rep.max_residual)
        worst["action"] = max(worst["action"], abs(rep.action_value))
        worst["cross_gap"] = max(worst["cross_gap"],
                                 abs(rep.action_value - rep.cross_check_value))
        worst["newton_step"] = max(worst["newton_step"],
                                   newton_refine(st, B, sched))
    passed = (worst["stationarity"] < tol
              and worst["action"] < tol
              and worst["cross_gap"] < 1e-12
              and worst["newton_step"] < 1e-12)
    return passed, {"identity": "saddle", "trials": trials,
                    "max_residuals": worst, "tolerance": tol}


def _verify_saddle_lambda(B, sched, args, rng):
    from .saddle import build_solution, residuals
    tol = args.tol if args.tol is not None else 1e-6
    if args.lam:
        lams = [_parse_complex(args.lam)]
    else:
        ray = cmath.exp(1j * math.pi / 4)
        lams = [1 + d * ray for d in (0.1, 0.05, 0.01)]
    rows = []
    passed = True
    for lam in lams:
        u1 = _uniform(rng(), -0.5, 0.5, B.n)
        st = build_solution(B, sched, u1, mode="lambda", lam=lam)
        rep = residuals(st, B, sched)
        val, cross = rep.action_value, rep.cross_check_value
        ok = abs(val) < tol and rep.max_residual < 1e-9
        passed = passed and ok
        rows.append({"lambda": str(lam), "abs_action": abs(val),
                     "abs_action_minus_cross": abs(val - cross)})
    return passed, {"identity": "saddle-lambda", "points": rows,
                    "tolerance": tol}


VERIFIERS = {
    "classical": _verify_classical,
    "quantum-tropical": lambda *a: _exact("verify_tropical_identity", *a),
    "quantum-universal": lambda *a: _exact("verify_universal_identity", *a),
    "shuffle": _verify_shuffle,
    "dual": _verify_dual,
    "saddle": _verify_saddle,
    "saddle-lambda": _verify_saddle_lambda,
}
VERIFY_MODES = tuple(VERIFIERS)


def cmd_verify(args):
    from .fixtures import seed_to_dict
    B, sched = _load_seed(args)
    args.N = args.N or (8 if B.n <= 2 else 6)   # default truncation order
    @functools.cache
    def rng():  # one stream, built by the first mode that draws
        if args.rng_seed < 0:
            raise ValueError("expected non-negative integer")
        import random
        return random.Random(args.rng_seed)

    @functools.cache
    def exact(name):    # each exact check once: dual reuses the tropical one
        from . import qident
        return getattr(qident, name)(B, sched, args.N, q0=args.q0)
    args.exact = exact
    outcomes = [VERIFIERS[mode](B, sched, args, rng) for mode in args.modes]
    for passed, rep in outcomes:    # the verdict is set here, once
        rep["verdict"] = "PASS" if passed else "FAIL"
    all_pass = all(passed for passed, _ in outcomes)
    report = {
        "command": "verify",
        "seed": seed_to_dict(B, sched),
        "rng_seed": args.rng_seed,
        "results": [rep for _, rep in outcomes],
        "verdict": "PASS" if all_pass else "FAIL",
    }
    return EXIT_PASS if all_pass else EXIT_NUMERICAL, report


def cmd_search(args):
    from .search import search_periods
    B, _ = _load_seed(args)
    found = search_periods(B, args.depth)
    report = {
        "command": "search",
        "n": B.n,
        "B": [list(r) for r in B.rows],
        "depth": args.depth,
        "periods": [{"sequence": list(s.sequence), "nu": list(s.nu)}
                    for s in found],
    }
    return EXIT_PASS, report


def cmd_phib(args):
    from . import (PhibParams, check_duality, check_phib_asymptotics, phib,
                   phipsi_residual, psiq_asymptotics, recurrence_residual,
                   unitarity_residual)
    points = [-0.4 + 0.2 * i for i in range(5)]  # linspace's, bit for bit
    b = _parse_complex(args.b)
    z = _parse_complex(args.z)
    p = PhibParams(b)
    report = {"command": "phib", "b": str(b), "check": args.check}
    passed = True
    if args.check == "value":
        val = phib(z, p)
        report.update(z=str(z), value={"re": val.real, "im": val.imag},
                      modulus=abs(val))
    elif args.check == "unitarity":
        rows = [{"z": zz, "residual": unitarity_residual(zz, p)}
                for zz in points]
        passed = all(r["residual"] < 1e-8 for r in rows)
        report.update(rows=rows, tolerance=1e-8)
    elif args.check == "recurrence":
        rows = [{"z": zz, "residual": recurrence_residual(zz, p),
                 "residual_dual": recurrence_residual(zz, p, dual=True)}
                for zz in points]
        passed = all(max(r["residual"], r["residual_dual"]) < 1e-7
                     for r in rows)
        report.update(rows=rows, tolerance=1e-7)
    elif args.check == "duality":
        r_inv, r_neg = check_duality(z, b)
        passed = max(r_inv, r_neg) < 1e-7
        report.update(z=str(z), residual_inverse_b=r_inv,
                      residual_negated_b=r_neg, tolerance=1e-7)
    elif args.check == "phipsi":
        res = phipsi_residual(z, p)
        passed = res < 1e-6
        report.update(z=str(z), residual=res, tolerance=1e-6)
    elif args.check == "asymptotics":
        rows = [{"b": bb, "defect": d}
                for bb, d in check_phib_asymptotics(z.real, [0.5, 0.4, 0.3, 0.2])]
        passed = all(rows[i]["defect"] > rows[i + 1]["defect"]
                     for i in range(len(rows) - 1))
        report.update(z=z.real, rows=rows)
    elif args.check == "psi-asymptotics":
        rows = [{"q": qq, "defect": d}
                for qq, d in psiq_asymptotics(z.real or 1.0,
                                              [0.9, 0.95, 0.99, 0.999])]
        passed = all(rows[i]["defect"] > rows[i + 1]["defect"]
                     for i in range(len(rows) - 1))
        report.update(x=z.real or 1.0, rows=rows)
    report["verdict"] = "PASS" if passed else "FAIL"
    return EXIT_PASS if passed else EXIT_NUMERICAL, report


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # argparse (3.11) reads --z=-- as []
            raise CLIParseError("'--' is not an option value")
    except CLIParseError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        code, report = args.run(args)
    except NotAPeriod as exc:
        code = EXIT_NOT_A_PERIOD
        out = json.dumps({"error": "not a period", "detail": str(exc)})
    except (ClusterDilogError, ArithmeticError) as exc:  # overflow included
        code = EXIT_NUMERICAL
        out = json.dumps({"error": type(exc).__name__, "detail": str(exc)})
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    else:
        out = _render(report, getattr(args, "format", "json"))
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`).  Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
