"""The four benchmark workloads as fixed task lists.

Every task returns (ok, residual): `ok` is the verdict check (exact PASS
with no residual terms, exit code and report verdict, or a stated
tolerance against an oracle) and `residual` the largest numerical
deviation the task saw, or None for exact tasks.  A task that raises
counts as failed.

Why these four (each loads a different layer of the stack):

- tropical: monomial arguments put the time into ratfunc coefficient
  lifting and torus invert/psi_series; quantum_mutate never runs, so
  this is the bypass for mutation changes.
- universal: the noncommutative path, where quantum_mutate and the
  generic invert act on dense torus elements.
- numeric: dilog, phib and saddle do all the work; no exact arithmetic.
- cli: cold launches of the command line, where interpreter start and
  package import dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import clusterdilog as cd
from inputs import Inputs, make_inputs

# Tasks call the library as cd.<name> at run time, so that the tracer's
# wrappers, installed after the tasks are built, see the calls.

# library tolerances (README and cli defaults)
TOL_CLASSICAL = 1e-10
TOL_SADDLE = 1e-10
TOL_NEWTON = 1e-12
TOL_UNITARITY = 1e-8
TOL_RECURRENCE = 1e-7
TOL_PHIPSI = 1e-6
TOL_LI2 = 1e-13


@dataclass
class Task:
    name: str
    layer: str          # layer whose residual this task reports
    run: object         # () -> (ok, residual)


def _exact(rep):
    return (rep.passed and rep.verdict == "PASS" and not rep.residual_terms
            and rep.mode == "exact"), None


def _exact_pair(reps):
    return all(_exact(r)[0] for r in reps), None


# ---------------------------------------------------------------------------
# tropical and universal


def tropical_tasks(inp: Inputs):
    a2, a3 = inp.a2, inp.a3
    return [
        Task("tropical A2 N=16", "qident",
             lambda: _exact(cd.verify_tropical_identity(*a2, 16))),
        Task("dual A2 N=12", "qident",
             lambda: _exact_pair(cd.verify_dual_pair(*a2, 12))),
        Task("tropical A3 N=12", "qident",
             lambda: _exact(cd.verify_tropical_identity(*a3, 12))),
        Task("dual A3 N=10", "qident",
             lambda: _exact_pair(cd.verify_dual_pair(*a3, 10))),
    ]


def universal_tasks(inp: Inputs):
    a2, a2p, a3 = inp.a2, inp.a2p, inp.a3
    tasks = [
        Task("universal A2 N=11", "qident",
             lambda: _exact(cd.verify_universal_identity(*a2, 11))),
        Task("universal A2-principal N=8", "qident",
             lambda: _exact(cd.verify_universal_identity(*a2p, 8))),
        Task("universal A3 N=7", "qident",
             lambda: _exact(cd.verify_universal_identity(*a3, 7))),
    ]

    def shuffle(label, B, sched, N):
        for t in range(1, sched.length + 1):
            tasks.append(Task(
                f"shuffle {label} t={t} N={N}", "qident",
                lambda t=t: _exact(cd.verify_shuffle(B, sched, t, N))))

    shuffle("A2", *a2, 9)
    shuffle("A3", *a3, 6)
    shuffle(f"A3 word {''.join(map(str, inp.word.sequence))}",
            inp.a3[0], inp.word, 6)
    return tasks


# ---------------------------------------------------------------------------
# numeric


def numeric_tasks(inp: Inputs):
    import mpmath
    from clusterdilog.dilog import PI2_6

    def classical(B, sched, ys, signs):
        def run():
            worst = 0.0
            ok = True
            for y0 in ys:
                rep = cd.verify_classical_identity(B, sched, list(y0))
                r = max(abs(rep.sum_signed), rep.di_residual,
                        rep.di_prime_residual)
                worst = max(worst, r)
                ok = ok and r < TOL_CLASSICAL and (rep.n_plus, rep.n_minus) == signs
                # the signed sum is a combination of the unsigned ones
                ok = ok and abs(rep.sum_di + rep.sum_di_prime
                                - sched.length * PI2_6) < TOL_CLASSICAL
            return ok, worst
        return run

    def saddle(B, sched, us):
        def run():
            worst = 0.0
            ok = True
            for u1 in us:
                st = cd.build_solution(B, sched, list(u1))
                rep = cd.residuals(st, B, sched)
                step = cd.newton_refine(st, B, sched)
                gap = abs(rep.action_value - rep.cross_check_value)
                worst = max(worst, rep.max_residual, abs(rep.action_value),
                            gap, step)
                ok = (ok and rep.max_residual < TOL_SADDLE
                      and abs(rep.action_value) < TOL_SADDLE
                      and gap < TOL_NEWTON and step < TOL_NEWTON)
            return ok, worst
        return run

    def unitarity(b):
        p = cd.PhibParams(b)

        def run():
            res = [cd.unitarity_residual(z, p) for z in inp.z_phib]
            return max(res) < TOL_UNITARITY, max(res)
        return run

    def recurrence(b, dual):
        p = cd.PhibParams(b)

        def run():
            res = [cd.recurrence_residual(z, p, dual=dual) for z in inp.z_phib]
            return max(res) < TOL_RECURRENCE, max(res)
        return run

    def phipsi():
        p = cd.PhibParams(complex(0.8, 0.3))

        def run():
            res = [cd.phipsi_residual(z, p) for z in inp.z_phipsi]
            return max(res) < TOL_PHIPSI, max(res)
        return run

    # oracle values are computed here, outside the timed region
    mpmath.mp.dps = 30
    refs = [complex(mpmath.polylog(2, x)) for x in inp.x_li2]

    def li2_vs_mpmath():
        worst = 0.0
        for x, ref in zip(inp.x_li2, refs):
            worst = max(worst, abs(complex(cd.li2(x)) - ref) / max(1.0, abs(ref)))
        return worst < TOL_LI2, worst

    tasks = [
        Task("classical A2", "dilog",
             classical(*inp.a2, inp.y_a2, (2, 3))),
        Task("classical A3", "dilog",
             classical(*inp.a3, inp.y_a3, (3, 6))),
        Task("saddle A2", "saddle", saddle(*inp.a2, inp.u_a2)),
        Task("saddle A3", "saddle", saddle(*inp.a3, inp.u_a3)),
    ]
    for b in (1.0, 1.3):
        tasks.append(Task(f"phib unitarity b={b}", "phib", unitarity(b)))
        tasks.append(Task(f"phib recurrence b={b}", "phib",
                          recurrence(b, False)))
        tasks.append(Task(f"phib recurrence dual b={b}", "phib",
                          recurrence(b, True)))
    tasks.append(Task("phipsi b=0.8+0.3i", "phib", phipsi()))
    tasks.append(Task("li2 vs mpmath", "dilog", li2_vs_mpmath))
    return tasks


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliCall:
    name: str
    argv: list
    expect: int
    check: object       # (report or None, stdout text) -> bool


def _verdict_pass(report, _):
    return report is not None and report.get("verdict") == "PASS"


def cli_calls(inp: Inputs, workdir: str):
    """The fixed list of command lines, seeded through --rng-seed, --y,
    --z and the non-period seed file."""
    B3 = inp.a3[0]
    nonperiod = os.path.join(workdir, f"nonperiod-{inp.seed}.json")
    with open(nonperiod, "w") as fh:
        json.dump({"n": 3, "B": B3.entries.tolist(),
                   "sequence": list(inp.word.sequence), "nu": [1, 2, 3]}, fh)
    y = ",".join(repr(v) for v in inp.cli_y)
    rs = str(inp.cli_rng_seed)

    def mutate_closes(report, _):
        # a period returns the seed to itself: y_nu(i)(L+1) = y_i(1)
        if report is None:
            return False
        rows = report["rows"]
        nu = report["seed"]["nu"]
        last = rows[-1]["y"]
        return len(rows) == 6 and all(
            abs(last[nu[i] - 1] - y0) <= 1e-12 * max(1.0, y0)
            for i, y0 in enumerate(inp.cli_y))

    def finds_pentagon(report, _):
        return report is not None and {"sequence": [1, 2, 1, 2, 1],
                                       "nu": [2, 1]} in report["periods"]

    def rational_point(report, out):
        return (_verdict_pass(report, out)
                and all(r["mode"].startswith("rational-point")
                        for r in report["results"]))

    def exact_pass(report, out):
        return (_verdict_pass(report, out)
                and all(r.get("mode", "exact") == "exact"
                        for r in report["results"]))

    def not_a_period(report, _):
        return report is not None and report.get("error") == "not a period"

    def silent(_, out):
        return out.strip() == ""

    return [
        CliCall("mutate", ["mutate", "--builtin", "A2", "--y", y], 0,
                mutate_closes),
        CliCall("verify classical saddle",
                ["verify", "classical", "saddle", "--builtin", "A2",
                 "--rng-seed", rs], 0, _verdict_pass),
        CliCall("verify saddle-lambda",
                ["verify", "saddle-lambda", "--builtin", "A2",
                 "--rng-seed", rs], 0, _verdict_pass),
        CliCall("phib recurrence",
                ["phib", "--check", "recurrence", "--b", "1.3"], 0,
                _verdict_pass),
        CliCall("phib phipsi",
                ["phib", "--check", "phipsi", "--b", "0.8,0.3",
                 "--z", repr(inp.cli_z)], 0, _verdict_pass),
        CliCall("search", ["search", "--builtin", "A2", "--depth", "5"], 0,
                finds_pentagon),
        CliCall("quantum-tropical dual",
                ["verify", "quantum-tropical", "dual", "--builtin", "A2",
                 "-N", "6"], 0, exact_pass),
        CliCall("quantum-universal shuffle",
                ["verify", "quantum-universal", "shuffle", "--builtin",
                 "A2-principal"], 0, exact_pass),
        CliCall("quantum-universal --q0 3/8",
                ["verify", "quantum-universal", "--builtin", "A2", "-N", "12",
                 "--q0", "3/8"], 0, rational_point),
        CliCall("non-period seed file",
                ["verify", "classical", "--seed-file", nonperiod], 2,
                not_a_period),
        CliCall("unknown builtin", ["mutate", "--builtin", "A7"], 4, silent),
    ]


def judge(call: CliCall, code: int, out: str) -> bool:
    try:
        report = json.loads(out) if out.strip() else None
    except json.JSONDecodeError:
        return False
    try:
        return code == call.expect and bool(call.check(report, out))
    except (KeyError, TypeError, IndexError):
        return False


def launch_cold(call: CliCall, env: dict, workdir: str):
    """Run one command line in a fresh interpreter.

    Returns (exit code, stdout, peak RSS of the child in kB).  Output goes
    to files so that no pipe can fill; the child is reaped with wait4 to
    read its own resource usage.
    """
    out_path = os.path.join(workdir, "cli-stdout.txt")
    err_path = os.path.join(workdir, "cli-stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "clusterdilog.cli", *call.argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        text = fh.read()
    return proc.returncode, text, usage.ru_maxrss


def run_in_process(call: CliCall):
    """Replay one command line through cli.main in this process."""
    from clusterdilog import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(call.argv))
    return code, out.getvalue()


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, workdir: str):
    """Inputs and task list of one workload: a list of Task, or of
    CliCall for the cli workload."""
    inp = make_inputs(seed)
    if workload == "tropical":
        return inp, tropical_tasks(inp)
    if workload == "universal":
        return inp, universal_tasks(inp)
    if workload == "numeric":
        return inp, numeric_tasks(inp)
    if workload == "cli":
        return inp, cli_calls(inp, workdir)
    raise ValueError(f"unknown workload {workload!r}")
