"""Mutant check: does the tier-1 suite catch the faults it claims to?

    python3 tools/mutcheck.py [--out FILE]

Each mutant below is a named text replacement (file, old, new) in the
package sources.  For each one, one at a time, the repository is copied
to a temporary directory, the mutant is applied there (its old text must
occur exactly once), and tier-1 runs in the copy with `-x` under a
timeout of FACTOR (3) times a clean run of the same copy.  The mutated
module's own test file (tests/test_<module>.py), if there is one, runs
first and the rest of tier-1 after it, so a mutant dies as soon as its
module's tests catch it; together the two runs are all of tier-1 but
GUARD, which checks this list against the unmutated sources and so
fails in every mutated copy.  The result is one of:

  killed      a test failed;
  survived    every test passed;
  timed out   the run passed the timeout;
  equivalent  every test passed, and the mutant is listed as equivalent:
              it changes no verdict and no output, so no test can kill it.

A Markdown table of the results goes to stdout, and to FILE with --out.
Stdlib only; the working tree is never modified.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
FACTOR = 3              # timeout as a multiple of a clean tier-1 run
PKG = "src/clusterdilog/"
GUARD = "tests/test_mutcheck.py"
COPY_IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".perfbench",
                                     ".pytest_cache", "__pycache__", "*.pyc")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    what: str
    equivalent: str = ""        # why no test can kill it, if none can


MUTANTS = [
    Mutant("rebase-rank3", PKG + "torus.py",
           "e = head - sum(r * di for r, di in zip(row_s, d))",
           "e = head - sum(r * di for r, di in zip(row_s[:2], d))",
           "_rebase drops the q-exponent of shift coordinates 3 and up"),
    Mutant("lift-m9", PKG + "ratfunc.py",
           "steps = tuple(2 * m for m, e in enumerate(fac, 1)",
           "steps = tuple(2 * min(m, 8) for m, e in enumerate(fac, 1)",
           "_shape takes 1 - q^16 in place of 1 - q^(2m) for m >= 9, so "
           "_lift_sum lifts by it in pair_sum and in inverse"),
    Mutant("lift-width-late", PKG + "ratfunc.py",
           "wide = k if bound.bit_length() < k else _width(bound)",
           "wide = k if (bound >> 1).bit_length() < k else _width(bound >> 1)",
           "_lift_sum picks the width from half the summed bound, so the "
           "digits widen one factor late"),
    Mutant("lift-one-digit-bound-undoubled", PKG + "ratfunc.py",
           "bound += b << count",
           "bound += b if val.bit_length() < k else b << count",
           "_lift_sum adds the bound of a group whose packed value is "
           "shorter than k bits undoubled by its factors"),
    Mutant("pair-sum-narrow", PKG + "ratfunc.py",
           "k = _width(bound)\n            groups = _pair_groups(",
           "k = _width(bound) >> 1\n            groups = _pair_groups(",
           "pair_sum widens one rung too narrow for its tracked bound"),
    Mutant("sum-unit-scalars", PKG + "torus.py",
           "_rebase(x, c, newbase, out)",
           "_rebase(x, first.ring.one(), newbase, out)",
           "_sum pairs every element with ring.one(), dropping its scalar"),
    Mutant("pair-sum-lone-qexp", PKG + "ratfunc.py",
           "return c.mul_shifted(e, j)",
           "return c.mul_shifted(e, 0)",
           "pair_sum's lone-triple path drops the q-exponent"),
    Mutant("lone-group-no-low", PKG + "ratfunc.py",
           "(dfac, (val, lo, bound)), = groups\n"
           "            num = Poly(val, bound, k)",
           "(dfac, (val, low, bound)), = groups\n"
           "            num, lo = Poly(val, bound, k), 0",
           "pair_sum returns a lone group without its lowest q-power"),
    Mutant("digit-count-one-short", PKG + "ratfunc.py",
           "return val.bit_length() // k + 1 if val else 0",
           "return (val.bit_length() - 1) // k + 1 if val else 0",
           "the digit count read off a value is one short when its bit "
           "length is a multiple of k, as for 2^k - 1 = -1 + q"),
    Mutant("q-order-not-in-lo", PKG + "ratfunc.py",
           "return QCoefficient(num.unshift(j) if j else num, lo + j, dfac)",
           "return QCoefficient(num.unshift(j) if j else num, lo, dfac)",
           "pair_sum shifts the zero low digits out of a result without "
           "adding their count to lo"),
    Mutant("last-step-wrong-seed", PKG + "qident.py",
           "else invert(Y)))",
           "else invert(initial_quantum_seed(B, N, ring).Y[k - 1])))",
           "the running universal product's last step with eps < 0 inverts "
           "Y_k of the initial seed, not of its own"),
    Mutant("running-product-right", PKG + "qident.py",
           "U = F if U is None else multiply(F, U)",
           "U = F if U is None else multiply(U, F)",
           "the running universal product multiplies each factor in on the "
           "right, U = U F, not F U"),
    Mutant("shuffle-cut-late", PKG + "qident.py",
           "max(cuts, default=0)], walk.signs, N, ring), 1):\n"
           "        F = _tropical_product(B, walk, N, ring, (t - 1,))\n"
           "        T = F if T is None else multiply(T, F)\n"
           "        if t in cuts:\n"
           "            found[t] =",
           "max(cuts, default=0) + 1], walk.signs, N, ring), 1):\n"
           "        F = _tropical_product(B, walk, N, ring, (t - 1,))\n"
           "        T = F if T is None else multiply(T, F)\n"
           "        if t - 1 in cuts:\n"
           "            found[t - 1] =",
           "the shuffle walk runs one step past the last cut, and cut t "
           "reports the residual after step t + 1"),
    Mutant("eq-plus-one", PKG + "ratfunc.py",
           "(other, -_ONE_COEF, 0)",
           "(other, _ONE_COEF, 0)",
           "QCoefficient.__eq__ pairs other with +1, testing a + b == 0"),
    Mutant("invert-rebase-sign", PKG + "torus.py",
           "c.mul_q_power(-2 * sum(map(_times, row_base, d)))",
           "c.mul_q_power(2 * sum(map(_times, row_base, d)))",
           "invert re-bases v onto Y^(-base) with the q-power of the "
           "wrong sign"),
    Mutant("mutate-qpower", PKG + "qident.py",
           "elem = elem.scale_q_power(b[i][kk] * a)",
           "elem = elem.scale_q_power(b[i][kk] * a + 1)",
           "quantum_mutate is one q-power off on Y_i Y_k^a"),
    Mutant("series-early-stop", PKG + "torus.py",
           "for n in range(1, N // step + 1):",
           "for n in range(1, N // step):",
           "_series stops one power early"),
    Mutant("max-exponent-3", PKG + "qident.py",
           "MAX_EXPONENT = 64",
           "MAX_EXPONENT = 3",
           "exchange exponents above 3 are refused"),
    Mutant("canonical-sign-40", PKG + "ratfunc.py",
           "if sum(self.dfac) % 2:",
           "if sum(self.dfac) % 2 != (len(num) >= 40):",
           "canonical() flips the sign wrongly for numerators of 40 or more "
           "coefficients"),
    Mutant("wide-exponent-signed", PKG + "qident.py",
           "c = max(b[kk], key=abs)",
           "c = max(b[kk])",
           "quantum_mutate bounds the exchange exponent by its signed "
           "maximum, so a wide negative entry runs on"),
    Mutant("invert-qexp-zero", PKG + "torus.py",
           "(cz, ce, sum(map(_times, row_e, z))))",
           "(cz, ce, 0))",
           "invert drops the q-exponents of its pair products"),
    Mutant("series-rho0-cap", PKG + "torus.py",
           "_capped_product(xp, x, N - n * rho)",
           "_capped_product(xp, x, N - n * step)",
           "_series caps the powers of a zero-base argument as if its base "
           "had degree equal to its lowest shift"),
    Mutant("split-right-plus-eps", PKG + "qident.py",
           "right = _tropical_product(B, walk, N, ring, reversed(order[m:]), -1)",
           "right = _tropical_product(B, walk, N, ring, reversed(order[m:]), 1)",
           "the tropical check builds its right half from Psi^(+eps), not "
           "the inverses Psi^(-eps)"),
    Mutant("inverse-stored-only", PKG + "ratfunc.py",
           "if num[j:] not in ((1,), (-1,)) or rest != (1,):",
           "if True:",
           "QCoefficient.inverse refuses a unit whose stored numerator is "
           "not +-q^j, such as (1 + q^2) / (1 - q^4)"),
    Mutant("inverse-numerator-only", PKG + "ratfunc.py",
           "if num[j:] not in ((1,), (-1,)) or rest != (1,):",
           "if num[j:] not in ((1,), (-1,)):",
           "QCoefficient.inverse also inverts a value whose reduced "
           "denominator is not q^a prod_m (q^(2m) - 1)^(e_m), such as "
           "(1 + q) / (q^2; q^2)_3"),
    Mutant("split-ceil", PKG + "qident.py",
           "m = len(order) // 2",
           "m = (len(order) + 1) // 2",
           "the tropical split takes ceil(L/2) factors on the left; verdicts "
           "are unchanged, the products of the A2 N = 16 check hand pair_sum "
           "1,203 triples"),
    Mutant("split-lower-even", PKG + "qident.py",
           "m = len(order) // 2",
           "m = (len(order) - 1) // 2",
           "the tropical split takes one factor fewer on the left at even L",
           equivalent="left - right = (P - 1) right for every split point, "
                      "so verdicts and PASS outputs are unchanged; odd L, "
                      "where the pinned pair count is taken, splits as before"),
    Mutant("phib-reflection-sign", PKG + "phib.py",
           "shift = math.pi * (s / 12 + z * z)",
           "shift = math.pi * (s / 12 - z * z)",
           "the reflection for Re z > 0 carries +i pi z^2"),
    Mutant("phib-line-at-poles", PKG + "phib.py",
           "h = 0.5 * min(heights)",
           "h = min(heights)",
           "the line runs at the full height of the lowest poles, through "
           "them"),
    Mutant("phib-clip-no-gap", PKG + "phib.py",
           "clip = 0.5 * min(math.atan2(H - h, H * tan_b) for H in heights)",
           "clip = 0.25 * math.pi",
           "the rays turn by up to pi/4 for every b, past the poles of a "
           "complex b"),
    Mutant("phib-no-projection", PKG + "phib.py",
           "return -2j * sums[0].imag, 2.0 * estimate",
           "return sums[0].conjugate() - sums[0], 2.0 * estimate",
           "for real b and z the mirrored value is conj(R) - R of the right "
           "ray's sum R, not -2i Im R",
           equivalent="conj(R) - R has the real part R.real - R.real = 0.0 "
                      "and the imaginary part -2 Im R exactly, the bits of "
                      "-2i Im R; the mirrored ray, not a projection, keeps "
                      "Re log Phi_b at 0.0 for real b and z"),
    Mutant("phib-mirror-complex-b", PKG + "phib.py",
           "mirror = b.imag == 0 and x.imag == 0",
           "mirror = x.imag == 0",
           "the left ray is taken as the right one's conjugate for complex b "
           "too"),
    Mutant("phib-no-second-pass", PKG + "phib.py",
           "if achieved > 10 * _TOL:",
           "if False:",
           "the 32-point pass never runs, so the null estimate is always "
           "the reported error"),
    Mutant("phib-parts-on-max", PKG + "phib.py",
           "small = min(abs(mb), abs(mbi))",
           "small = max(abs(mb), abs(mbi))",
           "expm1 by parts is hoisted to the panel on max(abs(2b), abs(2/b)), "
           "so at b far from 1 the smaller factor cancels in e^u - 1"),
    Mutant("dilog-small-z", PKG + "dilog.py",
           "return _bernoulli_series(-cmath.log(u) * (z / (1.0 - u)), 30)",
           "return _bernoulli_series(-cmath.log(u), 30)",
           "complex li2 keeps the rounding of 1 - z at small z"),
    Mutant("y-path-last-unchecked", PKG + "exchange.py",
           "for t in range(L + 1):",
           "for t in range(L):",
           "the y-path computes y(L+1) but never checks it for positivity"),
    Mutant("y-path-previous-row", PKG + "exchange.py",
           "for v, c in zip(ys[t], rows[t][kk])]",
           "for v, c in zip(ys[t], rows[t - 1][kk])]",
           "the y-path steps from y(t) along row k_t of B(t-1), not B(t)"),
    Mutant("state-match-rank", PKG + "saddle.py",
           "if B.n != len(state.u[0]) or sched.length != state.length:",
           "if sched.length != state.length:",
           "the state check compares only the length, so a state of another "
           "rank reaches the stationarity system"),
    Mutant("saddle-momentum-sign", PKG + "saddle.py",
           "return [v[i] + max(eps * b[k][i], 0) * v[k] if i != k else -v[k]",
           "return [v[i] + max(-eps * b[k][i], 0) * v[k] if i != k else -v[k]",
           "the momentum map takes [-eps b_ki]_+ copies of v_k"),
    Mutant("jet-log-no-reciprocal", PKG + "saddle.py",
           "{k: x / a.v for k, x in a.d.items()}",
           "{k: x for k, x in a.d.items()}",
           "the jets' log drops the factor 1/x from its derivative, so the "
           "Newton Jacobian is wrong"),
    Mutant("solve-no-pivot-search", PKG + "saddle.py",
           "p = max(below, key=lambda i: abs(rows[i][j]), default=None)",
           "p = min(below, default=None)",
           "the Newton solve eliminates without the pivot search, taking the "
           "first row that holds the column"),
    Mutant("cvector-unsigned", PKG + "exchange.py",
           "tuple(x + eps * bki * a for x, a in zip(c, alpha))",
           "tuple(x + bki * a for x, a in zip(c, alpha))",
           "the c-vector update adds b_ki copies of the active c-vector, "
           "dropping its tropical sign eps"),
    Mutant("exchange-matrix-sign", PKG + "exchange.py",
           "x + (abs(r[kk]) * y + r[kk] * abs(y)) // 2",
           "x + (abs(r[kk]) * y - r[kk] * abs(y)) // 2",
           "matrix mutation adds (abs(b_ik) b_kj - b_ik abs(b_kj)) / 2"),
    Mutant("cli-not-a-period-exit", PKG + "cli.py",
           "code = EXIT_NOT_A_PERIOD",
           "code = EXIT_NUMERICAL",
           "a non-period exits 3, not 2"),
    Mutant("qpower-minus", PKG + "ratfunc.py",
           "return QCoefficient(self.num, self.lo + j, self.dfac)",
           "return QCoefficient(self.num, self.lo - j, self.dfac)",
           "QCoefficient.mul_q_power multiplies by q^-j"),
    Mutant("q-split-no-order", PKG + "ratfunc.py",
           "j = self.num.q_order()\n",
           "j = 0\n",
           "the q-split behind inverse, canonical and evaluate ignores the "
           "numerator's q-order"),
    Mutant("psi-inverse-qn", PKG + "ratfunc.py",
           "return QCoefficient(_ONE_POLY, n * n, (1,) * n)",
           "return QCoefficient(_ONE_POLY, n, (1,) * n)",
           "the 1/Psi series coefficient carries q^n in place of q^(n^2)"),
    Mutant("classical-draw-range", PKG + "cli.py",
           "math.log(1e3), B.n)]",
           "math.log(1e2), B.n)]",
           "verify classical draws log y0 on [log 1e-3, log 1e2], not up "
           "to log 1e3"),
    Mutant("seed-accepts-bool", PKG + "fixtures.py",
           "if not isinstance(v, int) or isinstance(v, bool):",
           "if not isinstance(v, int):",
           "seed documents accept true and false as integers"),
    Mutant("search-nu-rows", PKG + "search.py",
           "where = {c: j + 1 for j, c in enumerate(new[1])}",
           "where = {c: j + 1 for j, c in enumerate(zip(*new[1]))}",
           "search reads nu off the rows of the c-matrix, not its columns "
           "(the c-vectors), so it finds nu^-1"),
    Mutant("cli-quadrature-exit", PKG + "cli.py",
           "code = EXIT_NUMERICAL\n",
           "code = (EXIT_PARSE if type(exc).__name__ == 'QuadratureFailure'"
           "\n                else EXIT_NUMERICAL)\n",
           "a QuadratureFailure exits 4, not 3"),
]


def tier1(root: Path, timeout: float, first=None):
    """(status, seconds, last line of output) of tier-1 with -x in root:
    the test file `first` (relative to root), if given, then the rest."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (str(root / "src"),
                                 os.environ.get("PYTHONPATH")))))
    stages = [[]] if first is None else [[first], [f"--ignore={first}"]]
    stages = [args + [f"--ignore={GUARD}"] for args in stages]
    start, lasts = time.perf_counter(), []
    for args in stages:
        left = None if timeout is None else timeout - (time.perf_counter()
                                                       - start)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider", "--continue-on-collection-errors",
                 *args],
                cwd=root, env=env, capture_output=True, text=True,
                timeout=left)
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - start, ""
        lines = proc.stdout.strip().splitlines()
        lasts.append(lines[-1] if lines else proc.stderr.strip()[-200:])
        if proc.returncode != 0:
            return "killed", time.perf_counter() - start, lasts[-1]
    return "survived", time.perf_counter() - start, "; ".join(lasts)


def mutated(mutant, root: Path = ROOT) -> str:
    """The text of the mutant's file under root with the mutant applied;
    SystemExit unless its old text occurs exactly once and the result
    compiles."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.path}")
    text = text.replace(mutant.old, mutant.new)
    try:
        compile(text, str(path), "exec")
    except SyntaxError as exc:
        raise SystemExit(f"{mutant.name}: mutated {mutant.path} does "
                         f"not compile: {exc}")
    return text


def copy_with(mutant, workdir: Path) -> Path:
    root = workdir / "repo"
    shutil.copytree(ROOT, root, ignore=COPY_IGNORE)
    if mutant is not None:
        (root / mutant.path).write_text(mutated(mutant, root))
    return root


def module_tests(mutant):
    """The mutated module's own test file, relative to the root, or None."""
    if mutant is None:
        return None
    path = f"tests/test_{Path(mutant.path).stem}.py"
    return path if (ROOT / path).exists() else None


def run(mutant, timeout: float):
    with tempfile.TemporaryDirectory(prefix="mutcheck-") as tmp:
        return tier1(copy_with(mutant, Path(tmp)), timeout,
                     module_tests(mutant))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, help="also write the table here")
    args = p.parse_args(argv)

    status, clean_s, last = run(None, None)
    if status != "survived":
        raise SystemExit(f"clean run failed: {last}")
    timeout = FACTOR * clean_s
    print(f"clean run: {clean_s:.1f} s ({last}); timeout {timeout:.0f} s",
          file=sys.stderr)

    rows = ["| mutant | file | change | result | time (s) | detail |",
            "|---|---|---|---|---|---|"]
    for m in MUTANTS:
        status, secs, last = run(m, timeout)
        detail = last
        if status == "survived" and m.equivalent:
            status, detail = "equivalent", m.equivalent
        print(f"{m.name}: {status} in {secs:.1f} s", file=sys.stderr)
        rows.append(f"| {m.name} | {Path(m.path).name} | {m.what} | "
                    f"{status} | {secs:.0f} | {detail.replace('|', '/')} |")
    table = "\n".join(rows) + "\n"
    sys.stdout.write(table)
    if args.out:
        args.out.write_text(f"Clean tier-1 run: {clean_s:.0f} s; timeout "
                            f"{FACTOR} x clean = {timeout:.0f} s.\n\n"
                            + table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
