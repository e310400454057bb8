import cmath
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clusterdilog
from clusterdilog.cli import main
from clusterdilog.exchange import ExchangeMatrix
from clusterdilog.fixtures import builtin_seed, seed_from_dict, seed_to_dict
from clusterdilog.search import search_periods
from test_phib import log_phib_mpmath


def cli_env():
    """The environment for running the CLI of this checkout as `python -m`."""
    src = os.path.dirname(os.path.dirname(clusterdilog.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestMutate:
    def test_a2_unit_point_matches_trajectory(self, capsys):
        code, rep = run_json(capsys, "mutate", "--builtin", "A2", "--y", "1,1")
        assert code == 0
        actives = [r["active_y"] for r in rep["rows"][:-1]]
        assert actives == [1.0, 2.0, 3.0, 2.0, 1.0]
        assert rep["rows"][-1]["y"] == [1.0, 1.0]

    def test_a1(self, capsys):
        code, rep = run_json(capsys, "mutate", "--builtin", "A1", "--y", "5")
        assert code == 0
        assert [r["y"][0] for r in rep["rows"]] == [5.0, 0.2, 5.0]

    def test_empty_sequence_echo(self, capsys, tmp_path):
        doc = {"n": 2, "B": [[0, -1], [1, 0]], "sequence": [], "nu": [1, 2]}
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "mutate", "--seed-file", str(path),
                             "--y", "2,3")
        assert code == 0
        assert rep["rows"] == [{"t": 1, "y": [2.0, 3.0]}]

    @pytest.mark.parametrize("argv", [
        ["mutate", "--builtin", "A2", "--y", "1,2"],
        ["mutate", "--builtin", "A1"],
        ["verify", "saddle-lambda", "--builtin", "A2"],
        ["verify", "classical", "--builtin", "A2", "--trials", "3"],
        ["search", "--builtin", "A2", "--depth", "5"],
        ["phib", "--check", "recurrence"],
        ["phib", "--check", "value", "--z", "0.3"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_csv_rows_parse_to_the_header_width(self, capsys, argv):
        import csv
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(r) == len(header) for r in rows)

    def test_csv_quotes_the_y_list(self, capsys):
        code, out = run(capsys, "mutate", "--builtin", "A2", "--y", "1,2",
                        "--format", "csv")
        lines = out.splitlines()
        assert lines[:2] == ["t,y,k,active_y", '1,"[1.0, 2.0]",1,1.0']
        assert lines[-1] == '6,"[2.0, 1.0]",,'

    def test_markdown_format(self, capsys):
        code, out = run(capsys, "mutate", "--builtin", "A1", "--format", "md")
        assert code == 0 and "**command**: mutate" in out

    def test_overflowing_y_prints_only_the_error(self):
        """y = 1e300 is valid input that overflows to inf and then 0 along
        the period: a numerical failure (exit 3) with its one JSON error
        naming t and the index, and no numpy warnings."""
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "clusterdilog.cli",
             "mutate", "--builtin", "A2", "--y", "1e300,1e300"],
            capture_output=True, text=True, timeout=60, env=cli_env())
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert json.loads(proc.stdout) == {
            "error": "OutOfRange", "detail": "t = 3, index 2: y = 0.0 is not "
            "strictly positive (a float under- or overflow)"}


class TestVerify:
    def test_classical_pass(self, capsys):
        code, rep = run_json(capsys, "verify", "classical", "--builtin", "A2",
                             "--trials", "25")
        assert code == 0
        assert rep["verdict"] == "PASS"
        assert rep["results"][0]["n_minus"] == 3

    def test_quantum_tropical_exact(self, capsys):
        code, rep = run_json(capsys, "verify", "quantum-tropical",
                             "--builtin", "A2", "-N", "8")
        assert code == 0
        assert rep["results"][0]["residual_terms"] == []

    def test_multiple_modes_aggregate(self, capsys):
        code, rep = run_json(capsys, "verify", "shuffle", "dual",
                             "--builtin", "A2", "-N", "5")
        assert code == 0
        assert len(rep["results"]) == 2

    @pytest.mark.parametrize("modes", [("quantum-tropical", "dual"),
                                       ("dual", "quantum-tropical")])
    def test_dual_reuses_the_tropical_check(self, capsys, monkeypatch,
                                            modes):
        """The dual pair's dual-q residual is the tropical check's, so a
        launch running both builds the B-side half products once: two
        residuals and six multiplies on A2 at N = 6, in either order."""
        from clusterdilog import qident
        counts = {"residual": 0, "multiply": 0}

        def counted(name, f):
            def wrapper(*a):
                counts[name] += 1
                return f(*a)
            return wrapper

        monkeypatch.setattr(qident, "_tropical_residual",
                            counted("residual", qident._tropical_residual))
        monkeypatch.setattr(qident, "multiply",
                            counted("multiply", qident.multiply))
        code, rep = run_json(capsys, "verify", *modes, "--builtin", "A2",
                             "-N", "6")
        assert code == 0 and rep["verdict"] == "PASS"
        assert counts == {"residual": 2, "multiply": 6}
        dual = rep["results"][modes.index("dual")]
        assert dual["direct"]["identity"] == "dual-q"

    def test_saddle(self, capsys):
        code, rep = run_json(capsys, "verify", "saddle", "--builtin", "A2",
                             "--trials", "10")
        assert code == 0
        worst = rep["results"][0]["max_residuals"]
        assert worst["newton_step"] < 1e-12 and worst["cross_gap"] < 1e-12

    def test_saddle_lambda(self, capsys):
        code, rep = run_json(capsys, "verify", "saddle-lambda",
                             "--builtin", "A2")
        assert code == 0
        assert len(rep["results"][0]["points"]) == 3

    def test_fast_mode_is_labeled(self, capsys):
        code, rep = run_json(capsys, "verify", "quantum-tropical",
                             "--builtin", "A2", "-N", "6", "--q0", "3/8")
        assert code == 0
        assert "probabilistic" in rep["results"][0]["mode"]

    @pytest.mark.parametrize("q0, mode", [
        ([], "exact"),
        (["--q0", "3/8"], "rational-point q0=3/8 (probabilistic)")])
    @pytest.mark.parametrize("cut", [[], ["--cut", "2"]], ids=["all", "cut"])
    def test_shuffle_names_its_ring(self, capsys, q0, mode, cut):
        code, rep = run_json(capsys, "verify", "shuffle", "--builtin", "A2",
                             "-N", "5", *cut, *q0)
        assert code == 0
        assert rep["results"][0]["mode"] == mode

    def test_empty_sequence(self, capsys, tmp_path):
        """No steps: every check passes on the empty product, and shuffle
        has no cut to read, in either ring."""
        doc = {"n": 2, "B": [[0, -1], [1, 0]], "sequence": [], "nu": [1, 2]}
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        for q0 in ([], ["--q0", "3/8"]):
            code, rep = run_json(capsys, "verify", "quantum-tropical",
                                 "quantum-universal", "shuffle", "dual",
                                 "--seed-file", str(path), *q0)
            assert code == 0 and rep["verdict"] == "PASS"
            shuffle = rep["results"][2]
            assert shuffle["cuts"] == [] and shuffle["residual_terms"] == []
            assert shuffle["mode"] == rep["results"][1]["mode"]

    def test_not_a_period_exit_2(self, capsys, tmp_path):
        doc = {"n": 2, "B": [[0, -1], [1, 0]], "sequence": [1, 2, 1],
               "nu": [1, 2]}
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "classical", "--seed-file", str(path))
        assert code == 2
        assert "not a period" in out

    def test_parse_error_exit_4_unknown_builtin(self, capsys):
        assert main(["verify", "classical", "--builtin", "NOPE"]) == 4

    def test_parse_error_exit_4_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", "classical", "--seed-file", str(path)]) == 4

    def test_parse_error_exit_4_bad_args(self, capsys):
        assert main(["verify", "no-such-mode", "--builtin", "A2"]) == 4

    @pytest.mark.parametrize("extra", [
        ("classical", "--trials", "-1"),
        ("saddle", "--trials", "-1"),
        ("classical", "--trials", "0"),
        ("quantum-tropical", "-N", "-1"),
        ("quantum-tropical", "-N", "0"),
        ("quantum-tropical", "--q0", "1"),
        ("quantum-tropical", "--q0", "-1"),
        ("quantum-tropical", "--q0", "1/0"),
        ("shuffle", "--cut", "0"),
        ("search", "--depth", "0"),
        ("search", "--depth", "-1"),
        ("search", "--depth", "x"),
        ("quantum-tropical", "-N", "x"),
        ("classical", "--trials", "x"),
        ("shuffle", "--cut", "x"),
        ("quantum-universal", "--q0", "0"),
        ("shuffle", "--q0", "0"),
        ("quantum-tropical", "--q0", "0"),
        ("dual", "--q0", "0"),
        ("phib", "--grid", "x"),        # an option that no longer exists
        # a tolerance must be finite and positive, a lambda or y finite
        ("classical", "--tol", "inf"),
        ("classical", "--tol", "nan"),
        ("classical", "--tol", "0"),
        ("classical", "--tol", "-1"),
        ("saddle-lambda", "--lambda", "inf,0.05"),
        ("saddle-lambda", "--lambda", "1,nan"),
        ("mutate", "--y", "inf,1"),
        ("mutate", "--y", "1,nan"),
    ])
    def test_parse_error_exit_4_out_of_range(self, capsys, extra):
        mode, *opts = extra
        command = {"search": ["search", "--builtin", "A2"], "phib": ["phib"],
                   "mutate": ["mutate", "--builtin", "A2"]}.get(
            mode, ["verify", mode, "--builtin", "A2"])
        assert main([*command, *opts]) == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "_positive_int" not in err

    @pytest.mark.parametrize("mode, wide", [
        ("quantum-universal", 10**6), ("shuffle", 10**6),
        ("quantum-universal", -10**6), ("shuffle", -10**6),
    ], ids=["quantum-universal", "shuffle", "quantum-universal-negative",
            "shuffle-negative"])
    def test_wide_exponent_exit_4_at_once(self, tmp_path, mode, wide):
        """A quantum step builds |b_ki| torus factors: an exponent of
        +-10^6 is refused at once instead of running on.  With b_12 < 0
        the widest entry of row 1 is also its smallest."""
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({"n": 2, "B": [[0, wide], [-wide, 0]],
                                    "sequence": [1, 1], "nu": [1, 2]}))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "clusterdilog.cli", "verify", mode,
             "--seed-file", str(path), "-N", "2"],
            env=cli_env(), capture_output=True, text=True, timeout=2)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 4
        assert "exceeds 64" in proc.stderr

    def test_numerical_failure_exit_3(self, capsys):
        code, rep = run_json(capsys, "verify", "classical", "--builtin", "A2",
                             "--trials", "5", "--tol", "1e-30")
        assert code == 3
        assert rep["verdict"] == "FAIL"

    def test_rng_seed_reproducible(self, capsys):
        _, rep1 = run_json(capsys, "verify", "classical", "--builtin", "A2",
                           "--trials", "7", "--rng-seed", "99")
        _, rep2 = run_json(capsys, "verify", "classical", "--builtin", "A2",
                           "--trials", "7", "--rng-seed", "99")
        assert rep1["results"] == rep2["results"]
        assert rep1["rng_seed"] == 99


class TestSearch:
    def test_a2_depth5_finds_the_pentagon_period(self, capsys):
        code, rep = run_json(capsys, "search", "--builtin", "A2", "--depth", "5")
        assert code == 0
        assert {"sequence": [1, 2, 1, 2, 1], "nu": [2, 1]} in rep["periods"]

    def test_a1_depth2(self, capsys):
        code, rep = run_json(capsys, "search", "--builtin", "A1", "--depth", "2")
        assert {"sequence": [1, 1], "nu": [1]} in rep["periods"]

    def test_a2_no_length3_period(self, capsys):
        code, rep = run_json(capsys, "search", "--builtin", "A2", "--depth", "3")
        assert not any(len(p["sequence"]) == 3 for p in rep["periods"])

    def test_resource_guards(self):
        big = ExchangeMatrix(np.zeros((5, 5), dtype=int))
        with pytest.raises(ValueError):
            search_periods(big, 3)
        small, _ = builtin_seed("A2")
        with pytest.raises(ValueError):
            search_periods(small, 13)
        for depth in (0, -1):
            with pytest.raises(ValueError):
                search_periods(small, depth)

    def test_every_reported_period_checks_out(self, capsys):
        from clusterdilog.exchange import check_period
        B, _ = builtin_seed("A2-principal")
        for sched in search_periods(B, 6):
            assert check_period(B, sched).periodic

    def test_a3_period_with_a_three_cycle(self):
        """Linear A3 has a period of length 8 whose nu is a 3-cycle, so nu
        must be read off the c-vectors (the columns): their transpose
        gives nu^-1, which is not a period."""
        from clusterdilog.exchange import MutationSchedule, check_period
        B = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        seq = (1, 2, 1, 2, 3, 1, 3, 1)
        found = {(s.sequence, s.nu) for s in search_periods(B, 8)}
        assert (seq, (2, 3, 1)) in found
        assert not check_period(B, MutationSchedule(seq, (3, 1, 2))).periodic


class TestClosedStdout:
    def test_no_traceback_when_reader_is_gone(self):
        """Writing the report into a pipe whose reader has already closed
        (as in `clusterdilog search ... | head -c 1`) ends without a
        traceback and with a documented exit code."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "clusterdilog.cli", "search",
                 "--builtin", "A2", "--depth", "6"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=60, env=cli_env())
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode in (0, 2, 3, 4)


NON_PERIOD = {"n": 3, "B": [[0, -1, 0], [1, 0, -1], [0, 1, 0]],
              "sequence": [1, 2, 3, 1], "nu": [1, 2, 3]}


EXACT = {"ratfunc", "torus", "qident"}
NUMERIC = {"dilog", "phib", "saddle"}
# argv, exit code, whether numpy loads, whether fractions loads,
# clusterdilog modules that must not
COLD_LAUNCHES = [
    (["mutate", "--builtin", "A2"], 0, False, False, EXACT | NUMERIC),
    (["search", "--builtin", "A2", "--depth", "5"], 0, False, False,
     EXACT | NUMERIC),
    (["verify", "quantum-tropical", "dual", "--builtin", "A2", "-N", "4"],
     0, False, True, NUMERIC | {"search"}),
    (["verify", "quantum-universal", "shuffle", "--builtin",
      "A2-principal", "-N", "3"], 0, False, True, NUMERIC | {"search"}),
    (["verify", "quantum-universal", "--builtin", "A2", "-N", "12",
      "--q0", "3/8"], 0, False, True, NUMERIC | {"search"}),
    (["verify", "classical", "--seed-file", "NON_PERIOD"], 2, False, False,
     EXACT | NUMERIC),
    (["mutate", "--builtin", "A7"], 4, False, False, EXACT | NUMERIC),
    (["phib", "--check", "value"], 0, False, False, EXACT | {"saddle"}),
    (["phib", "--check", "unitarity"], 0, False, False, EXACT | {"saddle"}),
    (["phib", "--check", "recurrence", "--b", "1.3"], 0, False, False,
     EXACT | {"saddle"}),
    (["phib", "--check", "phipsi", "--b", "0.8,0.3"], 0, False, False,
     EXACT | {"saddle"}),
    (["verify", "classical", "--builtin", "A2"], 0, False, False,
     EXACT | {"phib", "saddle"}),
    (["verify", "saddle", "--builtin", "A2"], 0, False, False,
     EXACT | {"phib"}),
    (["verify", "saddle-lambda", "--builtin", "A2"], 0, False, False,
     EXACT | {"phib"}),
]


class TestColdStart:
    """No launch imports numpy: not the exact and combinatorial commands,
    the classical and stationary-point checks or the early exits, and not
    the Phi_b checks, whose quadrature runs on cmath and math.  No launch
    loads `dataclasses`,
    and only the exact commands load `fractions` (and with it `decimal`).
    Each command loads only the modules it runs."""

    @pytest.mark.parametrize(
        "argv, code, numpy, fractions, unloaded", COLD_LAUNCHES,
        ids=[f"{' '.join(a)}-{c}-{n}" for a, c, n, *_ in COLD_LAUNCHES])
    def test_numpy_is_imported_only_when_needed(self, tmp_path, argv, code,
                                                numpy, fractions, unloaded):
        seed = tmp_path / "non-period.json"
        seed.write_text(json.dumps(NON_PERIOD))
        argv = [str(seed) if a == "NON_PERIOD" else a for a in argv]
        script = ("import sys\n"
                  "from clusterdilog.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "mods = [m[13:] for m in sys.modules\n"
                  "        if m.startswith('clusterdilog.')]\n"
                  "print(code, 'numpy' in sys.modules,\n"
                  "      'fractions' in sys.modules,\n"
                  "      'dataclasses' in sys.modules, *mods, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True, timeout=60,
                              env=cli_env())
        got_code, got_numpy, got_fractions, got_dataclasses, *loaded = (
            proc.stderr.splitlines()[-1].split())
        assert (got_code, got_numpy) == (str(code), str(numpy))
        assert got_fractions == str(fractions)
        assert got_dataclasses == "False"
        assert unloaded.isdisjoint(loaded), sorted(loaded)


WIDE = {"n": 2, "B": [[0, 10**20], [-10**20, 0]], "sequence": [1, 1],
        "nu": [1, 2]}


class TestWideExchangeEntries:
    """Exchange entries of 10**20 under- and overflow the floats along the
    period.  That is a numerical failure (exit 3) naming t and the index;
    a bad initial y is still an input error (exit 4)."""

    @pytest.mark.parametrize("argv, detail", [
        (["mutate", "--y", "1,1"], "t = 2, index 2: y = 0.0 is not strictly "
                                   "positive (a float under- or overflow)"),
        (["verify", "classical"], "t = 2, index 2: y = "),
        (["verify", "saddle"], "t = 1, index "),
    ], ids=["mutate", "verify classical", "verify saddle"])
    def test_float_range_exit_3(self, capsys, tmp_path, argv, detail):
        seed = tmp_path / "wide.json"
        seed.write_text(json.dumps(WIDE))
        code, rep = run_json(capsys, *argv, "--seed-file", str(seed))
        assert code == 3
        assert rep["error"] == "OutOfRange"
        assert rep["detail"].startswith(detail)

    def test_bad_initial_y_exit_4(self, tmp_path):
        seed = tmp_path / "wide.json"
        seed.write_text(json.dumps(WIDE))
        assert quiet_main(["mutate", "--seed-file", str(seed),
                           "--y", "0,1"]) == 4


class TestNegativeLookingValues:
    """No option of the CLI looks like a negative number, so a word that
    starts with '-<digit>' or '-.' is read as a value."""

    @pytest.mark.parametrize("opt, value, argv", [
        ("--q0", "-2/5", ["verify", "quantum-tropical", "--builtin", "A2",
                          "-N", "5"]),
        ("--b", "-0.8,0.3", ["phib"]),
        ("--z", "-1,0.2", ["phib"]),
        ("--z", "-.5", ["phib", "--check", "duality"]),
    ])
    def test_negative_looking_value(self, capsys, opt, value, argv):
        """The value prints what its --opt=value form prints."""
        code, out = run(capsys, *argv, opt, value)
        assert (code, out) == run(capsys, *argv, f"{opt}={value}")
        assert code == 0

    def test_option_like_value_exit_4(self, capsys):
        assert main(["phib", "--z", "-x"]) == 4
        assert "expected one argument" in capsys.readouterr().err


class TestPhibCommand:
    def test_value_modulus_one(self, capsys):
        code, rep = run_json(capsys, "phib", "--b", "1.0", "--z", "0.3")
        assert code == 0
        assert abs(rep["modulus"] - 1.0) < 1e-8

    def test_recurrence_grid(self, capsys):
        code, rep = run_json(capsys, "phib", "--check", "recurrence",
                             "--b", "1.3")
        assert code == 0
        assert all(r["residual"] < 1e-7 for r in rep["rows"])

    def test_duality(self, capsys):
        code, rep = run_json(capsys, "phib", "--check", "duality", "--b", "1.3",
                             "--z", "0.2")
        assert code == 0 and rep["residual_inverse_b"] < 1e-7

    @pytest.mark.parametrize("b,z", [("1.0", "300"), ("1.0", "1000"),
                                     ("0.7", "1000")])
    def test_large_real_z_is_unimodular(self, capsys, b, z):
        code, rep = run_json(capsys, "phib", "--b", b, "--z", z)
        assert code == 0
        assert abs(rep["modulus"] - 1.0) < 1e-12

    # at Im z = +-1e308 the recurrence factor's phase is infinite, where
    # cmath.exp raises ValueError, not OverflowError
    @pytest.mark.parametrize("z", ["inf", "1e20", "1,1e308", "1,-1e308"])
    def test_unresolvable_z_exit_3(self, capsys, z):
        assert main(["phib", "--z", z]) == 3
        assert main(["phib", "--check", "duality", "--z", z]) == 3

    def test_overflowing_reduction_is_a_quadrature_failure(self, capsys):
        code, rep = run_json(capsys, "phib", "--b", "1", "--z", "1e300,1e300")
        assert code == 3 and rep["error"] == "QuadratureFailure"
        assert "z=(1e+300+1e+300j)" in rep["detail"]

    @pytest.mark.parametrize("check", ["value", "unitarity"])
    def test_tiny_b_prints_a_unimodular_value(self, check):
        """At b = 0.001 sinh(x / b) would overflow on the tails, which
        never form it: the run passes with no numpy warnings on stderr."""
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "clusterdilog.cli",
             "phib", "--b", "0.001", "--check", check],
            capture_output=True, text=True, timeout=60, env=cli_env())
        assert proc.returncode == 0
        assert proc.stderr == ""
        rep = json.loads(proc.stdout)
        if check == "value":
            val = complex(rep["value"]["re"], rep["value"]["im"])
            assert abs(abs(val) - 1.0) < 1e-12
            assert abs(val - cmath.exp(log_phib_mpmath(0.0, 0.001))) < 1e-12
        else:
            assert all(row["residual"] < 1e-12 for row in rep["rows"])

    def test_tiny_b_off_zero(self):
        """`phib --b 0.001` away from z = 0, where the tails do not vanish:
        a finite unimodular value, exit 0 and an empty stderr."""
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "clusterdilog.cli",
             "phib", "--b", "0.001", "--z", "0.3"],
            capture_output=True, text=True, timeout=60, env=cli_env())
        assert (proc.returncode, proc.stderr) == (0, "")
        rep = json.loads(proc.stdout)
        val = complex(rep["value"]["re"], rep["value"]["im"])
        assert cmath.isfinite(val) and abs(abs(val) - 1.0) < 1e-12
        assert abs(val - cmath.exp(log_phib_mpmath(0.3, 0.001))) < 1e-9

    @pytest.mark.parametrize("z", ["0,400", "0,100"])
    def test_beyond_double_range_prints_one_error_line(self, z):
        """At b = 2000, |Phi_b| overflows a float at Im z = 400 and at
        Im z = 100: the run exits 3 with the one JSON error line on stdout,
        and no numpy warning reaches stderr."""
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "clusterdilog.cli",
             "phib", "--b", "2000", "--z", z],
            capture_output=True, text=True, timeout=60, env=cli_env())
        assert proc.returncode == 3
        assert proc.stderr == ""
        line, = proc.stdout.splitlines()
        assert json.loads(line)["error"] == "QuadratureFailure"

    @pytest.mark.parametrize("z", ["710", "1000", "1e300", "-1000"])
    def test_asymptotics_beyond_exp_overflow(self, capsys, z):
        assert main(["phib", "--check", "asymptotics", "--z", z]) in (0, 3)

    @pytest.mark.parametrize("args", [("--b", "inf"), ("--b", "nan"),
                                      ("--check", "asymptotics", "--z", "nan"),
                                      ("--check", "psi-asymptotics", "--z", "nan"),
                                      ("--check", "psi-asymptotics", "--z", "inf")])
    def test_non_finite_input_exit_4(self, capsys, args):
        assert main(["phib", *args]) == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("z", ["0.1", "-0.3", "0"])
    def test_phipsi_near_real_b_forms_the_ratio_in_logarithms(self, capsys, z):
        """At Im b = 1e-5 each product overflows a float; their ratio
        does not."""
        code, rep = run_json(capsys, "phib", "--check", "phipsi",
                             "--b", "1,0.00001", "--z", z)
        assert code == 0 and rep["verdict"] == "PASS"

    def test_phipsi_refuses_a_product_too_long_at_once(self):
        """At Im b = 1e-7 the product needs over 10^7 factors: counted
        before the loop, not found out after it."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "clusterdilog.cli", "phib", "--check",
             "phipsi", "--b", "1,0.0000001", "--z", "0.1"],
            capture_output=True, text=True, timeout=60, env=cli_env())
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["error"] == "ArithmeticError"
        assert time.perf_counter() - start < 2.0

    def test_asymptotics_csv(self, capsys):
        code, out = run(capsys, "phib", "--check", "asymptotics", "--z", "0.0",
                        "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "b,defect"


class TestBuiltinFixtures:
    def test_a2_fixture_byte_stable(self):
        from clusterdilog.exchange import sign_sequence

        B, sched = builtin_seed("A2")
        assert B.entries.tolist() == [[0, -1], [1, 0]]
        assert sched.sequence == (1, 2, 1, 2, 1)
        assert sched.nu == (2, 1)
        ss = sign_sequence(B, sched)
        assert ss.signs == (1, 1, -1, -1, -1)
        assert ss.cvectors == ((1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1))

    def test_a1_fixture(self):
        B, sched = builtin_seed("A1")
        assert B.entries.tolist() == [[0]]
        assert sched.sequence == (1, 1) and sched.nu == (1,)

    def test_a2_principal_fixture(self):
        B, sched = builtin_seed("A2-principal")
        assert B.n == 4
        assert sched.sequence == (1, 2, 1, 2, 1)
        assert sched.nu == (2, 1, 3, 4)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_seed("E8")


class TestSeedRoundtrip:
    def test_dict_roundtrip(self):
        B, sched = builtin_seed("A2-principal")
        B2, sched2 = seed_from_dict(seed_to_dict(B, sched))
        assert B2 == B and sched2 == sched

    def test_malformed_document(self):
        with pytest.raises(ValueError):
            seed_from_dict({"n": 2, "B": [[0, -1], [1, 0]]})
        with pytest.raises(ValueError):
            seed_from_dict({"n": 3, "B": [[0, -1], [1, 0]], "sequence": []})

    def test_fractional_entry_exit_4(self, capsys, tmp_path):
        """B = [[0, 1.5], [-1.5, 0]] is refused, not truncated to 1."""
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({"n": 2, "B": [[0, 1.5], [-1.5, 0]],
                                    "sequence": [1, 2, 1, 2, 1], "nu": [2, 1]}))
        assert main(["verify", "classical", "--seed-file", str(path)]) == 4
        assert "1.5 is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"n": True, "B": [[0]], "sequence": []},
                                     {"n": 1, "B": [[0]], "sequence": [1.0]},
                                     {"n": 1, "B": [[0]], "sequence": "1"},
                                     {"n": 1, "B": [[0]], "sequence": [],
                                      "nu": [True]}])
    def test_non_integer_fields(self, doc):
        with pytest.raises(ValueError, match="is not an integer"):
            seed_from_dict(doc)

    def test_wide_entry_is_kept_exactly(self, capsys, tmp_path):
        big = 10**20
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({"n": 2, "B": [[0, big], [-big, 0]],
                                    "sequence": [1]}))
        code, rep = run_json(capsys, "search", "--seed-file", str(path),
                             "--depth", "2")
        assert code == 0
        assert rep["B"] == [[0, big], [-big, 0]]


# Numbers as the command line receives them: finite, huge, tiny, negative,
# nan and inf floats, plus text that is not a number.
REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 5e-324, -1e-300, 709.8, 1e3, -1e3, -0.0]),
).map(repr)
NOT_NUMBERS = st.sampled_from(["", "x", "1e", "--", "0x1p3", "1,,2", " ", "j"])
COMPLEX_ARGS = st.one_of(REALS, st.tuples(REALS, REALS).map(",".join),
                         NOT_NUMBERS)
PHIB_CHECKS = ("value", "unitarity", "recurrence", "duality", "phipsi",
               "asymptotics", "psi-asymptotics")


@st.composite
def seed_docs(draw):
    """A seed document: skew-symmetric B of rank <= 4 with entries in
    -3..3 and now and then +-10^6, a word of length <= 10, and nu."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3), st.sampled_from([10**6, -10**6]))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = draw(entry)
            b[j][i] = -b[i][j]
    word = draw(st.lists(st.integers(1, n), max_size=10))
    nu = draw(st.permutations(range(1, n + 1)))
    return {"n": n, "B": b, "sequence": word, "nu": nu}


def write_seed(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("seed") / "seed.json"
    path.write_text(json.dumps(doc))
    return str(path)


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            np.errstate(all="ignore"):
        return main(argv)


class TestNumericArgumentFuzz:
    """Every drawn argument ends in a documented exit code, and no
    exception escapes main."""

    @settings(max_examples=80, deadline=None)
    @given(check=st.sampled_from(PHIB_CHECKS), b=COMPLEX_ARGS, z=COMPLEX_ARGS)
    def test_phib(self, check, b, z):
        assert quiet_main(["phib", "--check", check, f"--b={b}",
                           f"--z={z}"]) in (0, 2, 3, 4)

    @settings(max_examples=60, deadline=None)
    @given(builtin=st.sampled_from(["A1", "A2", "A2-principal"]),
           y=st.one_of(st.lists(REALS, min_size=1, max_size=4).map(",".join),
                       NOT_NUMBERS))
    def test_mutate(self, builtin, y):
        assert quiet_main(["mutate", "--builtin", builtin,
                           f"--y={y}"]) in (0, 2, 3, 4)

    @settings(max_examples=40, deadline=None)
    @given(doc=seed_docs(), depth=st.integers(1, 6))
    def test_search_seed_file(self, tmp_path_factory, doc, depth):
        path = write_seed(tmp_path_factory, doc)
        assert quiet_main(["search", "--seed-file", path,
                           "--depth", str(depth)]) in (0, 2, 3, 4)

    @settings(max_examples=40, deadline=None)
    @given(doc=seed_docs(),
           y=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4))
    def test_mutate_and_classical_seed_file(self, tmp_path_factory, doc, y):
        path = write_seed(tmp_path_factory, doc)
        y = ",".join(map(repr, y))
        assert quiet_main(["mutate", "--seed-file", path,
                           f"--y={y}"]) in (0, 2, 3, 4)
        assert quiet_main(["verify", "classical", "--seed-file", path,
                           "--trials", "3"]) in (0, 2, 3, 4)
        assert quiet_main(["verify", "saddle", "--seed-file", path,
                           "--trials", "2"]) in (0, 2, 3, 4)
        assert quiet_main(["verify", "saddle-lambda", "--seed-file",
                           path]) in (0, 2, 3, 4)

    @settings(max_examples=30, deadline=None)
    @given(doc=seed_docs())
    def test_quantum_verify_seed_file(self, tmp_path_factory, doc):
        path = write_seed(tmp_path_factory, doc)
        assert quiet_main(["verify", "quantum-tropical", "quantum-universal",
                           "shuffle", "dual", "--seed-file", path,
                           "-N", "2"]) in (0, 2, 3, 4)
        # the shuffle formula needs no period, so it also runs on the
        # words that the period check above turns away
        assert quiet_main(["verify", "shuffle", "--seed-file", path,
                           "-N", "2"]) in (0, 2, 3, 4)
