"""clusterdilog benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed S --seconds T

Run from any directory; the program is imported from ../src relative to
this file.  Workloads: tropical, universal, numeric, cli (see
workloads.py for why each exists).

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median wall time of fresh interpreters that import
               clusterdilog and clusterdilog.cli and build the seeded
               inputs;
  verdict_s    median wall time of one pass over the workload's task
               list, ending at checked verdicts (the first pass of an
               in-process workload is discarded as warm-up; a cli pass
               is a sequence of cold launches);
  peak_rss_mb  peak resident memory of the process running the
               workload (for cli: the largest child); the run record
               also gives peak_rss_growth_mb, the part of the peak
               above what import and input building held;
  pass_ratio   share of attempted tasks whose verdict, exit code or
               oracle comparison matched.
Times are seconds at reference speed (see speed.py); raw wall times are
kept in the run record.
--trace 1 runs the same tasks untraced, then traced (see spans.py), and
reports the per-layer metrics named in BENCHMARK.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it summarise each metric
with its sample count and quartiles, and give the run record.  Run
records and the spans of the last traced pass are also written under
.perfbench/ at the repository root.
"""

import os

# pin BLAS/OpenMP pools before numpy is imported here or in any child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import (REFERENCE_LAUNCH_S, SEGMENT_S, SpeedClock,  # noqa: E402
                   launch_sample)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_PROBES = 5
UNTRACED_SHARE = 1 / 3     # of a traced run's pass time spent untraced
CHILD_TIMEOUT = 120


def child_env():
    env = dict(os.environ)
    path = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Tally:
    """Attempted and failed task counts, with the names of failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.residual = {}      # layer -> largest residual seen

    def add(self, name, ok, residual=None, layer=None, note=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name if note is None else f"{name}: {note}")
        if layer and residual is not None:
            self.residual[layer] = max(self.residual.get(layer, 0.0), residual)


# ---------------------------------------------------------------------------
# passes


def pass_items(workload, tasks, cold=False, env=None, peak=None):
    """(name, layer, fn) per task; fn() -> (ok, residual, note) and never
    raises: a raising task is a failed task."""
    import workloads

    def in_process(task):
        def fn():
            try:
                ok, residual = task.run()
                return ok, residual, None
            except Exception as exc:
                return False, None, repr(exc)
        return fn

    def replay(call):
        def fn():
            try:
                code, out = workloads.run_in_process(call)
            except Exception as exc:
                return False, None, repr(exc)
            return workloads.judge(call, code, out), None, f"exit {code}"
        return fn

    def launch(call):
        def fn():
            code, out, rss_kb = workloads.launch_cold(call, env, str(WORKDIR))
            peak[0] = max(peak[0], rss_kb)
            return workloads.judge(call, code, out), None, f"exit {code}"
        return fn

    if workload != "cli":
        return [(t.name, t.layer, in_process(t)) for t in tasks]
    make = launch if cold else replay
    return [(c.name, None, make(c)) for c in tasks]


def run_pass(items, tally, clock, segment_s=SEGMENT_S):
    """One pass over the items; returns (wall s, reference-speed s).
    The clock samples the speed between stretches of at least
    `segment_s` of work (0: around every item)."""
    gc.collect()
    clock.restart()
    raw = scaled = segment = 0.0
    for i, (name, layer, fn) in enumerate(items):
        t0 = time.perf_counter()
        ok, residual, note = fn()
        segment += time.perf_counter() - t0
        if segment >= segment_s or i == len(items) - 1:
            raw += segment
            scaled += clock.scale(segment)
            segment = 0.0
        tally.add(name, ok, residual, layer, None if ok else note)
    return raw, scaled


def timed_passes(one_pass, seconds, after=None):
    """Run passes until the next one would end past `seconds` of pass
    time (at least one).  `after` is called after each pass; its time
    does not count against `seconds`."""
    times = []
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        times.append(one_pass())
        spent += time.perf_counter() - t0
        if after is not None:
            after()
        if spent + statistics.median(t[0] for t in times) > seconds:
            return times


# ---------------------------------------------------------------------------
# end-to-end run


def setup_probe(seed, env):
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(seed)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: a relabelled schedule is "
                           "not a period")


def end_to_end(workload, seed, seconds, tasks, tally, clock):
    """End-to-end samples.  The set-up probes run one after each pass,
    outside the pass budget, so that they sample the same stretch of
    machine time as the passes.  Work in fresh interpreters (probes,
    cli launches) is scaled by reference launches, in-process work by
    `clock`."""
    env = child_env()
    launches = SpeedClock(launch_sample, REFERENCE_LAUNCH_S)
    setup = []

    def probe():
        if len(setup) < SETUP_PROBES:
            launches.restart()
            t0 = time.perf_counter()
            setup_probe(seed, env)
            raw = time.perf_counter() - t0
            setup.append((raw, launches.scale(raw)))

    peak = [0]
    base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    items = pass_items(workload, tasks, cold=True, env=env, peak=peak)
    if workload == "cli":
        def one_pass():
            return run_pass(items, tally, launches, segment_s=0.0)
    else:
        def one_pass():
            return run_pass(items, tally, clock)
        one_pass()                                    # warm-up, discarded
    times = timed_passes(one_pass, seconds, after=probe)
    while len(setup) < SETUP_PROBES:
        probe()
    samples = {"setup_s": [s for _, s in setup],
               "verdict_s": [s for _, s in times],
               "pass_ratio": [(tally.attempted - tally.failed)
                              / tally.attempted],
               "setup_wall_s": [r for r, _ in setup],
               "verdict_wall_s": [r for r, _ in times]}
    if workload == "cli":
        samples["peak_rss_mb"] = [peak[0] / 1024]
    else:
        # imports dominate the peak; the growth over the peak held after
        # import and input building is where the passes' own memory shows
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        samples["peak_rss_mb"] = [peak_kb / 1024]
        samples["peak_rss_growth_mb"] = [(peak_kb - base_kb) / 1024]
    return samples


# ---------------------------------------------------------------------------
# traced run


def import_breakdown(env):
    """Self time of every module imported by `import clusterdilog,
    clusterdilog.cli` in a fresh interpreter, summed by top-level
    package (from -X importtime, in seconds)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import clusterdilog, clusterdilog.cli"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT, check=True)
    sums = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue                                  # the header line
        top = fields[2].strip().split(".")[0]
        key = top if top in ("scipy", "numpy", "clusterdilog") else "other"
        sums[key] = sums.get(key, 0.0) + int(fields[0]) * 1e-6
    return sums


def layer_metrics(agg, tally, speed):
    """Per-layer metric values of one traced pass; times are scaled to
    reference speed by the pass's factor `speed`."""
    calls, total, self_t = agg["calls"], agg["total"], agg["self"]
    lself, ltotal = agg["layer_self"], agg["layer_total"]
    pm = calls.get("ratfunc.poly_mul", 0)
    out = {
        "ratfunc.poly_mul.calls": pm,
        "ratfunc.qcoef_add.calls": calls.get("ratfunc.qcoef_add", 0),
        "ratfunc.qcoef_mul.calls": calls.get("ratfunc.qcoef_mul", 0),
        "ratfunc.poly_mul.operand_mbit": agg["operand_bits"] / 1e6,
        "ratfunc.poly_mul.lift_share": agg["lifted_poly_mul"] / pm if pm else 0.0,
        "ratfunc.num_bits_max": agg["num_bits_max"],
        "torus.multiply.calls": calls.get("torus.multiply", 0),
        "torus.multiply.self_s": self_t.get("torus.multiply", 0.0),
        "torus.multiply.terms_out": agg["terms_out"],
        "torus.multiply.pair_yield": (agg["pairs_kept"] / agg["pairs_attempted"]
                                      if agg["pairs_attempted"] else 0.0),
        "torus.invert.calls": calls.get("torus.invert", 0),
        "torus.invert.total_s": total.get("torus.invert", 0.0),
        "torus.psi_series.calls": calls.get("torus.psi_series", 0),
        "torus.psi_series.total_s": total.get("torus.psi_series", 0.0),
        "torus.add.self_s": self_t.get("torus.add", 0.0),
        "qident.quantum_mutate.calls": calls.get("qident.quantum_mutate", 0),
        "qident.quantum_mutate.total_s": total.get("qident.quantum_mutate", 0.0),
        "dilog.classical.calls": calls.get("dilog.classical", 0),
        "dilog.classical.total_s": total.get("dilog.classical", 0.0),
        "phib.calls": calls.get("phib", 0),
        "phib.total_s": ltotal.get("phib", 0.0),
        "saddle.total_s": ltotal.get("saddle", 0.0),
        "search.total_s": ltotal.get("search", 0.0),
        "trace.spans": agg["spans"],
    }
    for fn in ("verify_tropical", "verify_universal", "verify_shuffle",
               "verify_dual"):
        out[f"qident.{fn}.total_s"] = total.get(f"qident.{fn}", 0.0)
    for layer in ("ratfunc", "torus", "qident", "exchange", "dilog", "phib",
                  "saddle", "cli"):
        out[f"{layer}.self_s"] = lself.get(layer, 0.0)
    out = {k: v * speed if k.endswith("_s") else v for k, v in out.items()}
    for layer in ("dilog", "phib", "saddle"):
        out[f"{layer}.max_residual"] = tally.residual.get(layer, 0.0)
    return out


def traced(workload, seed, seconds, tasks, tally, clock):
    """Untraced passes, then traced passes of the same items (the cli
    workload replayed in-process through cli.main)."""
    from spans import Tracer
    imports = import_breakdown(child_env())
    items = pass_items(workload, tasks)
    run_pass(items, tally, clock)                     # warm-up, discarded
    plain = timed_passes(lambda: run_pass(items, tally, clock),
                         seconds * UNTRACED_SHARE)
    tracer = Tracer()
    tracer.install()
    aggs = []

    def traced_pass():
        tracer.clear()
        return run_pass(items, tally, clock)

    times = timed_passes(traced_pass, seconds * (1 - UNTRACED_SHARE),
                         after=lambda: aggs.append(tracer.finish_pass()))
    tracer.write_spans(WORKDIR / f"spans-{workload}-seed{seed}.json.gz")
    per_pass = [layer_metrics(a, tally, scaled / raw)
                for a, (raw, scaled) in zip(aggs, times)]
    samples = {name: [p[name] for p in per_pass] for name in per_pass[0]}
    for key in ("scipy", "numpy", "clusterdilog", "other"):
        samples[f"setup.import.{key}_s"] = [imports.get(key, 0.0)]
    samples["trace.overhead"] = [statistics.median(s for _, s in times)
                                 / statistics.median(s for _, s in plain) - 1.0]
    samples["trace.untraced_pass_s"] = [s for _, s in plain]
    samples["trace.traced_pass_s"] = [s for _, s in times]
    return samples


# ---------------------------------------------------------------------------
# reporting


def git_sha():
    """HEAD of the checkout; None where git or a repository is missing."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def summary_lines(workload, samples, units):
    lines = []
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        unit = units.get(name, "")
        lines.append(f"{workload:9s} {name:34s} median {med:.6g} {unit} "
                     f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    return lines


def run_one(args, spec):
    sys.path.insert(0, str(SRC))
    import clusterdilog
    if Path(clusterdilog.__file__).resolve().parent != SRC / "clusterdilog":
        raise RuntimeError(f"imported clusterdilog from {clusterdilog.__file__},"
                           f" not from {SRC}")
    import workloads
    from inputs import check_schedules
    WORKDIR.mkdir(exist_ok=True)
    inp, tasks = workloads.build(args.workload, args.seed, str(WORKDIR))
    bad = check_schedules(inp)
    tally = Tally()
    clock = SpeedClock()
    if args.trace:
        samples = traced(args.workload, args.seed, args.seconds, tasks, tally,
                         clock)
        wanted = spec["per_layer"]
    else:
        samples = end_to_end(args.workload, args.seed, args.seconds, tasks,
                             tally, clock)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = [n for n in units if n not in samples]
    if missing:
        raise RuntimeError(f"no measurement for {missing}")
    record = run_record(args)
    record["samples"] = samples
    record["failures"] = tally.failures
    record["relabelled_not_periods"] = bad
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORKDIR / name).write_text(json.dumps(record, indent=1))
    for line in summary_lines(args.workload, samples, units):
        print(line)
    for failure in tally.failures:
        print(f"FAILED {args.workload}: {failure}")
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("samples", "failures")}))
    metrics = {n: {"value": statistics.median(samples[n]), "unit": u}
               for n, u in units.items()}
    return {"correct": tally.failed == 0 and not bad,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def run_all(args):
    """Every workload in its own process; prints each summary, then one
    JSON object keyed by workload."""
    results = {}
    for workload in ("tropical", "universal", "numeric", "cli"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("tropical", "universal", "numeric", "cli", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "clusterdilog" / "__init__.py").is_file():
        print(f"error: no clusterdilog sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_one(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
