"""Self-check of the traced run: counts repeat exactly, bypasses hold.

    python3 perfbench/selfcheck.py

Runs the traced run twice per workload at seed SEED and requires every
count metric (calls, operand_mbit, pair_yield, terms_out, num_bits_max,
spans) to read the same in every traced pass of both runs.  It also
asserts the bypass predictions of this benchmark: quantum_mutate never
runs on tropical, and numeric does no exact coefficient arithmetic.
Exit code 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKDIR = HERE.parent / ".perfbench"
WORKLOADS = ("tropical", "universal", "numeric", "cli")
SEED = 7
SECONDS = 6

COUNT_SUFFIXES = (".calls", ".operand_mbit", ".pair_yield", ".terms_out",
                  ".num_bits_max", ".spans")

# metric that must read exactly 0 on a workload (mechanism bypassed)
BYPASS = {
    "tropical": ("qident.quantum_mutate.calls",),
    "numeric": ("ratfunc.poly_mul.calls", "ratfunc.qcoef_add.calls",
                "torus.multiply.calls"),
}


def traced_samples(workload):
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        check=True, stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    path = WORKDIR / f"record-{workload}-seed{SEED}-trace1.json"
    return json.loads(path.read_text())["samples"]


def main():
    problems = []
    for w in WORKLOADS:
        first = traced_samples(w)
        second = traced_samples(w)
        counts = [n for n in first if n.endswith(COUNT_SUFFIXES)]
        for name in counts:
            seen = set(first[name]) | set(second[name])
            if len(seen) != 1:
                problems.append(f"{w}: {name} varies: {sorted(seen)}")
        for name in BYPASS.get(w, ()):
            if set(first[name]) != {0}:
                problems.append(f"{w}: {name} = {first[name]}, predicted 0")
        print(f"{w}: {len(counts)} counts compared over "
              f"{len(first[counts[0]])}+{len(second[counts[0]])} traced passes")
    for line in problems:
        print("FAIL", line)
    print("selfcheck", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
