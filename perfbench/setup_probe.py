"""Set-up probe: the work every cold start pays before its first verdict.

run.py launches this in a fresh interpreter and times it from launch to
exit: import clusterdilog and clusterdilog.cli, then build the seeded
inputs (which also runs the period checks of the relabelled seeds).

    python perfbench/setup_probe.py <seed>
"""

import sys

import clusterdilog  # noqa: F401
import clusterdilog.cli  # noqa: F401

from inputs import check_schedules, make_inputs

if __name__ == "__main__":
    bad = check_schedules(make_inputs(int(sys.argv[1])))
    sys.exit(1 if bad else 0)
