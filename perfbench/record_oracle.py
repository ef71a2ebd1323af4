"""Record the noise-free oracle_ladders values that the benchmark checks against.

    python3 perfbench/record_oracle.py

Writes perfbench/oracle_expected.json from the package under src/.  Run it
only when a change is meant to move these values, and say by how much.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

run.import_package()
import workloads  # noqa: E402  (needs the package on the path)


def main():
    tally = workloads.Tally()
    clock = workloads.Clock(tally)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=run.ROOT) as tmp:
        expected = {}
        for sub in (s for s in workloads.CLI_SUBCOMMANDS if s != "simulate"):
            ok, files = workloads.run_subcommand(clock, f"cli.{sub}", Path(tmp) / sub, 1, 0)
            if not ok:
                sys.exit(f"{sub} failed: {tally.failures}")
            expected[sub] = workloads.parse_outputs(files)
        expected["averaging_curve"] = [list(row) for row in
                                       workloads.harness.averaging_curve(*workloads.averaging_curve_args())]
    workloads.EXPECTED_ORACLE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
