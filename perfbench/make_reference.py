"""Record the reference answers that the strip and sweep checks compare to.

Run from the repository root on a commit whose answers are trusted:

    python3 perfbench/make_reference.py

It runs one pass of ``strip`` and ``sweep`` and writes the strip F values
and the sweep E_eps values to perfbench/reference.json.  The solves do not
depend on the seed, so one seed serves all.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run  # pins the thread pools before numpy loads

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main() -> int:
    work = run.OUT / "reference"
    ref = {"strip": {}, "sweep": {}}
    try:
        for name in ("strip", "sweep"):
            wl = workloads.CliWorkload(name, 1, work / name / "inputs").prepare()
            out = work / name / "out"
            for key, fn in wl.ops(out):
                fn()
            for key, pipeline, _ in wl.calls:
                report = json.loads((out / key / "report.json").read_text())
                if pipeline == "planelike":
                    ref["strip"][key] = report["rows"][0]["F_value"]
                elif pipeline == "gamma":
                    ref["sweep"][key] = [r["E_eps"] for r in report["records"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(json.dumps(ref, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
