"""Record the reference output of every request any seed can produce.

    python3 perfbench/record.py

Run from the repository root at the commit whose outputs are the
reference.  Each request runs once with ``jobs=1``; ``--jobs 2``
requests are later checked against the same entry.  Writes
``perfbench/references.json``.
"""

from __future__ import annotations

import json
import shutil
import sys

import refcheck
import run
import workloads


def main() -> int:
    work = run.ROOT / workloads.WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    refs = {}
    try:
        for argv in workloads.all_reference_requests():
            ex = run.spawn(run.cli_command(argv), 600.0, work)
            if ex.code != 0:
                print(f"{' '.join(argv)}: exit {ex.code}\n{ex.stderr.decode(errors='replace')}", file=sys.stderr)
                return 1
            refs[workloads.reference_key(argv)] = refcheck.observed(ex.stdout, run.ROOT)
            print(f"{ex.wall_s:8.3f} s  {' '.join(argv)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
