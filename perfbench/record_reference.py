"""Record reference digests for the given seeds (default 0):

    python3 perfbench/record_reference.py 0 1 2

Runs every workload once per seed and merges the result digests into
reference.json, which the harness checks each operation against.  Only
run this at a commit whose behaviour is the intended reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, import_program


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [0]
    cli = import_program()
    reference = run.load_reference()
    run.WORK_ROOT.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        for seed in seeds:
            work = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.WORK_ROOT))
            try:
                wl.setup(seed, work, "full")
                op = run.run_op(cli, wl, seed, work, "full", expected=None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if op.failed:
                print(f"{name} seed {seed}: {'; '.join(op.problems)}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = op.digest
            print(f"{name} seed {seed}: {op.digest} ({op.elapsed:.1f} s)", flush=True)
    run.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
