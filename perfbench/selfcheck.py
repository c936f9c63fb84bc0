"""Fast self-check of the harness on small inputs (about 30 s):

    python3 perfbench/selfcheck.py

Checks that every workload, untraced and traced, prints exactly the
metrics BENCHMARK.json names, each with its unit; that a planted digest
mismatch and a planted nonzero exit are counted as failed operations; and
that the harness exits nonzero without a result when the checkout holds
no program.  Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import run
from workloads import ROOT, WORKLOADS


def _quiet(*args) -> None:
    pass


def _measure(name: str, trace: bool = False, **kwargs) -> dict:
    # seconds=0: exactly one operation per mode
    return run.measure(name, 0, 0, trace, scale="small", log=_quiet, **kwargs)


def check_metrics(spec: dict) -> list[str]:
    problems = []
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (False, True):
            res = _measure(name, trace, reference={})
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                diff = set(got.items()) ^ set(want[trace].items())
                problems.append(f"{name} trace={trace}: metrics differ: {sorted(diff)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={trace}: {res['failed']} failed")
            if any(not isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                problems.append(f"{name} trace={trace}: a metric value is not a number")
    return problems


def check_planted_failures() -> list[str]:
    problems = []
    wrong = {"evaluate-dense": {"0": "0" * 64}}
    res = _measure("evaluate-dense", reference=wrong)
    if res["correct"] or res["failed"] != res["attempted"]:
        problems.append(f"planted digest mismatch not counted: {res}")
    missing = ["evaluate", "--predictions", "missing.jsonl", "--annotations", "missing.csv"]
    with redirect_stderr(io.StringIO()):  # the CLI's own error message
        res = _measure("evaluate-dense", reference={}, argv=missing)
    if res["correct"] or res["failed"] != res["attempted"]:
        problems.append(f"planted nonzero exit not counted: {res}")
    return problems


def check_bare_directory() -> list[str]:
    """A directory with only BENCHMARK.json and the benchmark's files."""
    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "tune-sa",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_metrics(spec) + check_planted_failures() + check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
