"""Benchmark harness for densecotrain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One workload per process, one operation at a time, BLAS pinned to one
thread.  Set-up (package import plus input generation) runs several
times in fresh interpreters and reports the median.  The timed operations
are ``densecotrain.cli.main`` calls; each one's result is checked and its
digest compared with ``reference.json`` (for recorded seeds) and with the
run's first operation.  ``--trace 0`` prints the end-to-end metrics, with
times in reference seconds: wall time scaled by the machine's pace,
sampled during the timed work (``pace.py``).  ``--trace 1`` runs one
untraced and one traced operation and prints the per-layer metrics from
the spans, in raw wall time, plus the tracing overhead.  The last stdout
line is the JSON result; earlier lines are for people.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere, here or in a child: no BLAS threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ["DENSECOTRAIN_LOG"] = "warning"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from pace import Pace, to_reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, ProgramMissing, digest, import_program  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = WORK_ROOT / "traces"
# set-up is repeated at least SETUP_REPS times and, while it is cheap,
# until SETUP_SECONDS have been spent on it (at most SETUP_MAX_REPS times)
SETUP_REPS, SETUP_MAX_REPS, SETUP_SECONDS = 3, 15, 4.0
SETUP_CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "import pace, workloads; "
    "print(json.dumps(pace.paced(workloads.setup_child, *sys.argv[2:])))"
)
LAYERS = ("geom", "metrics", "detectors", "ensemble", "cotrain", "tuner",
          "data", "cli", "report")

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "eval_s": "s",
    "peak_rss_mb": "MiB", "quality_map": "ratio",
}


@dataclass
class Op:
    """One timed CLI call and what was checked about it."""

    start: float
    end: float
    exit_code: object
    result: dict | None = None
    digest: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def failed(self) -> bool:
        return bool(self.problems)


# ------------------------------------------------------------------- set-up

def timed_setup(name: str, seed: int, work: Path, scale: str) -> float:
    """Time of one fresh interpreter that imports the package and writes
    the workload's inputs into ``work``: its wall time, less the probes it
    ran, in reference seconds at the speed they showed (``pace.py``)."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(HERE), name, str(seed),
           str(work), scale]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    probes = json.loads(proc.stdout.strip().splitlines()[-1])
    return to_reference(elapsed - sum(probes), probes)


def load_reference() -> dict:
    if REFERENCE_FILE.is_file():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {}


def machine() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


# ---------------------------------------------------------------- operations

def run_op(cli, wl, seed: int, work: Path, scale: str, expected: str | None,
           argv=None, pace: Pace | None = None) -> Op:
    """Time one CLI call, under ``pace`` if given; a nonzero exit, an
    exception, a failed result check or a digest other than ``expected``
    marks the operation failed."""
    run_dir = Path(tempfile.mkdtemp(prefix="op-", dir=work))
    argv = argv if argv is not None else wl.argv(seed, work, run_dir, scale)
    out = io.StringIO()
    if pace is not None:
        pace.start()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the op is counted as failed, the run goes on
        code = f"{type(exc).__name__}: {exc}"
    finally:
        t1 = time.perf_counter()
        if pace is not None:
            pace.stop()
    op = Op(t0, t1, code)
    if code != 0:
        op.problems.append(f"exit {code}")
    else:
        try:
            op.result = wl.result(out.getvalue(), run_dir)
            op.digest = digest(op.result)
            op.problems += wl.problems(op.result, scale)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            op.problems.append(f"unreadable result: {type(exc).__name__}: {exc}")
        if op.digest is not None and expected is not None and op.digest != expected:
            op.problems.append(f"digest {op.digest[:12]} != expected {expected[:12]}")
    shutil.rmtree(run_dir, ignore_errors=True)
    return op


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    spans = tracer.spans
    own = tracer.self_times()
    idx = defaultdict(list)
    for i, s in enumerate(spans):
        idx[s.name].append(i)

    def calls(n):
        return len(idx[n])

    def secs(n):
        return sum((spans[i].end - spans[i].start for i in idx[n]), 0.0)

    def count(n, key):
        return sum(spans[i].counts.get(key, 0) for i in idx[n])

    m = {}
    layer_self = defaultdict(float)
    for s, t in zip(spans, own):
        layer_self[s.name.split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    for n in ("metrics.match_detections", "metrics.mean_average_precision",
              "geom.nms", "detectors.detect", "detectors.audit_pseudo_labels",
              "ensemble.train", "ensemble.predict",
              "ensemble.positive_probability", "cotrain.exchange_round",
              "cotrain.save_checkpoint", "tuner.objective"):
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.s"] = secs(n)
    for n in ("metrics.average_recall_at", "cotrain.initial_supervised_phase",
              "cotrain.generate_pseudo_labels", "cotrain.predict_verified",
              "cotrain.merge_views", "cli.build_dataset", "data.load_annotations",
              "cli.load_predictions", "report.save_run_report",
              "tuner.write_trace_csv"):
        m[f"{n}.s"] = secs(n)
    m["geom.iou.calls"] = tracer.calls["geom.iou"]
    m["geom.nms.keep_ratio"] = _ratio(count("geom.nms", "out"), count("geom.nms", "in"))
    m["detectors.detect.dets"] = count("detectors.detect", "dets")
    for n in ("ensemble.train", "ensemble.predict", "ensemble.positive_probability"):
        m[f"{n}.rows"] = count(n, "rows")
    m["cotrain.save_checkpoint.bytes"] = count("cotrain.save_checkpoint", "bytes")
    pool_dets = sum(
        spans[i].counts.get("dets", 0) for i in idx["detectors.detect"]
        if tracer.ancestor(i, "cotrain.generate_pseudo_labels") >= 0
    )
    m["cotrain.generate_pseudo_labels.accept_ratio"] = _ratio(
        count("cotrain.generate_pseudo_labels", "labels"), pool_dets
    )
    m["cotrain.run_cotraining.self_s"] = sum(
        own[i] for i in idx["cotrain.run_cotraining"]
    )
    keys = tracer.objective_keys
    m["tuner.detector_repeat_ratio"] = _ratio(
        sum(1 for i, k in enumerate(keys) if k in keys[:i]), len(keys)
    )
    # input properties: GT from whichever loader ran, detections per image
    # from the predictions file or else per detect call
    gt_src = "cli.build_dataset" if idx["cli.build_dataset"] else "data.load_annotations"
    m["workload.gt_per_image"] = _ratio(count(gt_src, "gts"), count(gt_src, "images"))
    if idx["cli.load_predictions"]:
        m["workload.dets_per_image"] = _ratio(
            count("cli.load_predictions", "dets"), count("cli.load_predictions", "images")
        )
    else:
        m["workload.dets_per_image"] = _ratio(
            m["detectors.detect.dets"], m["detectors.detect.calls"]
        )
    m["trace.overhead_ratio"] = _ratio(traced_s - untraced_s, untraced_s)
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    if name.startswith("workload."):
        return "1/image"
    return "count"


# ---------------------------------------------------------------------- run

def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", reference: dict | None = None,
            argv=None, log=print) -> dict:
    """One benchmark run: set-up, operations, checks and metrics."""
    wl = WORKLOADS[name]
    reference = load_reference() if reference is None else reference
    expected = reference.get(name, {}).get(str(seed))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT))
    try:
        setup_times = []
        t_setup = time.perf_counter()
        while len(setup_times) < SETUP_REPS or (
            len(setup_times) < SETUP_MAX_REPS
            and time.perf_counter() - t_setup < SETUP_SECONDS
        ):
            setup_times.append(timed_setup(name, seed, work, scale))
        cli = import_program()
        log("machine: " + json.dumps(machine()))
        ops: list[Op] = []

        # untraced runs pace their operations; traced ones compare raw
        # wall times, traced against untraced
        pace = None if trace else Pace()

        def op(tracer: Tracer) -> Op:
            tracer.install()
            try:
                o = run_op(cli, wl, seed, work, scale, expected, argv, pace)
            finally:
                tracer.restore()
            if o.digest is not None and ops and ops[0].digest not in (None, o.digest):
                o.problems.append("digest differs from the run's first operation")
            ops.append(o)
            scaled = f" ({pace.scaled(o.start, o.end):.4f} reference s)" if pace else ""
            log(f"op {len(ops)}: {o.elapsed:.4f} s{scaled} exit={o.exit_code} "
                f"digest={o.digest} {'FAILED ' + '; '.join(o.problems) if o.failed else 'ok'}")
            return o

        unit_timer = Tracer(only={wl.unit})
        first = op(unit_timer)
        # through the first operation only: how many more fit in the
        # measuring time varies, and each one grows the heap a little
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            tracer = Tracer()
            traced = op(tracer)
            TRACE_DIR.mkdir(parents=True, exist_ok=True)
            tracer.write(TRACE_DIR / f"{name}-seed{seed}.jsonl")
            metrics = per_layer(tracer, first.elapsed, traced.elapsed)
        else:
            # start another operation only if, at the median pace so far,
            # it ends within the measuring time
            times = [first.elapsed]
            while sum(times) + statistics.median(times) <= seconds:
                times.append(op(unit_timer).elapsed)
            quality = next((wl.quality(o.result) for o in ops if o.result), 0.0)
            metrics = {
                "setup_s": _median(setup_times),
                "run_s": _median([pace.scaled(o.start, o.end) for o in ops]),
                "eval_s": _median([pace.scaled(s.start, s.end)
                                   for s in unit_timer.spans if s.name == wl.unit]),
                "peak_rss_mb": peak_rss_mb,
                "quality_map": float(quality),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(o.failed for o in ops)
    for k, v in metrics.items():
        log(f"  {k} = {v!r} {unit_of(k)}")
    log(f"  error_rate = {failed}/{len(ops)} ratio"
        f" (reference digest {'recorded' if expected else 'not recorded'} for seed {seed})")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: int) -> int:
    """Each workload untraced then traced, each in its own process; prints
    the operations' checks, then every metric by name and unit."""
    rows = []
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                bad += 1
                continue
            if trace == 0:
                print(lines[0])
            for line in lines[1:-1]:
                if line.startswith(("op ", "  error_rate")):
                    print(f"{name} trace={trace}: {line.strip()}")
            res = json.loads(lines[-1])
            bad += res["failed"] > 0 or not res["correct"]
            for k, v in res["metrics"].items():
                rows.append((name, k, v["value"], v["unit"]))
    width = max((len(r[1]) for r in rows), default=0)
    for name, k, v, unit in rows:
        print(f"{name:18s} {k:{width}s} {v:14.6g} {unit}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced, and print a table")
    args = p.parse_args(argv)
    if not args.all and not args.workload:
        p.error("--workload or --all is required")
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
