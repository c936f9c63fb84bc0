"""Span recording around the program's public functions, from outside.

Each instrumented function is replaced, at every name inside the
``densecotrain`` package that refers to it, by a wrapper that records a
span (name, start, end, parent) and optional counts.  The program's own
code is not changed: callers keep looking up the same names and get the
wrapper.  ``Tracer.restore`` puts the original objects back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

PACKAGE = "densecotrain"

# Detector genes route to the two DetectorParams blocks (tuner.vector_to_params).
DETECTOR_GENE_SUFFIXES = ("_yolo", "_rcnn")


def _count_none(args, kwargs, out) -> dict:
    return {}


def _nms_counts(args, kwargs, out) -> dict:
    return {"in": len(args[0]), "out": len(out)}


def _detect_counts(args, kwargs, out) -> dict:
    return {"dets": len(out)}


def _rows_of_first(args, kwargs, out) -> dict:
    # ensemble methods: (self_or_cls, X_or_(X, y), ...)
    data = args[1]
    return {"rows": len(data[0]) if isinstance(data, tuple) else len(data)}


def _labels_counts(args, kwargs, out) -> dict:
    return {"labels": len(out)}


def _checkpoint_counts(args, kwargs, out) -> dict:
    return {"bytes": Path(args[1]).stat().st_size}


def _dataset_counts(args, kwargs, out) -> dict:
    records = out[0].values()
    return {"images": len(records), "gts": sum(len(r.gts) for r in records)}


def _annotation_counts(args, kwargs, out) -> dict:
    return {"images": len(out), "gts": sum(len(r.gts) for r in out)}


def _prediction_counts(args, kwargs, out) -> dict:
    return {"images": len(out), "dets": sum(len(v) for v in out.values())}


# (defining module, attribute, span counts).  "Class.method" attributes are
# patched on the class.  Private helpers are left out: their time is the
# self time of the public caller.
SPANNED: tuple[tuple[str, str, Callable], ...] = (
    ("cli", "main", _count_none),
    ("cli", "build_dataset", _dataset_counts),
    ("cli", "load_predictions", _prediction_counts),
    ("data", "load_annotations", _annotation_counts),
    ("data", "generate_synthetic_dataset", _count_none),
    ("data", "select_and_split", _count_none),
    ("report", "build_run_report", _count_none),
    ("report", "save_run_report", _count_none),
    ("report", "write_history_csv", _count_none),
    ("tuner", "optimize", _count_none),
    ("tuner", "write_trace_csv", _count_none),
    ("cotrain", "run_cotraining", _count_none),
    ("cotrain", "initial_supervised_phase", _count_none),
    ("cotrain", "exchange_round", _count_none),
    ("cotrain", "generate_pseudo_labels", _labels_counts),
    ("cotrain", "predict_verified", _count_none),
    ("cotrain", "merge_views", _count_none),
    ("cotrain", "save_checkpoint", _checkpoint_counts),
    ("detectors", "detect", _detect_counts),
    ("detectors", "audit_pseudo_labels", _count_none),
    ("detectors", "retrain", _count_none),
    ("ensemble", "EnsembleClassifier.train", _rows_of_first),
    ("ensemble", "EnsembleClassifier.predict", _rows_of_first),
    ("ensemble", "EnsembleClassifier.positive_probability", _rows_of_first),
    ("metrics", "match_detections", _count_none),
    ("metrics", "mean_average_precision", _count_none),
    ("metrics", "average_recall_at", _count_none),
    ("geom", "nms", _nms_counts),
)

# Called millions of times per run: counted, not spanned, so its time is
# part of its caller's self time.
COUNTED = (("geom", "iou"),)

# The objective is a closure built by tuner.make_supervised_objective, so it
# is wrapped where the CLI builds it.
OBJECTIVE_FACTORY = ("tuner", "make_supervised_objective")


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict = {}


class Tracer:
    """Spans kept in memory; ``only`` limits which span names are recorded
    (the untraced run times just its unit of work)."""

    def __init__(self, only: set[str] | None = None):
        self.only = only
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.objective_keys: list[tuple] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def _modules(self):
        prefix = PACKAGE + "."
        return [m for n, m in sys.modules.items() if n.startswith(prefix)]

    def _rebind(self, original, replacement) -> None:
        """Point every module-level name in the package that refers to
        ``original`` at ``replacement``."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _spanned(self, name: str, fn, counts: Callable):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                span.counts = counts(args, kwargs, out)
            finally:
                span.end = clock()
                stack.pop()
            return out

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> "Tracer":
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for layer, attr, counts in SPANNED:
            name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
            if self.only is not None and name not in self.only:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[layer], cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._spanned(name, raw.__func__, counts))
                else:
                    wrapped = self._spanned(name, raw, counts)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
            else:
                original = getattr(mods[layer], attr)
                self._rebind(original, self._spanned(name, original, counts))
        if self.only is None:
            for layer, attr in COUNTED:
                original = getattr(mods[layer], attr)
                self._rebind(original, self._counted(f"{layer}.{attr}", original))
        if self.only is None or "tuner.objective" in self.only:
            layer, attr = OBJECTIVE_FACTORY
            factory = getattr(mods[layer], attr)
            self._rebind(factory, self._objective_factory(factory))
        return self

    def _objective_factory(self, factory):
        keys = self.objective_keys

        def make(*args, **kwargs):
            objective = factory(*args, **kwargs)
            spanned = self._spanned("tuner.objective", objective, _count_none)

            def wrapped(v):
                keys.append(tuple(
                    getattr(v, g) for g in v.__dataclass_fields__
                    if g.endswith(DETECTOR_GENE_SUFFIXES)
                ))
                return spanned(v)

            return wrapped

        return make

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def ancestor(self, index: int, name: str) -> int:
        p = self.spans[index].parent
        while p >= 0 and self.spans[p].name != name:
            p = self.spans[p].parent
        return p

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent index, counts;
        times in seconds from the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "counts": s.counts,
                }) + "\n")
