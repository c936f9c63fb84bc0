"""The benchmark's tracer still fits the package: ``perfbench/spans.py``
installs over every name it spans or counts, and restores them all.

A renamed or removed spanned function, the counted ``geom.iou`` or
``tuner.make_supervised_objective`` makes ``Tracer.install`` fail, so this
test fails here and not only in a traced benchmark run.  The tracer is
read from ``perfbench/`` as it is; nothing there is changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import densecotrain.cotrain as cotrain
from densecotrain.cotrain import CoTrainConfig, PseudoLabel, records_index
from densecotrain.data import SceneSpec, generate_synthetic_dataset, select_and_split

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for layer, _, _ in module.SPANNED:
        importlib.import_module(f"{module.PACKAGE}.{layer}")
    return module


def _package_names(spans):
    """Every module-level name in the package and every method of the
    spanned classes: what the tracer may rebind."""
    names = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith(spans.PACKAGE + "."):
            names.update({(name, a): v for a, v in vars(mod).items()})
    for layer, attr, _ in spans.SPANNED:
        if "." in attr:
            cls_name = attr.split(".")[0]
            cls = getattr(sys.modules[f"{spans.PACKAGE}.{layer}"], cls_name)
            names.update({(cls_name, a): v for a, v in vars(cls).items()})
    return names


def test_tracer_installs_over_the_package_and_restores(spans):
    recs = generate_synthetic_dataset(
        70, SceneSpec(grid_rows=3, grid_cols=4, overlap_factor=0.4, seed=11),
        seed=11, row_range=(3, 4), col_range=(3, 5),
    )
    split = select_and_split(recs, n_labeled=50, n_unlabeled=20, seed=11)
    records = records_index(recs)
    pool = [records[i] for i in split.unlabeled_pool]

    before = _package_names(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        # every spanned function and the counted ones are wrapped where
        # they are defined
        wrapped = [(layer, attr) for layer, attr, _ in spans.SPANNED if "." not in attr]
        for layer, attr in (*wrapped, *spans.COUNTED, spans.OBJECTIVE_FACTORY):
            mod = f"{spans.PACKAGE}.{layer}"
            assert getattr(sys.modules[mod], attr) is not before[(mod, attr)], (
                f"{layer}.{attr} was not wrapped"
            )
        state = cotrain.initial_supervised_phase(
            records, split, CoTrainConfig(seed=11)
        )
        labels = cotrain.generate_pseudo_labels(
            state.view_b, state.skills[-1][1], pool, 0.8, 0.5, 1, seed=3
        )
    finally:
        tracer.restore()

    after = _package_names(spans)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    # _labels_counts records len() of the result as the label count, so
    # generation returns one item per label
    (span,) = [s for s in tracer.spans if s.name == "cotrain.generate_pseudo_labels"]
    assert labels and all(isinstance(p, PseudoLabel) for p in labels)
    assert span.counts == {"labels": len(labels)}
    # spans nest: round 0 trains each view's ensemble inside the phase
    (phase,) = [i for i, s in enumerate(tracer.spans)
                if s.name == "cotrain.initial_supervised_phase"]
    trains = [s for s in tracer.spans if s.name == "ensemble.train"]
    assert len(trains) == 2 and all(s.parent == phase for s in trains)
