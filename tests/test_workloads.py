"""The benchmark's dense evaluation still runs and scores as recorded:
``perfbench/workloads.py`` makes the ``evaluate-dense`` inputs of seed 0
(which saves predictions from ``Detection.scored`` lists), ``evaluate``
scores them through ``cli.main``, and the result's digest equals the one
in ``perfbench/reference.json``.  The workloads are read from
``perfbench/`` as they are; nothing there is changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from densecotrain import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_dense_evaluation_matches_the_reference_digest(workloads, tmp_path, capsys):
    seed, scale = 0, "full"
    workloads._dense_setup(seed, tmp_path, scale)
    run_dir = tmp_path / "run"
    assert cli.main(workloads._dense_argv(seed, tmp_path, run_dir, scale)) == 0
    result = workloads._dense_result(capsys.readouterr().out, run_dir)
    assert workloads._dense_problems(result, scale) == []
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    assert workloads.digest(result) == reference["evaluate-dense"][str(seed)]
