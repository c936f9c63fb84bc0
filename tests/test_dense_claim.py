"""The paper's claim at the paper's density: co-training beats
self-training, which beats supervised training, on scenes of 150 objects
each (SKU-110K holds about 147 per image: Goldman et al., "Precise
Detection in Densely Packed Scenes", CVPR 2019).

One seed of the stock run with every scene a full 10 x 15 grid, in all
three modes, in a fresh interpreter under one BLAS thread, so that the
pinned digests do not depend on how many threads the host's BLAS takes.
The digests pin the dense regime bit for bit, as perfbench's reference
digests pin its workloads; one changed on purpose is re-recorded with
its reason."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import densecotrain

MODES = ("cotrain", "selftrain", "supervised")

# sha256 of json.dumps(result_to_dict(result), sort_keys=True,
# separators=(",", ":")), perfbench's digest, per mode on seed 0
DENSE_DIGESTS = {
    "cotrain": "661d8d9f9c2263b25ddb535f65a029a3f8968bb09911953821f9cc13c43e53ca",
    "selftrain": "acab469868f8e780d3c4e9f816b82c798abf781695f9440fd9f286fdf49fe2cc",
    "supervised": "e9c2beec48168c9f220ad5a15577bbc03b6f8604ffc835565aa21c551965a431",
}

_DENSE_RUNS = """
import hashlib, json
from dataclasses import replace
from densecotrain.cli import build_dataset
from densecotrain.config import default_synthetic
from densecotrain.cotrain import result_to_dict, run_cotraining

cfg = default_synthetic(0)
cfg = replace(cfg, dataset=replace(
    cfg.dataset, grid_rows=10, grid_cols=15, row_range=None, col_range=None))
records, split = build_dataset(cfg, needs_test=True)
out = {}
for mode in ("cotrain", "selftrain", "supervised"):
    result = run_cotraining(records, split, replace(cfg.cotrain, mode=mode))
    text = json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))
    out[mode] = {"map": result.report_combined.map_coco,
                 "digest": hashlib.sha256(text.encode()).hexdigest()}
print(json.dumps(out))
"""


def test_cotraining_beats_baselines_at_the_papers_density():
    src = str(Path(densecotrain.__file__).parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-c", _DENSE_RUNS], env=env,
                         capture_output=True, text=True, timeout=240)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    maps = {mode: out[mode]["map"] for mode in MODES}
    # measured 0.774, 0.706 and 0.635
    assert maps["cotrain"] > maps["selftrain"] > maps["supervised"], maps
    assert {mode: out[mode]["digest"] for mode in MODES} == DENSE_DIGESTS
