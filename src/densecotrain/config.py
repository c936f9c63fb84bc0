"""Run configuration: one JSON document that pins everything a run
needs, so the echoed config in a report reproduces the run bit for bit.

The seed is mandatory; nothing in the pipeline draws implicit entropy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .codec import Checked, ConfigError, echo, from_dict, read_json, rule, rule_of, write_json
from .cotrain import CoTrainConfig
from .data import SceneSpec, check_grid_ranges, check_split
from .tuner import TunerConfig

ARTIFACT_VERSION = 1
SEEDED_SECTIONS = ("cotrain", "tuner")


@dataclass(frozen=True)
class DatasetConfig(Checked):
    source: str = rule("synthetic", menu=("synthetic", "csv"))
    csv_path: str | None = None
    n_labeled: int = 200
    n_unlabeled: int = 800
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    grid_rows: int = rule(4, **rule_of(SceneSpec, "grid_rows"))
    grid_cols: int = rule(5, **rule_of(SceneSpec, "grid_cols"))
    row_range: tuple[int, int] | None = (3, 5)
    col_range: tuple[int, int] | None = (4, 6)
    box_w: float = rule(48.0, **rule_of(SceneSpec, "box_w"))
    box_h: float = rule(64.0, **rule_of(SceneSpec, "box_h"))
    jitter: float = rule(2.0, **rule_of(SceneSpec, "jitter"))
    overlap_factor: float = rule(0.4, **rule_of(SceneSpec, "overlap_factor"))

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.source == "csv" and not self.csv_path:
            raise ConfigError("dataset.source csv requires dataset.csv_path")
        check_split(self.n_labeled, self.n_unlabeled, self.fractions)
        check_grid_ranges(self.row_range, self.col_range)


@dataclass(frozen=True)
class RunConfig(Checked):
    """One run; the defaults are the stock experiment: 200 labeled plus
    800 unlabeled dense scenes at overlap 0.4, two co-training rounds at
    tau 0.8.  ``seed`` is the one seed of the run: the nested sections
    carry copies of it."""

    seed: int = rule(**rule_of(SceneSpec, "seed"))
    dataset: DatasetConfig = DatasetConfig()
    cotrain: CoTrainConfig = CoTrainConfig(max_rounds=2)
    tuner: TunerConfig = TunerConfig()
    output_dir: str = "runs/default"

    def __post_init__(self) -> None:
        super().__post_init__()
        for section in SEEDED_SECTIONS:
            object.__setattr__(self, section, replace(getattr(self, section), seed=self.seed))

    def scene_spec(self) -> SceneSpec:
        d = self.dataset
        return SceneSpec(
            grid_rows=d.grid_rows, grid_cols=d.grid_cols, box_w=d.box_w,
            box_h=d.box_h, jitter=d.jitter, overlap_factor=d.overlap_factor,
            seed=self.seed,
        )


def default_synthetic(seed: int = 0) -> RunConfig:
    """The stock experiment, seeded."""
    return RunConfig(seed=seed)


def config_to_dict(cfg: RunConfig) -> dict:
    doc = {"artifact_version": ARTIFACT_VERSION, **asdict(cfg)}
    for section in SEEDED_SECTIONS:
        del doc[section]["seed"]  # the top-level seed is the one authority
    return doc


def config_from_dict(doc: dict) -> RunConfig:
    """The run ``doc`` describes; every key it lacks keeps its value in
    the stock experiment."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    version = doc.pop("artifact_version", ARTIFACT_VERSION)
    if version != ARTIFACT_VERSION:
        raise ConfigError(f"unsupported artifact_version {echo(version)}")
    if "seed" not in doc:
        raise ConfigError("config requires an explicit seed (no implicit entropy)")
    for section in SEEDED_SECTIONS:
        if isinstance(doc.get(section), dict) and "seed" in doc[section]:
            raise ConfigError(f"{section}.seed is not a key; set the top-level seed")
    # the seed is read, and checked, with the rest of the document
    return from_dict(RunConfig, doc, default_synthetic(), "config")


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_json(path))


def save_config(cfg: RunConfig, path: str | Path) -> None:
    write_json(path, config_to_dict(cfg))
