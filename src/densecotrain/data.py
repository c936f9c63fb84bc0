"""Annotation I/O, labeled/unlabeled selection with 70-10-20 split, and
synthetic dense-scene generation.

CSV schema (matches the public dense-retail distribution):
``image_name,x1,y1,x2,y2,class,image_width,image_height``; the header is
optional.  The first non-blank row, when its second column is not
numeric, is a header and must name exactly these columns (spaces around
names are ignored); any other header is an ``AnnotationError``.  Messages
name the physical line a row ends on, so a quoted newline counts.  Boxes
are clamped into image bounds with a warning; rows that are degenerate
after clamping are rejected loudly, never silently.  Rows are read as
columns, a block at a time; only a row that warns or fails takes the
per-row parser, which gives every message.

Synthetic scenes place a jittered grid of boxes whose pitch is shrunk by
``overlap_factor``, which induces neighbor overlap (the stand-in for
dense-shelf occlusion).  Per-box occlusion level is recorded as the max
IoU with any other box in the scene.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .codec import (
    Checked, FieldError, check, fits, read_text, rule, rule_of, write_json, write_text,
)
from .geom import GroundTruths, gt_columns, iou_pairs

LABEL_NAMES: dict[int, str] = {0: "object"}
CSV_COLUMNS: tuple[str, ...] = (
    "image_name", "x1", "y1", "x2", "y2", "class", "image_width", "image_height"
)
# rows parsed as columns at once: a whole file's columns would all be held
_BLOCK_ROWS = 1024


class AnnotationError(ValueError):
    """A malformed annotation row; message names line and field."""


@dataclass(frozen=True)
class ImageRecord:
    """One image's annotations.

    ``gts`` may be given as ``GroundTruth`` objects or as a
    ``GroundTruths`` batch and is held as the batch; each GT must be a
    finite box with ``x2 > x1`` and ``y2 > y1`` inside the image.  The
    per-GT ``occlusion`` is a property, not a field, so it is left out of
    equality and hashing.  Whether a record is labeled or pool is decided
    by the ``DatasetSplit`` it falls in; pool records keep their GTs only
    for audits.
    """

    image_id: str
    width: int
    height: int
    gts: GroundTruths
    labeled: bool = True

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"{self.image_id}: image dims must be positive, "
                f"got {self.width}x{self.height}"
            )
        try:
            gts = gt_columns(self.gts)
        except ValueError as e:  # a label the int64 cast would change
            raise ValueError(f"{self.image_id}: {e}") from None
        b = gts.boxes
        if b.ndim != 2 or b.shape[1] != 4 or gts.labels.shape != (len(b),):
            raise ValueError(
                f"{self.image_id}: GT columns must be boxes (n, 4) and labels (n,), "
                f"got {b.shape} and {gts.labels.shape}"
            )
        # a NaN fails every comparison, and an inf one of the bounds
        x1, y1, x2, y2 = b.T
        ok = (x1 >= 0) & (y1 >= 0) & (x2 <= self.width) & (y2 <= self.height)
        ok &= (x2 > x1) & (y2 > y1)
        if not ok.all():
            i = int(np.argmin(ok))
            box = tuple(b[i].tolist())
            why = (
                "is not finite" if not np.isfinite(b[i]).all()
                else "is degenerate: need x2 > x1 and y2 > y1"
                if not (box[2] > box[0] and box[3] > box[1])
                else f"outside [0,{self.width}]x[0,{self.height}]"
            )
            raise ValueError(f"{self.image_id}: GT {i} box {box} {why}")
        object.__setattr__(self, "gts", gts)

    @property
    def occlusion(self) -> np.ndarray:
        """``occlusion_levels`` of the GT boxes (max IoU with any other
        box), a read-only array computed on first read and kept in the
        instance dict (``functools.cached_property`` takes a lock on every
        first read on Python 3.11)."""
        levels = self.__dict__.get("occlusion")
        if levels is None:
            levels = self.__dict__["occlusion"] = occlusion_levels(self.gts.boxes)
        return levels


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint labeled train/val/test id lists plus the unlabeled pool."""

    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]
    unlabeled_pool: tuple[str, ...]


@dataclass(frozen=True)
class SceneSpec(Checked):
    """Parameters for one synthetic dense scene."""

    grid_rows: int = rule(ge=1)
    grid_cols: int = rule(ge=1)
    box_w: float = rule(48.0, gt=0)
    box_h: float = rule(64.0, gt=0)
    jitter: float = rule(2.0, ge=0)
    overlap_factor: float = rule(0.0, ge=0, lt=1)
    seed: int = rule(0, ge=0)  # numpy's generators refuse a negative one, naming no field


def check_split(n_labeled: int, n_unlabeled: int, fractions: Sequence[float]) -> None:
    """Refuse, with a FieldError naming it, a count or a train/val/test
    share list that ``select_and_split`` cannot split by."""
    check("n_labeled", n_labeled, int, ge=1)
    check("n_unlabeled", n_unlabeled, int, ge=0)
    shares = len(fractions) == 3 and all(fits(float, f) and f >= 0 for f in fractions)
    if not shares or abs(sum(fractions) - 1.0) > 1e-9:
        raise FieldError(f"fractions must be three finite shares >= 0 that sum to 1 "
                         f"within 1e-9, got {fractions!r}")


def check_grid_ranges(row_range: tuple[int, int] | None,
                      col_range: tuple[int, int] | None) -> None:
    """Refuse, with a FieldError naming it, a grid range other than None or
    integers ``[lo, hi]`` with ``1 <= lo <= hi``: each scene draws its grid
    dims from it, so a bad one fails before any scene, whatever it draws."""
    for name, r in (("row_range", row_range), ("col_range", col_range)):
        if r is not None and not (
            len(r) == 2 and all(fits(int, v) for v in r) and 1 <= r[0] <= r[1]
        ):
            raise FieldError(f"{name} must be [lo, hi] with 1 <= lo <= hi, both "
                             f"integers, got {r!r}")


def occlusion_levels(c: np.ndarray) -> np.ndarray:
    """Per-box max IoU with any other box (0.0 for a lone box), of the
    boxes with corners ``c[n, 4]``, as a read-only array."""
    m = iou_pairs(c[:, None, :], c[None, :, :])
    np.fill_diagonal(m, 0.0)
    out = m.max(axis=1, initial=0.0)
    out.flags.writeable = False
    return out


def _parse_row(
    row: list[str], line_no: int
) -> tuple[str, tuple[float, float, float, float], str, int, int] | None:
    if len(row) != 8:
        raise AnnotationError(
            f"line {line_no}: expected 8 fields "
            f"({','.join(CSV_COLUMNS)}), got {len(row)}"
        )
    name = row[0].strip()
    if not name:
        raise AnnotationError(f"line {line_no}: field image_name is empty")
    vals = []
    for idx, fname in zip((1, 2, 3, 4), CSV_COLUMNS[1:5]):
        try:
            vals.append(float(row[idx]))
        except ValueError:
            raise AnnotationError(
                f"line {line_no}: field {fname} is not numeric: {row[idx]!r}"
            ) from None
    cls = row[5].strip()
    dims = []
    for idx, fname in zip((6, 7), CSV_COLUMNS[6:8]):
        try:
            v = int(row[idx])
        except ValueError:
            raise AnnotationError(
                f"line {line_no}: field {fname} is not an integer: {row[idx]!r}"
            ) from None
        if v <= 0:
            raise AnnotationError(f"line {line_no}: field {fname} must be positive")
        if v > 2**53:  # where float(v), the clamp's bound, stops being exact
            raise AnnotationError(f"line {line_no}: field {fname} must be <= 2**53")
        dims.append(v)
    x1, y1, x2, y2 = vals
    w, h = dims
    # float bounds: min(x, w) would return the int w for a clamped x
    fw, fh = float(w), float(h)
    cx1, cy1 = max(0.0, min(x1, fw)), max(0.0, min(y1, fh))
    cx2, cy2 = max(0.0, min(x2, fw)), max(0.0, min(y2, fh))
    if (cx1, cy1, cx2, cy2) != (x1, y1, x2, y2):
        # a nan or an inf never equals its clamp, so only this branch checks
        for fname, v in zip(CSV_COLUMNS[1:5], vals):
            if not math.isfinite(v):
                raise AnnotationError(
                    f"line {line_no}: field {fname} is not finite: {v}"
                )
        warnings.warn(
            f"line {line_no}: box ({x1},{y1},{x2},{y2}) clamped to "
            f"image bounds {w}x{h}"
        )
    if cx2 <= cx1 or cy2 <= cy1:
        warnings.warn(
            f"line {line_no}: box degenerate after clamping "
            f"({cx1},{cy1},{cx2},{cy2}); row rejected"
        )
        return None
    return name, (cx1, cy1, cx2, cy2), cls, w, h


def _label_id(name: str, label_ids: dict[str, int], line_no: int) -> int:
    """The label of class ``name``, kept in ``label_ids`` (the names seen so
    far): ``object`` is 0 and ``class_<k>`` is k, as ``save_annotations``
    writes them, and any other name takes the lowest label above 0 that no
    name holds yet.  A name whose label another name holds, or whose k
    does not fit the records' int64 label arrays, fails."""
    if name not in label_ids:
        k = name.removeprefix("class_")
        if name == LABEL_NAMES[0]:
            new = 0
        elif k != name and k.isascii() and k.isdigit():
            new = int(k)
            if new >= 2**63:
                raise AnnotationError(
                    f"line {line_no}: class {name!r} has a label beyond int64"
                )
        else:
            new = min(set(range(1, len(label_ids) + 2)) - set(label_ids.values()))
        for other, label in label_ids.items():
            if label == new:
                raise AnnotationError(
                    f"line {line_no}: class {name!r} would share label {new} "
                    f"with class {other!r}"
                )
        label_ids[name] = new
    return label_ids[name]


def _blank(row: list[str]) -> bool:
    return all(not c.strip() for c in row)


def _header(row: list[str], line_no: int) -> bool:
    """Whether the first non-blank row is the header: its second field is
    not numeric, and then it must name exactly ``CSV_COLUMNS``."""
    if len(row) < 2:
        return False
    try:
        float(row[1])
        return False
    except ValueError:
        if tuple(c.strip() for c in row) != CSV_COLUMNS:
            raise AnnotationError(
                f"line {line_no}: header must be {','.join(CSV_COLUMNS)}, "
                f"got {','.join(row)}"
            ) from None
        return True


def _add_run(by_image: dict, name: str, w: int, h: int, boxes, labels, line_no: int) -> None:
    """Append rows of one image, all of dims ``w`` x ``h``, to its entry."""
    entry = by_image.setdefault(name, {"width": w, "height": h, "boxes": [], "labels": []})
    if entry["width"] != w or entry["height"] != h:
        raise AnnotationError(
            f"line {line_no}: image {name} has conflicting dims "
            f"{w}x{h} vs {entry['width']}x{entry['height']}"
        )
    entry["boxes"].append(boxes)
    entry["labels"].append(labels)


def _add_row(row: list[str], line_no: int, label_ids: dict, by_image: dict) -> None:
    """The per-row path: skip a blank row, else parse, label and group it."""
    if _blank(row):
        return
    parsed = _parse_row(row, line_no)
    if parsed is not None:
        name, box, cls, w, h = parsed
        label = _label_id(cls, label_ids, line_no)
        _add_run(by_image, name, w, h, [box], [label], line_no)


def _block_columns(rows: Sequence[list[str]]):
    """The name, corner ``[4, n]``, class and dims columns of a block of
    rows, or None when a row fails or is blank: not 8 fields, an empty name,
    a value ``float()`` or ``int()`` refuses, or dims outside [1, 2**53]
    (where ``float(w)`` is exact)."""
    if any(len(r) != 8 for r in rows):
        return None
    name, *xy, cls, w, h = zip(*rows)
    names = list(map(str.strip, name))
    try:
        c = np.array([list(map(float, col)) for col in xy])
        w, h = list(map(int, w)), list(map(int, h))
    except ValueError:
        return None
    if not all(names) or min(w + h) < 1 or max(w + h) > 2**53:
        return None
    return names, c, list(map(str.strip, cls)), np.array(w), np.array(h)


def _add_clean(cols: Sequence, label_ids: dict, by_image: dict) -> None:
    """Label and group rows that ``_parse_row`` keeps as they are: new class
    names in order of first use, then runs of one image and dims.  An error
    is raised at the row where the per-row path raises it."""
    names, boxes, cls, w, h, lines = cols
    for c in dict.fromkeys(cls):
        if c not in label_ids:
            j = cls.index(c)
            try:
                _label_id(c, label_ids, lines[j])
            except AnnotationError:
                _add_clean([col[:j] for col in cols], label_ids, by_image)
                raise
    if not names:
        return
    labels = np.array([label_ids[c] for c in cls], dtype=np.int64)
    # names compared as str: a numpy string array drops trailing NULs
    new_run = np.array(list(map(operator.ne, names[1:], names[:-1])), dtype=bool)
    new_run |= (w[1:] != w[:-1]) | (h[1:] != h[:-1])
    starts = [0, *(np.flatnonzero(new_run) + 1).tolist()]
    for s, e in zip(starts, [*starts[1:], len(names)]):
        _add_run(by_image, names[s], int(w[s]), int(h[s]), boxes[s:e], labels[s:e], lines[s])


def _add_block(block: Sequence[tuple[int, list[str]]], label_ids: dict, by_image: dict) -> None:
    """Add numbered rows as columns: clamp, finiteness and degeneracy are
    array tests, and only a row that warns or fails, or a block with a row
    that fails, takes the per-row path, in line order."""
    lines, rows = zip(*block)
    cols = _block_columns(rows)
    if cols is None:
        for line_no, row in block:
            _add_row(row, line_no, label_ids, by_image)
        return
    names, c, cls, w, h = cols
    # _parse_row's max(0.0, min(x, bound)), NaN and -0.0 included
    bound = np.array([w, h, w, h], dtype=float)
    clamped = np.where(bound < c, bound, c)
    clamped = np.where(clamped > 0.0, clamped, 0.0)
    special = (clamped != c).any(axis=0)
    special |= (clamped[2] <= clamped[0]) | (clamped[3] <= clamped[1])
    cols = (names, np.ascontiguousarray(clamped.T), cls, w, h, lines)
    start = 0
    for k in [*np.flatnonzero(special).tolist(), len(rows)]:
        _add_clean([col[start:k] for col in cols], label_ids, by_image)
        if k < len(rows):
            _add_row(rows[k], lines[k], label_ids, by_image)
        start = k + 1


def _numbered(reader, fault: list):
    """The reader's non-empty rows with the physical line each ends on; a
    csv.Error ends them and is kept in ``fault`` as an AnnotationError
    naming its line."""
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:
        fault.append(AnnotationError(f"line {reader.line_num}: {exc}"))


def load_annotations(path: str | Path) -> list[ImageRecord]:
    """Read the annotation CSV into per-image records (row order kept), in
    blocks of ``_BLOCK_ROWS`` rows; the header is the first non-blank row
    whose second field is not numeric."""
    label_ids: dict[str, int] = {}
    by_image: dict[str, dict] = {}
    fault: list[AnnotationError] = []
    rows = _numbered(csv.reader(io.StringIO(read_text(path), newline="")), fault)
    for line_no, row in rows:
        if not _blank(row):
            if not _header(row, line_no):
                rows = itertools.chain([(line_no, row)], rows)
            break
    while block := list(itertools.islice(rows, _BLOCK_ROWS)):
        _add_block(block, label_ids, by_image)
    if fault:  # raised after the rows before it, as a row-by-row read does
        raise fault[0]
    return [
        ImageRecord(name, e["width"], e["height"],
                    GroundTruths(np.concatenate(e["boxes"]), np.concatenate(e["labels"])))
        for name, e in by_image.items()
    ]


def save_annotations(records: Iterable[ImageRecord], path: str | Path) -> None:
    """Write records back to the CSV schema, header included."""
    text = io.StringIO()
    w = csv.writer(text)
    w.writerow(CSV_COLUMNS)
    for rec in records:
        for box, label in zip(rec.gts.boxes.tolist(), rec.gts.labels.tolist()):
            w.writerow(
                [rec.image_id, *map(repr, box),
                 LABEL_NAMES.get(label, f"class_{label}"), rec.width, rec.height]
            )
    write_text(path, text.getvalue())


def _floor_share(fraction: float, n: int) -> int:
    # 0.7*2000 is 1399.9999999999998 in floats; the epsilon keeps exact
    # decimal shares exact without ever adding a whole unit
    return int(math.floor(fraction * n + 1e-6))


def split_sizes(n_labeled: int, fractions: Sequence[float]) -> tuple[int, int, int]:
    """The train, validation and test counts of ``n_labeled`` labeled
    images: floor shares for train and val, the remainder to test."""
    n_train = _floor_share(fractions[0], n_labeled)
    n_val = _floor_share(fractions[1], n_labeled)
    if n_train + n_val > n_labeled:
        raise ValueError("fractions leave a negative test share")
    return n_train, n_val, n_labeled - n_train - n_val


def select_and_split(
    records: Sequence[ImageRecord],
    n_labeled: int = 2000,
    n_unlabeled: int = 8000,
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> DatasetSplit:
    """Seeded uniform selection of labeled/unlabeled sets, then the
    train/val/test split of ``split_sizes``."""
    check_split(n_labeled, n_unlabeled, fractions)
    check("seed", seed, int, **rule_of(SceneSpec, "seed"))
    need = n_labeled + n_unlabeled
    if need > len(records):
        raise ValueError(
            f"need {need} records (n_labeled={n_labeled} + "
            f"n_unlabeled={n_unlabeled}) but only {len(records)} available"
        )
    ids = [r.image_id for r in records]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate image_ids in records")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    chosen = [ids[i] for i in perm[:need]]
    labeled = chosen[:n_labeled]
    pool = tuple(chosen[n_labeled:need])
    n_train, n_val, _ = split_sizes(n_labeled, fractions)
    return DatasetSplit(
        train=tuple(labeled[:n_train]),
        val=tuple(labeled[n_train : n_train + n_val]),
        test=tuple(labeled[n_train + n_val :]),
        unlabeled_pool=pool,
    )


def generate_synthetic_scene(
    spec: SceneSpec, image_id: str | None = None
) -> ImageRecord:
    """One dense scene: a grid of boxes with pitch shrunk by
    overlap_factor and Gaussian placement jitter, deterministic in
    spec.seed."""
    pitch_x = spec.box_w * (1.0 - spec.overlap_factor)
    pitch_y = spec.box_h * (1.0 - spec.overlap_factor)
    margin_x = spec.box_w * 0.5 + 4.0 * spec.jitter
    margin_y = spec.box_h * 0.5 + 4.0 * spec.jitter
    width = int(math.ceil(2 * margin_x + pitch_x * (spec.grid_cols - 1) + spec.box_w))
    height = int(math.ceil(2 * margin_y + pitch_y * (spec.grid_rows - 1) + spec.box_h))
    rng = np.random.default_rng(spec.seed)
    r, c = np.divmod(np.arange(spec.grid_rows * spec.grid_cols), spec.grid_cols)
    xy = np.stack([margin_x + c * pitch_x, margin_y + r * pitch_y], axis=1)
    if spec.jitter > 0:  # each box's x then y draw, boxes row by row
        xy += rng.normal(0.0, spec.jitter, xy.shape)
    xy = np.minimum(np.maximum(xy, 0.0), [width - spec.box_w, height - spec.box_h])
    boxes = np.concatenate([xy, xy + [spec.box_w, spec.box_h]], axis=1)
    return ImageRecord(
        image_id=image_id or f"synth-{spec.seed:08x}",
        width=width,
        height=height,
        gts=GroundTruths(boxes, np.zeros(len(boxes), dtype=np.int64)),
    )


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def generate_synthetic_dataset(
    n_images: int,
    spec_template: SceneSpec,
    seed: int = 0,
    row_range: tuple[int, int] | None = None,
    col_range: tuple[int, int] | None = None,
) -> list[ImageRecord]:
    """n_images scenes with per-image derived seeds; optional density
    variation draws grid dims uniformly from the given inclusive ranges."""
    check("n_images", n_images, int, ge=1)
    check("seed", seed, int, **rule_of(SceneSpec, "seed"))
    check_grid_ranges(row_range, col_range)
    records = []
    for i in range(n_images):
        s = _child_seed(seed, i)
        rows, cols = spec_template.grid_rows, spec_template.grid_cols
        if row_range or col_range:
            dim_rng = np.random.default_rng(_child_seed(s, 1))
            if row_range:
                rows = int(dim_rng.integers(row_range[0], row_range[1] + 1))
            if col_range:
                cols = int(dim_rng.integers(col_range[0], col_range[1] + 1))
        spec = replace(spec_template, seed=s, grid_rows=rows, grid_cols=cols)
        records.append(generate_synthetic_scene(spec, image_id=f"synth-{i:05d}"))
    return records


def write_manifest(
    path: str | Path,
    n_images: int,
    spec_template: SceneSpec,
    seed: int,
) -> None:
    """Sidecar JSON recording how a synthetic CSV was produced: the scene
    spec without its ``seed``, which the top-level ``seed`` gives."""
    scene_spec = asdict(spec_template)
    del scene_spec["seed"]
    payload = {"n_images": n_images, "seed": seed, "scene_spec": scene_spec}
    write_json(path, payload)
