"""Dataset I/O, split, and synthetic-scene tests."""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from dataclasses import asdict, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densecotrain.data as data_module
from densecotrain.data import (
    CSV_COLUMNS,
    AnnotationError,
    DatasetSplit,
    ImageRecord,
    SceneSpec,
    generate_synthetic_dataset,
    generate_synthetic_scene,
    load_annotations,
    occlusion_levels,
    save_annotations,
    select_and_split,
    _label_id,
    _parse_row,
    write_manifest,
)
from densecotrain.codec import from_dict, read_text
from densecotrain.geom import Box, GroundTruth, GroundTruths, corners, iou


def _write(tmp_path, text, name="ann.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_single_row(tmp_path):
    p = _write(tmp_path, "img_001.jpg,10,20,110,220,object,1000,1000\n")
    recs = load_annotations(p)
    assert len(recs) == 1
    r = recs[0]
    assert r.image_id == "img_001.jpg"
    assert r.width == 1000 and r.height == 1000
    assert len(r.gts) == 1
    (g,) = r.gts
    assert g.box.as_tuple() == (10.0, 20.0, 110.0, 220.0)
    assert g.label == 0
    assert r.labeled


def test_load_empty_file(tmp_path):
    p = _write(tmp_path, "")
    assert load_annotations(p) == []


def test_load_header_detected(tmp_path):
    p = _write(
        tmp_path,
        "image_name,x1,y1,x2,y2,class,image_width,image_height\n"
        "a.jpg,1,2,3,4,object,10,10\n",
    )
    recs = load_annotations(p)
    assert len(recs) == 1
    assert len(recs[0].gts) == 1


def test_load_no_header_numeric_first_row(tmp_path):
    p = _write(tmp_path, "a.jpg,1,2,3,4,object,10,10\nb.jpg,0,0,5,5,object,10,10\n")
    recs = load_annotations(p)
    assert {r.image_id for r in recs} == {"a.jpg", "b.jpg"}


def test_load_header_names_stripped(tmp_path):
    p = _write(
        tmp_path,
        " image_name , x1,y1,x2,y2,class,image_width,image_height \n"
        "a.jpg,1,2,3,4,object,10,10\n",
    )
    assert [r.image_id for r in load_annotations(p)] == ["a.jpg"]


@pytest.mark.parametrize(
    "header",
    [
        "image_name,x1,y1,x2,y2,clas,image_width,image_height",
        "image,x1,y1,x2,y2,class,image_width,image_height",
        "image_name,xmin,ymin,xmax,ymax,class,image_width,image_height",
        "image_name,x1,y1,x2,y2,class,image_width",
        "a.jpg,one,2,3,4,object,10,10",
    ],
)
def test_load_rejects_other_header(tmp_path, header):
    p = _write(tmp_path, header + "\na.jpg,1,2,3,4,object,10,10\n")
    with pytest.raises(AnnotationError, match="line 1: header must be "
                       "image_name,x1,y1,x2,y2,class,image_width,image_height"):
        load_annotations(p)


def test_load_groups_rows_by_image(tmp_path):
    p = _write(
        tmp_path,
        "a.jpg,1,1,3,3,object,10,10\n"
        "a.jpg,5,5,8,8,object,10,10\n",
    )
    recs = load_annotations(p)
    assert len(recs) == 1
    assert len(recs[0].gts) == 2


def test_load_clamps_with_warning(tmp_path):
    p = _write(tmp_path, "a.jpg,-5,0,7,12,object,10,10\n")
    with pytest.warns(UserWarning, match="clamped"):
        recs = load_annotations(p)
    assert recs[0].gts.boxes.tolist() == [[0.0, 0.0, 7.0, 10.0]]


def test_load_clamped_coordinates_stay_floats(tmp_path):
    # min(x, w) with the int image width would make the clamped x2 an int
    p = _write(tmp_path, "b,10,10,200,30,object,100,100\n")
    with pytest.warns(UserWarning, match="clamped"):
        recs = load_annotations(p)
    (box,) = (g.box for g in recs[0].gts)
    assert box.as_tuple() == (10.0, 10.0, 100.0, 30.0)
    assert all(type(v) is float for v in box.as_tuple())


@pytest.mark.parametrize(
    "field, value",
    [("x1", "nan"), ("y1", "NaN"), ("x2", "inf"), ("y2", "-inf"), ("x2", "Infinity")],
)
def test_load_rejects_non_finite_coordinate(tmp_path, field, value):
    # a nan would otherwise be clamped to 0 and an inf to the image size
    row = dict(zip(("x1", "y1", "x2", "y2"), ("10", "10", "20", "30")), **{field: value})
    p = _write(
        tmp_path,
        "a,1,1,5,5,object,100,100\n"
        f"b,{row['x1']},{row['y1']},{row['x2']},{row['y2']},object,100,100\n",
    )
    with pytest.raises(AnnotationError, match=rf"line 2: field {field} is not finite"):
        load_annotations(p)


def test_load_rejects_degenerate_after_clamp(tmp_path):
    p = _write(
        tmp_path,
        "a.jpg,20,20,30,30,object,10,10\n"
        "a.jpg,1,1,5,5,object,10,10\n",
    )
    with pytest.warns(UserWarning, match="rejected"):
        recs = load_annotations(p)
    assert len(recs[0].gts) == 1


def test_load_malformed_row_names_line_and_field(tmp_path):
    p = _write(tmp_path, "a.jpg,1,1,5,5,object,10,10\nb.jpg,oops,1,5,5,object,10,10\n")
    with pytest.raises(AnnotationError, match=r"line 2.*x1"):
        load_annotations(p)
    p = _write(tmp_path, "a.jpg,1,1,5,5,object,10\n", name="short.csv")
    with pytest.raises(AnnotationError, match="expected 8 fields"):
        load_annotations(p)
    p = _write(tmp_path, "a.jpg,1,1,5,5,object,10,zero\n", name="dim.csv")
    with pytest.raises(AnnotationError, match="image_height"):
        load_annotations(p)
    # a class_<k> label beyond the int64 GT label array
    p = _write(
        tmp_path,
        "a.jpg,1,1,5,5,class_9223372036854775807,10,10\n"
        "b.jpg,1,1,5,5,class_100000000000000000000000,10,10\n",
        name="label.csv",
    )
    with pytest.raises(AnnotationError, match="line 2: class 'class_1000.*int64"):
        load_annotations(p)


def test_load_conflicting_dims_error(tmp_path):
    p = _write(
        tmp_path,
        "a.jpg,1,1,5,5,object,10,10\na.jpg,1,1,5,5,object,20,20\n",
    )
    with pytest.raises(AnnotationError, match="conflicting dims"):
        load_annotations(p)


def test_row_count_conservation(tmp_path):
    rows = [f"im{i % 7}.jpg,{j},{j},{j + 2},{j + 3},object,100,100"
            for i, j in enumerate(range(0, 40, 2))]
    p = _write(tmp_path, "\n".join(rows) + "\n")
    recs = load_annotations(p)
    assert sum(len(r.gts) for r in recs) == len(rows)


def test_save_load_roundtrip(tmp_path):
    spec = SceneSpec(grid_rows=3, grid_cols=4, jitter=1.5, overlap_factor=0.3, seed=9)
    recs = generate_synthetic_dataset(4, spec, seed=11)
    p = tmp_path / "out.csv"
    save_annotations(recs, p)
    back = load_annotations(p)
    assert [r.image_id for r in back] == [r.image_id for r in recs]
    for a, b in zip(recs, back):
        assert a.width == b.width and a.height == b.height
        assert len(a.gts) == len(b.gts)
        for ga, gb in zip(a.gts, b.gts):
            assert ga.box.as_tuple() == gb.box.as_tuple()
        assert a.occlusion == pytest.approx(b.occlusion)


def test_save_load_roundtrip_keeps_labels(tmp_path):
    # label k is written as class_<k> (0 as object) and read back as k,
    # whatever order the labels first appear in
    gts = tuple(GroundTruth(Box(1, 1 + 3 * k, 5, 3 + 3 * k), k) for k in (2, 1, 0))
    recs = [ImageRecord("a", 20, 20, gts[:2]), ImageRecord("b", 20, 20, gts[2:])]
    p = tmp_path / "out.csv"
    save_annotations(recs, p)
    assert [[g.label for g in r.gts] for r in load_annotations(p)] == [[2, 1], [0]]


def test_load_numbers_other_class_names_by_first_appearance(tmp_path):
    p = _write(
        tmp_path,
        "a,1,1,3,3,dog,10,10\na,1,1,3,3,class_4,10,10\n"
        "a,1,1,3,3,object,10,10\na,1,1,3,3,cat,10,10\na,1,1,3,3,dog,10,10\n",
    )
    assert [g.label for g in load_annotations(p)[0].gts] == [1, 4, 0, 2, 1]


def test_load_rejects_two_class_names_of_one_id(tmp_path):
    p = _write(tmp_path, "a,1,1,3,3,cat,10,10\na,1,1,3,3,class_1,10,10\n")
    with pytest.raises(AnnotationError, match="line 2: class 'class_1'.*'cat'"):
        load_annotations(p)


def test_load_names_the_physical_line_after_a_quoted_newline(tmp_path):
    # a row read after one that spans lines 1-2 was reported as line 2
    p = _write(tmp_path, '"two\nlines",1,1,5,5,object,10,10\nb,1,1,x,5,object,10,10\n')
    with pytest.raises(AnnotationError, match=r"^line 3: field x2 is not numeric: 'x'$"):
        load_annotations(p)


def test_load_header_after_blank_lines(tmp_path):
    # the header on line 2 was read as a row: "line 2: field x1 is not numeric"
    p = _write(tmp_path, "\n  \nimage_name,x1,y1,x2,y2,class,image_width,image_height\n"
                         "a.jpg,1,2,3,4,object,10,10\n")
    assert [r.image_id for r in load_annotations(p)] == ["a.jpg"]
    p = _write(tmp_path, "\nimage,x1,y1,x2,y2,class,image_width,image_height\n", "bad.csv")
    with pytest.raises(AnnotationError, match="^line 2: header must be "):
        load_annotations(p)


def test_load_header_after_a_byte_order_mark(tmp_path):
    # the mark was part of the first header name, which then did not match
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfimage_name,x1,y1,x2,y2,class,image_width,image_height\n"
                  b"a.jpg,1,2,3,4,object,10,10\n")
    assert [r.image_id for r in load_annotations(p)] == ["a.jpg"]


def _reference_load_annotations(path):
    """The row-by-row loader that ``load_annotations`` replaced, with the
    three fixes the column loader shares: a message names the physical line
    the row ends on (``reader.line_num``, not the row count), the header
    candidate is the first non-blank row, not the row of line 1, and a
    ``csv.Error`` is an ``AnnotationError`` naming its line."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        return _reference_rows(reader)
    except csv.Error as exc:
        raise AnnotationError(f"line {reader.line_num}: {exc}") from None


def _reference_rows(reader):
    label_ids: dict[str, int] = {}
    by_image: dict[str, dict] = {}
    first = True
    for row in reader:
        line_no = reader.line_num
        if not row or all(not c.strip() for c in row):
            continue
        if first and len(row) >= 2:
            try:
                float(row[1])
            except ValueError:
                if tuple(c.strip() for c in row) != CSV_COLUMNS:
                    raise AnnotationError(
                        f"line {line_no}: header must be {','.join(CSV_COLUMNS)}, "
                        f"got {','.join(row)}"
                    ) from None
                first = False
                continue
        first = False
        parsed = _parse_row(row, line_no)
        if parsed is None:
            continue
        name, box, cls, w, h = parsed
        label = _label_id(cls, label_ids, line_no)
        entry = by_image.setdefault(
            name, {"width": w, "height": h, "boxes": [], "labels": []}
        )
        if entry["width"] != w or entry["height"] != h:
            raise AnnotationError(
                f"line {line_no}: image {name} has conflicting dims "
                f"{w}x{h} vs {entry['width']}x{entry['height']}"
            )
        entry["boxes"].append(box)
        entry["labels"].append(label)
    return [
        ImageRecord(name, e["width"], e["height"], GroundTruths(e["boxes"], e["labels"]))
        for name, e in by_image.items()
    ]


def _outcome(load, path):
    """What ``load`` does on ``path``: its warnings' texts in order, then
    its records' bits, or the type and text of the error it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            recs = load(path)
        except Exception as exc:  # csv.Error too
            result = (type(exc), str(exc))
        else:
            result = [
                (r.image_id, r.width, r.height,
                 [(a.dtype, a.shape, a.tobytes()) for a in (r.gts.boxes, r.gts.labels)])
                for r in recs
            ]
    return [(w.category, str(w.message)) for w in caught], result


_COORDS = ["nan", "-inf", "inf", "Infinity", "x", "", "1_000", " 5 ", "-0.0", "1e1",
           "-3", "25", "0", "10"]
_DIMS = ["10", "10", "10", "20", " 10 ", "1_0", "0", "-3", "x", "1e1", str(2**53 + 1), "9" * 30]
_CLASSES = ["object", "object", "class_1", "class_2", " dog ", "cat", "",
            "class_9223372036854775807", "class_" + "1" * 20]
_NAMES = ["a", "a", "b", " a ", "c,d", 'q"x', "two\nlines", "a\x00", "", " "]
_RAW_LINES = ["", "", "  ", ",,,,,,,", "a,1,1,5", "a,1,1,5,5,object,10,10,9",
              ",".join(CSV_COLUMNS), "image_name,x1,y1,x2,y2"]


@st.composite
def _annotation_text(draw):
    """An annotation CSV of well-formed rows, most of them, and rows with
    faults: blank and raw lines, headers, clamped, degenerate and non-finite
    boxes, strings ``float()`` or ``int()`` refuses or takes oddly, dims of
    0 or beyond 2**53, conflicting dims, clashing class names and quoted
    newlines; lines end in LF or CRLF."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    end = writer.dialect.lineterminator
    if draw(st.booleans()):
        out.write(draw(st.sampled_from(_RAW_LINES[:3])) + end)
    if draw(st.booleans()):
        out.write(draw(st.sampled_from(_RAW_LINES[-2:] + [" image_name , x1,y1,x2,y2,"
                                                           "class,image_width,image_height "])) + end)
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            out.write(draw(st.sampled_from(_RAW_LINES)) + end)
            continue
        x1, y1 = draw(st.floats(-2, 11)), draw(st.floats(-2, 11))
        box = [x1, y1, x1 + draw(st.floats(-1, 8)), y1 + draw(st.floats(-1, 8))]
        row = [draw(st.sampled_from(_NAMES[:3])), *map(repr, box),
               draw(st.sampled_from(_CLASSES[:3])), "10", "10"]
        if kind <= 3:  # one field out of the menus
            i = draw(st.integers(0, 7))
            menu = (_NAMES if i == 0 else _CLASSES if i == 5 else
                    _DIMS if i > 5 else _COORDS)
            row[i] = draw(st.sampled_from(menu))
        writer.writerow(row)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(text=_annotation_text(), block=st.sampled_from([1, 2, 3, 1024]))
def test_load_annotations_matches_reference_loader(tmp_path_factory, text, block):
    """The column loader equals the row-by-row loader on any text and any
    block size: the same warning texts in the same order, then records
    and GT arrays equal bit for bit, or the same first error."""
    path = tmp_path_factory.getbasetemp() / "reference.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = _outcome(_reference_load_annotations, path)
    with mock.patch.object(data_module, "_BLOCK_ROWS", block):
        assert _outcome(load_annotations, path) == want


@pytest.mark.parametrize(
    "text",
    [
        # names that differ only by a trailing NUL, which a numpy string drops
        "a,1,1,5,5,object,10,10\na\x00,1,1,5,5,object,10,10\n",
        # conflicting dims before a class clash, with and without a clamped row
        "a,1,1,5,5,cat,10,10\na,1,1,5,5,object,20,20\nb,1,1,5,5,class_1,10,10\n",
        "a,-1,1,5,5,cat,10,10\na,1,1,5,5,object,20,20\nb,1,1,5,5,class_1,10,10\n",
        # a clash after a clean row of a new image, and on a clamped row
        "a,1,1,5,5,cat,10,10\nb,1,1,5,5,object,20,20\nb,1,1,5,5,class_1,20,20\n",
        "a,1,1,5,5,cat,10,10\nb,1,1,5,5,object,20,20\nb,1,1,25,5,class_1,20,20\n",
        # a degenerate row's class gets no label
        "a,1,1,1,5,cat,10,10\na,1,1,5,5,dog,10,10\na,1,1,5,5,class_1,10,10\n",
        # -0.0 is kept as its clamp, 0.0
        "a,-0.0,1,5,5,object,10,10\na,1,-0.0,5,5,object,10,10\n",
        # dims beyond float range fail in the clamp, after the warning before
        f"a,-1,1,5,5,object,10,10\nb,1,1,5,5,object,{'9' * 400},10\n",
    ],
    ids=["nul-name", "dims-before-clash", "dims-before-clash-clamped", "clash-new-image",
         "clash-clamped", "degenerate-class", "minus-zero", "dims-beyond-float"],
)
def test_load_annotations_matches_reference_on_fixed_cases(tmp_path, text):
    path = _write(tmp_path, text)
    for block in (1, 2, 1024):
        with mock.patch.object(data_module, "_BLOCK_ROWS", block):
            assert _outcome(load_annotations, path) == _outcome(
                _reference_load_annotations, path
            )


def test_load_annotations_matches_reference_across_full_blocks(tmp_path):
    """Clamped and degenerate rows on either side of the 1,024-row block
    edges, then conflicting dims, a class clash or a field beyond the csv
    module's limit: an error comes only after every row before it is
    checked."""
    spec = SceneSpec(grid_rows=10, grid_cols=15, overlap_factor=0.4, seed=3)
    recs = generate_synthetic_dataset(17, spec, seed=3)
    path = tmp_path / "dense.csv"
    save_annotations(recs, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for i in (1023, 1024, 1025, 1026, 2049):
        name, *_, w, h = lines[i].split(",")
        lines[i] = f"{name},{3 if i == 1026 else -1},2,3,6,object,{w},{h}"
    clean = "\n".join(lines) + "\n"
    dims, clash = list(lines), list(lines)
    dims[1500] = dims[1500].split(",")[0] + ",1,1,5,5,object,10,10"
    clash[1600] = clash[1600].replace(",object,", ",class_0,")
    huge = "z," + "9" * 140_000 + "\n"  # beyond csv's field limit
    cases = [clean, "\n".join(dims) + "\n", "\n".join(clash) + "\n", clean + huge]
    for text in cases:
        path.write_text(text, encoding="utf-8")
        want = _outcome(_reference_load_annotations, path)
        assert _outcome(load_annotations, path) == want
    assert want[1][0] is AnnotationError and len(want[0]) == 5
    assert want[1][1] == f"line {len(lines) + 1}: field larger than field limit (131072)"


@pytest.mark.parametrize(
    "row, message",
    [("z," + "9" * 140_000, "line 3: field larger than field limit (131072)"),
     ("b,1,1,5,5,object," + "9" * 400 + ",10", "line 3: field image_width must be <= 2**53"),
     (f"b,1,1,5,5,object,10,{2**53 + 1}", "line 3: field image_height must be <= 2**53")],
    ids=["field-beyond-csv-limit", "width-beyond-float-range", "height-beyond-2**53"],
)
def test_load_refuses_a_field_beyond_its_limit_naming_the_line(tmp_path, row, message):
    """A field the csv module refuses raised its bare csv.Error, and dims
    beyond float range an OverflowError in the clamp: both exited 4."""
    path = _write(tmp_path, f"a,1,1,5,5,object,10,10\n\n{row}\n")
    with pytest.raises(AnnotationError, match=f"^{re.escape(message)}$"):
        load_annotations(path)


def _records(n):
    return [
        ImageRecord(f"im{i:04d}", 100, 100, (GroundTruth(Box(1, 1, 9, 9)),))
        for i in range(n)
    ]


def test_split_paper_sizes():
    recs = _records(10000)
    s = select_and_split(recs, 2000, 8000, seed=1)
    assert (len(s.train), len(s.val), len(s.test)) == (1400, 200, 400)
    assert len(s.unlabeled_pool) == 8000


def test_split_small_floor_rule():
    recs = _records(10)
    s = select_and_split(recs, 10, 0, seed=1)
    assert (len(s.train), len(s.val), len(s.test)) == (7, 1, 2)


def test_split_zero_labeled_error():
    with pytest.raises(ValueError):
        select_and_split(_records(5), 0, 0)


def test_split_insufficient_records_error():
    with pytest.raises(ValueError, match="need 30 .* 10 available"):
        select_and_split(_records(10), 20, 10)


def test_split_bad_fractions():
    with pytest.raises(ValueError, match="sum to 1"):
        select_and_split(_records(10), 5, 0, fractions=(0.5, 0.2, 0.2))


@pytest.mark.parametrize(
    "fractions",
    [(0.7, 0.3, math.nan), (math.nan, 0.3, 0.7), (math.inf, 0.3, -math.inf)],
)
def test_split_refuses_non_finite_fractions(fractions):
    # NaN fails every comparison, so it passed the sum check and left a
    # 0-image test set (or, first, failed on converting NaN to an integer)
    with pytest.raises(ValueError, match="^fractions must be three finite shares >= 0"):
        select_and_split(_records(10), 5, 0, fractions=fractions)


def test_split_partition_and_determinism_many_seeds():
    recs = _records(60)
    for seed in range(100):
        s = select_and_split(recs, 30, 20, seed=seed)
        all_labeled = set(s.train) | set(s.val) | set(s.test)
        assert len(s.train) + len(s.val) + len(s.test) == 30
        assert len(all_labeled) == 30
        assert all_labeled.isdisjoint(s.unlabeled_pool)
        assert len(set(s.unlabeled_pool)) == 20
        again = select_and_split(recs, 30, 20, seed=seed)
        assert again == s


def test_split_seed_changes_selection():
    recs = _records(100)
    a = select_and_split(recs, 40, 40, seed=0)
    b = select_and_split(recs, 40, 40, seed=1)
    assert a != b


def test_split_serialization_roundtrip():
    s = select_and_split(_records(20), 10, 5, seed=3)
    assert from_dict(DatasetSplit, json.loads(json.dumps(asdict(s)))) == s


def test_scene_grid_count():
    rec = generate_synthetic_scene(SceneSpec(3, 3, jitter=0.0, seed=1))
    assert len(rec.gts) == 9


def test_scene_disjoint_when_no_overlap():
    rec = generate_synthetic_scene(SceneSpec(4, 5, jitter=0.0, overlap_factor=0.0, seed=1))
    gts = list(rec.gts)
    for i, a in enumerate(gts):
        for b in gts[i + 1:]:
            assert iou(a.box, b.box) == 0.0
    assert all(o == 0.0 for o in rec.occlusion)


def test_scene_overlap_factor_induces_overlap():
    rec = generate_synthetic_scene(SceneSpec(3, 3, jitter=0.0, overlap_factor=0.4, seed=1))
    assert min(rec.occlusion) > 0.0
    # horizontal neighbors share 0.4*w, IoU = 0.4/(2-0.4)
    a, b = (g.box for g in list(rec.gts)[:2])
    assert iou(a, b) == pytest.approx(0.4 / 1.6, abs=1e-9)


def test_scene_determinism():
    spec = SceneSpec(4, 4, jitter=2.0, overlap_factor=0.3, seed=77)
    r1 = generate_synthetic_scene(spec)
    r2 = generate_synthetic_scene(spec)
    assert r1 == r2


def test_scene_boxes_inside_image():
    rec = generate_synthetic_scene(SceneSpec(5, 5, jitter=8.0, overlap_factor=0.5, seed=3))
    for g in rec.gts:
        assert 0 <= g.box.x1 and g.box.x2 <= rec.width
        assert 0 <= g.box.y1 and g.box.y2 <= rec.height


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(0, 3)
    with pytest.raises(ValueError):
        SceneSpec(3, 3, jitter=-1)
    with pytest.raises(ValueError):
        SceneSpec(3, 3, overlap_factor=1.0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SceneSpec(3, 3, seed=-1)
    # inf once overflowed mid-generation, and nan failed on an int cast
    for field in ("box_w", "box_h", "jitter"):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SceneSpec(3, 3, **{field: value})
    # math.isfinite raises OverflowError on an int beyond float range
    with pytest.raises(ValueError, match="box_w must be finite, got an int beyond float"):
        SceneSpec(3, 3, box_w=10**400)


def test_dataset_count_and_ids():
    recs = generate_synthetic_dataset(5, SceneSpec(2, 2, seed=0), seed=5)
    assert len(recs) == 5
    assert len({r.image_id for r in recs}) == 5


def test_dataset_determinism():
    spec = SceneSpec(3, 4, jitter=1.0, overlap_factor=0.2)
    a = generate_synthetic_dataset(6, spec, seed=42)
    b = generate_synthetic_dataset(6, spec, seed=42)
    assert a == b
    c = generate_synthetic_dataset(6, spec, seed=43)
    assert a != c


def test_dataset_count_conservation():
    recs = generate_synthetic_dataset(100, SceneSpec(10, 15, jitter=0.5), seed=2)
    assert sum(len(r.gts) for r in recs) == 15000


def test_dataset_density_variation():
    recs = generate_synthetic_dataset(
        20, SceneSpec(3, 3), seed=7, row_range=(2, 5), col_range=(2, 5)
    )
    counts = {len(r.gts) for r in recs}
    assert len(counts) > 1
    for r in recs:
        assert 4 <= len(r.gts) <= 25


def test_dataset_n_images_validation():
    with pytest.raises(ValueError):
        generate_synthetic_dataset(0, SceneSpec(2, 2))
    # numpy's generators refuse a negative seed without naming it
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        generate_synthetic_dataset(2, SceneSpec(2, 2), seed=-1)


@pytest.mark.parametrize(
    "ranges, name",
    [({"row_range": (5, 3)}, "row_range"), ({"col_range": (0, 2)}, "col_range"),
     ({"row_range": (2, 3), "col_range": (-1, 4)}, "col_range"),
     ({"row_range": (1.5, 3)}, "row_range"), ({"col_range": (2, True)}, "col_range")],
)
def test_dataset_grid_range_validation(ranges, name):
    """A range is checked before any scene is drawn: (5, 3) failed with
    numpy's bare "low >= high", a 0 only when a scene drew it, and a bound
    that is no integer drew grid sizes from integers(1.5, 4)."""
    with pytest.raises(ValueError, match=rf"^{name} must be \[lo, hi\] with 1 <= lo <= hi"):
        generate_synthetic_dataset(2, SceneSpec(3, 3), seed=0, **ranges)


def test_mean_neighbor_iou_monotone_in_overlap():
    # statistical: mean occlusion level, averaged over seeds at each overlap
    levels = [0.0, 0.2, 0.4, 0.6]
    means = []
    for ov in levels:
        vals = [
            np.mean(
                generate_synthetic_scene(
                    SceneSpec(4, 4, jitter=1.0, overlap_factor=ov, seed=s)
                ).occlusion
            )
            for s in range(10)
        ]
        means.append(np.mean(vals))
    for a, b in zip(means, means[1:]):
        assert b > a - 1e-9


def test_occlusion_levels_lone_box():
    assert occlusion_levels(corners([Box(0, 0, 1, 1)])).tolist() == [0.0]
    assert occlusion_levels(np.empty((0, 4))).shape == (0,)


def test_record_built_without_occlusion_carries_its_levels():
    gts = (
        GroundTruth(Box(0, 0, 10, 10)),
        GroundTruth(Box(5, 0, 15, 10)),
        GroundTruth(Box(40, 40, 50, 50)),
    )
    rec = ImageRecord("x", 60, 60, gts)
    assert "occlusion" not in vars(rec)  # computed on first read, then kept
    assert np.array_equal(rec.occlusion, occlusion_levels(corners([g.box for g in gts])))
    assert rec.occlusion is rec.occlusion
    with pytest.raises(TypeError):
        ImageRecord("x", 60, 60, gts, occlusion=np.zeros(3))
    assert rec.occlusion[0] == pytest.approx(1 / 3) and rec.occlusion[2] == 0.0
    assert ImageRecord("empty", 10, 10, ()).occlusion.shape == (0,)


def test_record_occlusion_is_computed_once_without_a_lock(monkeypatch):
    calls = []

    def counted(boxes):
        calls.append(len(boxes))
        return occlusion_levels(boxes)

    monkeypatch.setattr(data_module, "occlusion_levels", counted)
    # a plain property: functools.cached_property locks on a first read
    assert type(vars(ImageRecord)["occlusion"]) is property
    gts = (GroundTruth(Box(0, 0, 10, 10)), GroundTruth(Box(5, 0, 15, 10)))
    rec = ImageRecord("x", 60, 60, gts)
    first = rec.occlusion
    assert rec.occlusion is first
    assert calls == [2]
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1.0


def test_record_gt_arrays_are_read_only_and_outside_equality():
    gts = (GroundTruth(Box(0, 0, 10, 10)), GroundTruth(Box(5, 0, 15, 10.5), 2))
    rec = ImageRecord("x", 60, 60, gts)
    assert isinstance(rec.gts, GroundTruths) and list(rec.gts) == list(gts)
    assert rec.gts.boxes.tolist() == [[0, 0, 10, 10], [5, 0, 15, 10.5]]
    assert rec.gts.boxes.dtype == float and rec.gts.labels.dtype == np.int64
    assert rec.gts.labels.tolist() == [0, 2]
    for a in (rec.gts.boxes, rec.gts.labels, rec.occlusion):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    empty = ImageRecord("e", 10, 10, ())
    assert empty.gts.boxes.shape == (0, 4) and empty.gts.labels.shape == (0,)
    # equality and hashing read the GT columns by value; the occlusion
    # levels are a function of the boxes, so they are left out
    key = (rec.image_id, rec.width, rec.height, rec.gts, rec.labeled)
    assert hash(rec) == hash(key)
    assert [f.name for f in fields(rec) if f.compare] == [
        "image_id", "width", "height", "gts", "labeled"
    ]
    twin = ImageRecord("x", 60, 60, tuple(gts))
    assert twin == rec and hash(twin) == hash(rec) and twin.gts.boxes is not rec.gts.boxes
    assert np.array_equal(twin.occlusion, rec.occlusion)
    assert ImageRecord("x", 60, 60, gts[:1]) != rec
    assert ImageRecord("x", 60, 60, (gts[0], GroundTruth(gts[1].box, 1))) != rec
    assert ImageRecord("x", 60, 60, rec.gts).gts is rec.gts  # a batch is held as it is


def test_image_record_validates_bounds():
    with pytest.raises(ValueError, match="outside"):
        ImageRecord("x", 10, 10, (GroundTruth(Box(5, 5, 15, 9)),))
    with pytest.raises(ValueError, match="positive"):
        ImageRecord("x", 0, 10, ())


def test_image_record_refuses_a_gt_label_the_int64_cast_would_change():
    # an unchecked int64 cast would truncate 1.5 to 1
    gts = (GroundTruth(Box(1, 1, 2, 2), 0), GroundTruth(Box(1, 1, 2, 2), 1.5))
    with pytest.raises(ValueError, match=r"^im: GT 1 label 1\.5 is not an integer$"):
        ImageRecord("im", 10, 10, gts)
    with pytest.raises(ValueError, match=r"^GT 0 label 1\.5 is not an integer$"):
        ImageRecord("im", 10, 10, GroundTruths([[1, 1, 2, 2]], [1.5]))


_OK = [1.0, 1.0, 5.0, 5.0]


@pytest.mark.parametrize(
    "boxes, labels, message",
    [
        ([_OK, [math.nan, 1, 5, 5]], [0, 0], "GT 1 box (nan, 1.0, 5.0, 5.0) is not finite"),
        ([[1, 1, 5, math.nan]], [0], "GT 0 box (1.0, 1.0, 5.0, nan) is not finite"),
        ([[1, 1, math.inf, 5]], [0], "GT 0 box (1.0, 1.0, inf, 5.0) is not finite"),
        ([[-math.inf, 1, 5, 5]], [0], "GT 0 box (-inf, 1.0, 5.0, 5.0) is not finite"),
        ([_OK, [5, 1, 5, 5]], [0, 0], "GT 1 box (5.0, 1.0, 5.0, 5.0) is degenerate"),
        ([[1, 5, 5, 4]], [0], "GT 0 box (1.0, 5.0, 5.0, 4.0) is degenerate"),
        ([_OK, _OK, [1, 1, 12, 5], [1, 1, 0, 5]], [0] * 4,
         "GT 2 box (1.0, 1.0, 12.0, 5.0) outside [0,10]x[0,10]"),
        ([[-1, 1, 5, 5]], [0], "GT 0 box (-1.0, 1.0, 5.0, 5.0) outside [0,10]x[0,10]"),
        ([[1, 1, 5, 10.5]], [0], "GT 0 box (1.0, 1.0, 5.0, 10.5) outside [0,10]x[0,10]"),
        (_OK, [0], "GT columns must be boxes (n, 4) and labels (n,), got (4,) and (1,)"),
        ([[1, 1, 5]], [0], "GT columns must be boxes (n, 4) and labels (n,), got (1, 3)"),
        ([_OK], [0, 0], "GT columns must be boxes (n, 4) and labels (n,), got (1, 4) and (2,)"),
        ([_OK], [[0]], "GT columns must be boxes (n, 4) and labels (n,), got (1, 4) and (1, 1)"),
    ],
    ids=["nan-x1", "nan-y2", "inf-x2", "minus-inf-x1", "x2-equals-x1", "y2-below-y1",
         "first-of-two-outside", "x1-negative", "y2-beyond-height", "flat-boxes",
         "three-corners", "labels-too-long", "labels-2d"],
)
def test_image_record_refuses_bad_gt_columns(boxes, labels, message):
    """A ``GroundTruths`` given to a record skips ``Box``'s checks, so the
    record's own check refuses each bad GT, naming the image and the first."""
    gts = GroundTruths(np.array(boxes, dtype=float), np.array(labels))
    with pytest.raises(ValueError, match="^" + re.escape(f"im: {message}")):
        ImageRecord("im", 10, 10, gts)


def _reference_scene(spec: SceneSpec, image_id: str) -> ImageRecord:
    """The scalar scene loop: each GT's two normal draws, its clamp and its
    ``Box`` and ``GroundTruth``, the record built from the objects."""
    pitch_x = spec.box_w * (1.0 - spec.overlap_factor)
    pitch_y = spec.box_h * (1.0 - spec.overlap_factor)
    margin_x = spec.box_w * 0.5 + 4.0 * spec.jitter
    margin_y = spec.box_h * 0.5 + 4.0 * spec.jitter
    width = int(math.ceil(2 * margin_x + pitch_x * (spec.grid_cols - 1) + spec.box_w))
    height = int(math.ceil(2 * margin_y + pitch_y * (spec.grid_rows - 1) + spec.box_h))
    rng = np.random.default_rng(spec.seed)
    gts = []
    for r in range(spec.grid_rows):
        for c in range(spec.grid_cols):
            x = margin_x + c * pitch_x
            y = margin_y + r * pitch_y
            if spec.jitter > 0:
                x += rng.normal(0.0, spec.jitter)
                y += rng.normal(0.0, spec.jitter)
            x = min(max(x, 0.0), width - spec.box_w)
            y = min(max(y, 0.0), height - spec.box_h)
            gts.append(GroundTruth(Box(x, y, x + spec.box_w, y + spec.box_h)))
    return ImageRecord(image_id, width, height, tuple(gts))


def _same_bits(a: ImageRecord, b: ImageRecord) -> bool:
    arrays = ((a.gts.boxes, b.gts.boxes), (a.gts.labels, b.gts.labels),
              (a.occlusion, b.occlusion))
    return (a == b and hash(a) == hash(b)
            and all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in arrays))


def _check_scene_against_references(spec: SceneSpec, tmp) -> None:
    rec = generate_synthetic_scene(spec, "s")
    assert _same_bits(rec, _reference_scene(spec, "s"))
    first, second = tmp / "first.csv", tmp / "second.csv"
    save_annotations([rec], first)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing is clamped or dropped
        (loaded,) = load_annotations(first)
    assert _same_bits(loaded, rec)
    rebuilt = ImageRecord(loaded.image_id, loaded.width, loaded.height, tuple(loaded.gts))
    assert _same_bits(rebuilt, loaded)
    save_annotations([loaded], second)
    assert second.read_bytes() == first.read_bytes()


_SCENE_SPECS = st.builds(
    SceneSpec,
    grid_rows=st.integers(1, 7),
    grid_cols=st.integers(1, 7),
    box_w=st.floats(0.5, 120.0),
    box_h=st.floats(0.5, 120.0),
    jitter=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    overlap_factor=st.one_of(
        st.just(0.0), st.floats(0.0, 0.999), st.just(math.nextafter(1.0, 0.0))
    ),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(_SCENE_SPECS)
def test_scene_matches_scalar_reference_and_round_trips(tmp_path_factory, spec):
    """Generated records equal the scalar loop's bit for bit, with equal
    hashes; so do loaded records and records rebuilt from their
    ``GroundTruth`` objects, and save, load, save writes the same bytes."""
    _check_scene_against_references(spec, tmp_path_factory.mktemp("scene"))


@pytest.mark.parametrize("seed, edge", [(30, "low"), (232, "high")])
def test_scene_clamped_at_an_edge_matches_scalar_reference(tmp_path, seed, edge):
    # seeds whose jitter passes the 4-sigma margin and is clamped to the image
    spec = SceneSpec(30, 30, box_w=2.0, box_h=2.0, jitter=5.0, overlap_factor=0.99, seed=seed)
    rec = generate_synthetic_scene(spec)
    limit = [0.0, 0.0] if edge == "low" else [rec.width - 2.0, rec.height - 2.0]
    assert (rec.gts.boxes[:, :2] == limit).any()
    _check_scene_against_references(spec, tmp_path)


def test_manifest_written(tmp_path):
    p = tmp_path / "m.json"
    write_manifest(p, 5, SceneSpec(3, 4, overlap_factor=0.4), seed=9)
    d = json.loads(p.read_text())
    assert d["n_images"] == 5
    assert d["seed"] == 9
    # the spec's own seed is not written: the top-level seed is the one seed
    assert d["scene_spec"] == {
        "grid_rows": 3, "grid_cols": 4, "box_w": 48.0, "box_h": 64.0,
        "jitter": 2.0, "overlap_factor": 0.4,
    }


def test_split_timing():
    import time

    recs = _records(10000)
    t0 = time.perf_counter()
    select_and_split(recs, 2000, 8000, seed=0)
    assert time.perf_counter() - t0 < 1.0
