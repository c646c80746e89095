"""Evaluation protocols vs exhaustive scalar oracles."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedistill.config import RunConfig
from densedistill.container import write_tensor
from densedistill.errors import DegenerateInputError, EvaluationError, ParameterError, ShapeError
from densedistill.evalsuite import (
    AblationReport,
    ClassEmbeddings,
    VariantMetrics,
    ablation_coupled_vs_decoupled,
    add_confusion,
    add_region_confusion,
    class_prototypes,
    confusion_matrix,
    load_class_embeddings,
    macc_from_confusion,
    miou,
    region_classify,
    regions_from_labels,
    save_class_embeddings,
    segment_training_free,
    top1_macc,
)
from densedistill import trainer
from densedistill.regions import CropBox, FULL_BOX, sample_grid
from densedistill.synthdata import _split_rects, make_classes, make_sample, make_suite
from densedistill.tensor import Tensor
from densedistill.trainer import STREAM_STEP, Distiller
from densedistill.vit import DenseFeatures


def unit_rows(rng, k, e):
    v = rng.standard_normal((k, e))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def dense_of(tokens, grid):
    arr = np.asarray(tokens, dtype=np.float64)
    return DenseFeatures(tokens=Tensor(arr), grid=grid)


# --- segment_training_free -------------------------------------------------------

def test_segment_recovers_exact_classes():
    rng = np.random.default_rng(0)
    vectors = unit_rows(rng, 3, 5)
    gt = rng.integers(0, 3, size=(2, 2))
    dense = dense_of(vectors[gt.reshape(-1)], (2, 2))
    classes = ClassEmbeddings(names=list("abc"), vectors=vectors)
    seg = segment_training_free(dense, classes, out_res=2)
    np.testing.assert_array_equal(seg.labels, gt)
    np.testing.assert_array_equal(seg.upsampled, gt)


def test_segment_antipodal_classes():
    v = np.zeros((2, 4))
    v[0, 0], v[1, 0] = 1.0, -1.0
    classes = ClassEmbeddings(names=["pos", "neg"], vectors=v)
    dense = dense_of(np.tile(v[0] * 3.0, (4, 1)), (2, 2))
    seg = segment_training_free(dense, classes, out_res=4)
    assert (seg.labels == 0).all() and (seg.upsampled == 0).all()
    np.testing.assert_allclose(seg.scores[0], 1.0)
    np.testing.assert_allclose(seg.scores[1], -1.0)


def test_segment_matches_per_pixel_oracle():
    rng = np.random.default_rng(1)
    vectors = unit_rows(rng, 3, 6)
    feats = rng.standard_normal((16, 6))
    dense = dense_of(feats, (4, 4))
    classes = ClassEmbeddings(names=list("abc"), vectors=vectors)
    seg = segment_training_free(dense, classes, out_res=4)
    for i in range(16):
        best, best_cos = None, -2.0
        for k in range(3):
            c = float(feats[i] @ vectors[k]) / np.linalg.norm(feats[i])
            if c > best_cos:
                best, best_cos = k, c
            assert abs(seg.scores[k, i // 4, i % 4] - c) < 1e-9
        assert seg.labels[i // 4, i % 4] == best


def test_segment_rescale_invariance():
    rng = np.random.default_rng(2)
    vectors = unit_rows(rng, 3, 5)
    feats = rng.standard_normal((9, 5))
    classes = ClassEmbeddings(names=list("abc"), vectors=vectors)
    a = segment_training_free(dense_of(feats, (3, 3)), classes, 3).labels
    scales = rng.uniform(0.1, 7.0, (9, 1))
    b = segment_training_free(dense_of(feats * scales, (3, 3)), classes, 3).labels
    np.testing.assert_array_equal(a, b)


def test_segment_validation():
    rng = np.random.default_rng(3)
    classes = ClassEmbeddings(names=["a", "b"], vectors=unit_rows(rng, 2, 4))
    with pytest.raises(ParameterError):
        segment_training_free(dense_of(np.ones((4, 4)), (2, 2)), classes, out_res=1)
    feats = np.ones((4, 4))
    feats[2] = 0.0
    with pytest.raises(DegenerateInputError, match="dense features"):
        segment_training_free(dense_of(feats, (2, 2)), classes, out_res=2)


# --- miou -------------------------------------------------------------------------

def test_miou_perfect():
    gt = np.array([[0, 1], [2, 1]])
    score, table = miou(gt, gt, 3)
    assert score == 1.0 and set(table) == {0, 1, 2}


def test_miou_hand_confusion():
    gt = np.array([[0, 0], [1, 1]])
    pred = np.array([[0, 1], [1, 1]])
    score, table = miou(pred, gt, 2)
    assert abs(table[0] - 0.5) < 1e-12
    assert abs(table[1] - 2 / 3) < 1e-12
    assert abs(score - 7 / 12) < 1e-12


def test_miou_disjoint_zero():
    gt = np.array([[0, 0], [1, 1]])
    pred = np.array([[1, 1], [0, 0]])
    assert miou(pred, gt, 2)[0] == 0.0


def test_miou_relabel_invariance():
    rng = np.random.default_rng(4)
    gt = rng.integers(0, 4, (6, 6))
    pred = rng.integers(0, 4, (6, 6))
    perm = rng.permutation(4)
    a = miou(pred, gt, 4)[0]
    b = miou(perm[pred], perm[gt], 4)[0]
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("bad", [3, 7, -1])
def test_out_of_range_labels_rejected(bad):
    gt = np.array([[0, 1], [2, bad]])
    with pytest.raises(ParameterError, match=f"label {bad} outside"):
        confusion_matrix(np.zeros_like(gt), gt, 3)
    with pytest.raises(ParameterError, match=f"label {bad} outside"):
        confusion_matrix(gt, np.zeros_like(gt), 3)
    if bad < 0:
        with pytest.raises(ParameterError):
            top1_macc([0, 1], [0, bad])


# --- region_classify -----------------------------------------------------------------

def test_region_pure_class_box():
    rng = np.random.default_rng(5)
    vectors = unit_rows(rng, 3, 4)
    feats = np.tile(vectors[2] * 2.0, (16, 1))
    dense = dense_of(feats, (4, 4))
    classes = ClassEmbeddings(names=list("abc"), vectors=vectors)
    labels = region_classify(dense, [CropBox(0.25, 0.25, 0.75, 0.75)], classes, n=2)
    assert labels.tolist() == [2]


def test_region_box_equals_full_mask_on_constant_map():
    rng = np.random.default_rng(6)
    vectors = unit_rows(rng, 2, 4)
    feats = np.tile(rng.standard_normal(4), (9, 1))
    dense = dense_of(feats, (3, 3))
    classes = ClassEmbeddings(names=["a", "b"], vectors=vectors)
    by_box = region_classify(dense, [FULL_BOX], classes, n=3)
    by_mask = region_classify(dense, [np.ones((3, 3), dtype=bool)], classes, n=3)
    assert by_box.tolist() == by_mask.tolist()


def test_region_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    vectors = unit_rows(rng, 3, 5)
    feats = rng.standard_normal((16, 5))
    dense = dense_of(feats, (4, 4))
    classes = ClassEmbeddings(names=list("abc"), vectors=vectors)
    masks = [np.zeros((4, 4), dtype=bool), np.zeros((4, 4), dtype=bool)]
    masks[0][:2] = True
    masks[1][2:, 1:] = True
    got = region_classify(dense, masks, classes)
    for mask, label in zip(masks, got):
        vec = feats[mask.reshape(-1)].mean(axis=0)
        cosines = [float(vec @ v) / np.linalg.norm(vec) for v in vectors]
        assert int(np.argmax(cosines)) == label


def test_region_one_pixel_box_equals_pixel():
    rng = np.random.default_rng(8)
    vectors = unit_rows(rng, 3, 4)
    feats = rng.standard_normal((9, 4))
    dense = dense_of(feats, (3, 3))
    classes = ClassEmbeddings(names=list("abc"), vectors=vectors)
    seg = segment_training_free(dense, classes, 3)
    box = CropBox(1 / 3, 2 / 3, 2 / 3, 1.0)  # pixel (row 2, col 1)
    label = region_classify(dense, [box], classes, n=1)[0]
    assert label == seg.labels[2, 1]


def test_region_empty_mask_rejected():
    rng = np.random.default_rng(9)
    dense = dense_of(rng.standard_normal((4, 3)), (2, 2))
    classes = ClassEmbeddings(names=["a", "b"], vectors=unit_rows(rng, 2, 3))
    with pytest.raises(DegenerateInputError):
        region_classify(dense, [np.zeros((2, 2), dtype=bool)], classes)
    with pytest.raises(ShapeError, match="does not match grid"):
        region_classify(dense, [np.ones((3, 2), dtype=bool)], classes)
    # a region whose features cancel has no direction to score
    dense = dense_of([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]], (2, 2))
    for region in ([[True, True], [False, False]], FULL_BOX):
        with pytest.raises(DegenerateInputError, match="zero-norm row in region vectors"):
            region_classify(dense, [region], classes, n=2)


@pytest.mark.parametrize("region", [FULL_BOX, np.ones((2, 2), dtype=bool)], ids=["box", "mask"])
def test_region_vector_whose_norm_overflows_is_refused(region):
    # one 1e200 token along class b: its region's mean is finite, but the
    # mean's square overflows, which once scored every class 0 and said "a"
    feats = np.zeros((4, 3))
    feats[:, 0] = 1.0
    feats[0, 1] = 1e200
    dense = dense_of(feats, (2, 2))
    classes = ClassEmbeddings(names=["a", "b"], vectors=np.eye(2, 3))
    with pytest.raises(EvaluationError, match="non-finite squared row norm in dense features"):
        segment_training_free(dense, classes, 2)
    with pytest.raises(EvaluationError, match="non-finite squared row norm in region vectors"):
        region_classify(dense, [region], classes, n=2)


def test_region_masks_are_connected_components():
    # a ring of label 1 around label-0 cells with an isolated label-1 centre
    seg = np.ones((5, 5), dtype=np.int32)
    seg[1:4, 1:4] = 0
    seg[2, 2] = 1
    regions = regions_from_labels(seg)
    assert [(lab, int(mask.sum())) for _, lab, mask in regions] == [(1, 16), (0, 8), (1, 1)]
    ring_box, _, ring = regions[0]
    assert ring_box == FULL_BOX and not ring[2, 2]
    assert (sum(mask.astype(int) for _, _, mask in regions) == 1).all()
    # the ring's features say class 0; the centre's, far larger, say class 1
    vectors = np.eye(3)
    feats = np.where(seg.reshape(-1, 1) == 1, vectors[0], vectors[2])
    feats[12] = 100.0 * vectors[1]
    classes = ClassEmbeddings(names=list("abc"), vectors=vectors)
    labels = region_classify(dense_of(feats, (5, 5)), [m for _, _, m in regions], classes)
    assert labels.tolist() == [0, 2, 1]


def _connected(mask):
    """Transitive closure of 4-adjacency over the mask's pixels is complete."""
    ys, xs = np.nonzero(mask)
    adj = (np.abs(ys[:, None] - ys[None]) + np.abs(xs[:, None] - xs[None])) <= 1
    reach = adj.astype(np.int64)
    for _ in range(int(np.ceil(np.log2(max(len(ys), 2))))):
        reach = np.minimum(reach @ reach, 1)
    return bool(reach.all())


def ndimage_regions(labels):
    """The same annotation through scipy's labeller: components of each value
    by ``ndimage.label`` (4-neighbour by default), boxes by ``find_objects``."""
    from scipy import ndimage

    h, w = labels.shape
    comp = np.zeros((h, w), dtype=np.int64)
    values = []
    for value in np.unique(labels):
        part, count = ndimage.label(labels == value)
        comp[part > 0] = part[part > 0] + len(values)
        values += [int(value)] * count
    ids, first = np.unique(comp, return_index=True)
    slices = ndimage.find_objects(comp)
    out = []
    for i in ids[np.argsort(first)]:
        ys, xs = slices[i - 1]
        out.append((CropBox(xs.start / w, ys.start / h, xs.stop / w, ys.stop / h),
                    values[i - 1], comp == i))
    return out


def serpentine(side):
    """A side x side map whose 1s are one path through every even row, the
    rows joined at alternate ends; the 0s between the rows are its walls."""
    labels = np.zeros((side, side), dtype=np.int64)
    labels[::2] = 1
    labels[1::4, -1] = 1
    labels[3::4, 0] = 1
    return labels


def label_maps(kind):
    """150 random or blocky maps up to 47 x 47, or the fill's longest paths:
    a 35 x 35 serpentine (the paper-shape token grid) by rows and by columns
    (which climbs back up), and 1 x N and N x 1 maps of one, two and three
    values."""
    rng = np.random.default_rng({"random": 17, "blocky": 18, "paths": 19}[kind])
    if kind == "paths":
        lines = [rng.integers(0, k, n) for k in (1, 2, 3) for n in (1, 47)]
        paths = [serpentine(35), serpentine(35).T]
        return paths + [line[None] for line in lines] + [line[:, None] for line in lines]
    maps = []
    for _ in range(150):
        h, w = (int(v) for v in rng.integers(1, 48, 2))
        k = int(rng.integers(1, 6))
        if kind == "random":
            labels = rng.integers(0, k, (h, w)).astype(rng.choice([np.int32, np.int64]))
        else:
            block = int(rng.integers(2, 12))
            coarse = rng.integers(0, k, (-(-h // block), -(-w // block)))
            labels = np.kron(coarse, np.ones((block, block), dtype=np.int64))[:h, :w]
        maps.append(labels)
    return maps


@pytest.mark.parametrize("kind", ["random", "blocky", "paths"])
def test_regions_from_labels_match_ndimage(kind):
    total = 0
    for labels in label_maps(kind):
        got, want = regions_from_labels(labels), ndimage_regions(labels)
        assert len(got) == len(want)
        for (box, lab, mask), (box2, lab2, mask2) in zip(got, want):
            assert box == box2 and all(type(v) is float for v in vars(box).values())
            assert lab == lab2 and type(lab) is int
            assert mask.dtype == mask2.dtype and np.array_equal(mask, mask2)
        total += len(got)
    assert total > (1000 if kind != "paths" else 30)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.integers(1, 9), st.integers(1, 9), st.integers(1, 4),
       st.integers(1, 3))
def test_regions_from_labels_properties(seed, h, w, k, block):
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, k, (-(-h // block), -(-w // block)))
    labels = np.kron(coarse, np.ones((block, block), dtype=np.int64))[:h, :w]
    regions = regions_from_labels(labels)
    masks = np.stack([mask for _, _, mask in regions])
    # the components partition the grid
    assert (masks.sum(axis=0) == 1).all()
    owner = masks.argmax(axis=0)
    firsts = []
    for box, lab, mask in regions:
        # one label each, 4-connected, boxed by its bounding rectangle
        assert isinstance(lab, int) and (labels[mask] == lab).all()
        assert _connected(mask)
        ys, xs = np.nonzero(mask)
        assert (box.x0, box.y0, box.x1, box.y1) == (
            xs.min() / w, ys.min() / h, (xs.max() + 1) / w, (ys.max() + 1) / h)
        firsts.append(int(np.flatnonzero(mask)[0]))
    # 4-adjacent pixels of equal label share a component
    same_x = labels[:, 1:] == labels[:, :-1]
    same_y = labels[1:] == labels[:-1]
    assert (owner[:, 1:][same_x] == owner[:, :-1][same_x]).all()
    assert (owner[1:][same_y] == owner[:-1][same_y]).all()
    # raster order of each component's first pixel
    assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)


# --- top1_macc -------------------------------------------------------------------------

def test_macc_all_correct():
    assert top1_macc([0, 1, 2], [0, 1, 2]) == 1.0


def test_macc_definition():
    pred = [0, 0, 1, 0]
    gt = [0, 0, 1, 1]
    assert abs(top1_macc(pred, gt) - 0.75) < 1e-12
    pred = [0, 0, 0, 0]
    gt = [0, 0, 1, 1]
    assert abs(top1_macc(pred, gt) - 0.5) < 1e-12


def test_macc_matches_tally_oracle():
    rng = np.random.default_rng(10)
    gt = rng.integers(0, 5, 200)
    pred = rng.integers(0, 5, 200)
    got = top1_macc(pred, gt)
    per_class = []
    for c in sorted(set(gt.tolist())):
        sel = gt == c
        per_class.append((pred[sel] == c).mean())
    assert abs(got - np.mean(per_class)) < 1e-12


def test_macc_order_invariance():
    rng = np.random.default_rng(11)
    gt = rng.integers(0, 3, 50)
    pred = rng.integers(0, 3, 50)
    perm = rng.permutation(50)
    assert top1_macc(pred, gt) == top1_macc(pred[perm], gt[perm])


def test_macc_empty_rejected():
    with pytest.raises(ParameterError):
        top1_macc([], [])


def test_add_confusion_takes_grid_or_image_labels():
    rng = np.random.default_rng(13)
    vectors = unit_rows(rng, 3, 4)
    dense = dense_of(rng.standard_normal((9, 4)), (3, 3))
    classes = ClassEmbeddings(names=list("abc"), vectors=vectors)
    seg = rng.integers(0, 3, (3, 3))
    cm = np.zeros((3, 3), dtype=np.int64)
    by_grid = add_confusion(cm, dense, classes, seg, out_res=6)
    by_image = add_confusion(cm, dense, classes, np.kron(seg, np.ones((2, 2), int)), out_res=6)
    np.testing.assert_array_equal(by_grid, by_image)
    assert by_grid.sum() == 36 and cm.sum() == 0
    with pytest.raises(ShapeError):
        add_confusion(cm, dense, classes, seg[:2], out_res=6)


def test_confusion_counts_add_across_images():
    # two images' region counts: image a gets both right, image b only class 1
    vectors = np.eye(2)
    classes = ClassEmbeddings(names=["a", "b"], vectors=vectors)
    dense_a = dense_of(np.repeat(vectors, 2, axis=0), (2, 2))
    dense_b = dense_of(np.tile(vectors[1], (4, 1)), (2, 2))
    top, bottom = CropBox(0.0, 0.0, 1.0, 0.5), CropBox(0.0, 0.5, 1.0, 1.0)
    cm = np.zeros((2, 2), dtype=np.int64)
    cm = add_region_confusion(cm, dense_a, classes, [top, bottom], [0, 1])
    cm = add_region_confusion(cm, dense_b, classes, [top, bottom], [0, 1])
    np.testing.assert_array_equal(cm, [[1, 1], [0, 2]])
    assert macc_from_confusion(cm) == 0.75 and type(macc_from_confusion(cm)) is float
    # classes absent from the ground truth do not enter the mean
    assert macc_from_confusion(np.array([[0, 0, 0], [0, 3, 1], [0, 0, 0]])) == 0.75
    with pytest.raises(ParameterError):
        macc_from_confusion(np.zeros((2, 2), dtype=np.int64))


# --- class embeddings --------------------------------------------------------------------

def test_class_embeddings_validation():
    rng = np.random.default_rng(12)
    with pytest.raises(ParameterError):
        ClassEmbeddings(names=["solo"], vectors=unit_rows(rng, 1, 3))
    with pytest.raises(ParameterError):
        ClassEmbeddings(names=["a", "b"], vectors=rng.standard_normal((2, 3)) * 5)
    # a NaN row's norm is NaN, which no tolerance comparison refuses
    with pytest.raises(ParameterError, match="finite"):
        ClassEmbeddings(names=["a", "b"], vectors=[[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_class_embeddings_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    ce = ClassEmbeddings(names=["sky", "grass"], vectors=unit_rows(rng, 2, 6))
    path = str(tmp_path / "classes.dten")
    save_class_embeddings(path, ce)
    back = load_class_embeddings(path)
    assert back.names == ce.names
    np.testing.assert_array_equal(back.vectors, ce.vectors)


def test_class_file_without_classes_rejected(tmp_path):
    path = str(tmp_path / "empty.dten")
    write_tensor(path, [])
    with pytest.raises(ParameterError, match="empty.dten"):
        load_class_embeddings(path)


MALFORMED_CLASS_FILES = {
    "unequal-widths": ({"class.a": np.eye(3)[0], "class.b": np.eye(4)[1]}, "unequal widths"),
    "non-unit": ({"class.a": np.full(3, 2.0), "class.b": np.eye(3)[1]}, "unit-normalized"),
    "single-vector": ({"class.a": np.eye(3)[0]}, "need >= 2"),
    "unnamed-section": ({"class.a": np.eye(3)[0], "a": np.eye(3)[1]}, "unexpected section 'a'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_CLASS_FILES))
def test_malformed_class_file_rejected_naming_the_file(tmp_path, case):
    sections, message = MALFORMED_CLASS_FILES[case]
    path = str(tmp_path / "bad_classes.dten")
    write_tensor(path, sections)
    with pytest.raises(ParameterError, match=f"^{re.escape(path)}: .*{re.escape(message)}"):
        load_class_embeddings(path)


def test_class_prototypes_unit_and_seeded():
    cfg = RunConfig(student_patch=8, student_res=32, student_depth=2, student_width=16,
                    student_heads=2, embed_dim=8, vfm_patch=8, vfm_res=32, vfm_depth=1,
                    vfm_width=8, vfm_heads=1, seed=3)
    suite = make_suite(seed=3, n_images=1, side=4, patch=8, num_classes=3)
    d = Distiller(cfg)
    ce = class_prototypes(d.teacher, suite.colors)
    assert np.abs(np.linalg.norm(ce.vectors, axis=1) - 1.0).max() < 1e-9
    ce2 = class_prototypes(d.teacher, suite.colors)
    np.testing.assert_array_equal(ce.vectors, ce2.vectors)


# --- synthetic suites ------------------------------------------------------------------------

def loop_sample(rng, side, patch, colors, noise, gray_rate, flip_rate, rects=6):
    """make_sample's image and segments with each token cell painted in a
    Python loop: the reference for its gather-based painting."""
    k = colors.shape[0]
    parts = _split_rects(rng, side, rects)
    labels = rng.integers(0, k, size=len(parts))
    while len(set(labels.tolist())) < 2:
        labels = rng.integers(0, k, size=len(parts))
    segments = np.zeros((side, side), dtype=np.int32)
    for (y0, x0, y1, x1), lab in zip(parts, labels):
        segments[y0:y1, x0:x1] = lab
    draw = rng.random((side, side))
    offsets = rng.integers(1, k, size=(side, side))
    image = np.empty((3, side * patch, side * patch))
    for y in range(side):
        for x in range(side):
            if draw[y, x] < gray_rate:
                cell = np.full(3, 0.5)
            elif draw[y, x] < gray_rate + flip_rate:
                cell = colors[(segments[y, x] + offsets[y, x]) % k]
            else:
                cell = colors[segments[y, x]]
            image[:, y * patch:(y + 1) * patch, x * patch:(x + 1) * patch] = cell[:, None, None]
    image += noise * rng.standard_normal(image.shape)
    return np.clip(image, 0.0, 1.0), segments


@pytest.mark.parametrize("side,patch,k", [(8, 8, 6), (4, 8, 3), (5, 3, 2)])
def test_sample_painting_matches_cell_loop(side, patch, k):
    colors = make_classes(np.random.default_rng([k, 100]), k)
    for seed in range(5):
        # high grey and flip rates, so that every branch paints some cells
        got = make_sample(np.random.default_rng(seed), side, patch, colors, noise=0.08,
                          gray_rate=0.2, flip_rate=0.3, rects=6)
        image, segments = loop_sample(np.random.default_rng(seed), side, patch, colors,
                                      noise=0.08, gray_rate=0.2, flip_rate=0.3)
        assert got.image.tobytes() == image.tobytes()
        np.testing.assert_array_equal(got.segments, segments)


@pytest.mark.parametrize("k", [0, 1])
def test_suite_needs_two_classes(k):
    with pytest.raises(ParameterError, match="num_classes must be >= 2"):
        make_suite(seed=0, n_images=1, side=4, patch=8, num_classes=k)


# --- mini ablation smoke ---------------------------------------------------------------------

def test_ablation_mini_deterministic():
    cfg = RunConfig(student_patch=8, student_res=32, student_depth=2, student_width=16,
                    student_heads=2, embed_dim=8, vfm_patch=8, vfm_res=32, vfm_depth=1,
                    vfm_width=8, vfm_heads=1, grid_lo=1, grid_hi=2, epochs=2,
                    batch_size=2, seed=5, lr=3e-3, weight_decay=0.0)
    suite = make_suite(seed=5, n_images=4, side=4, patch=8, num_classes=3)
    a = ablation_coupled_vs_decoupled(cfg, suite)
    b = ablation_coupled_vs_decoupled(cfg, suite)
    assert a == b
    for m in (a.baseline, a.content, a.coupled, a.decoupled):
        assert 0.0 <= m.macc <= 1.0 and 0.0 <= m.miou <= 1.0


def test_ablation_report_text_and_summary():
    # what `densedistill ablate` prints: the table, then the summary lines in key order
    report = AblationReport(VariantMetrics(0.125, 0.25), VariantMetrics(0.5, 0.0625),
                            VariantMetrics(0.75, 0.375), VariantMetrics(1.0, 0.8125))
    assert report.text() == ("variant                  mAcc    mIoU\n"
                             "baseline(untrained)      0.1250  0.2500\n"
                             "content-only             0.5000  0.0625\n"
                             "coupled(single-feature)  0.7500  0.3750\n"
                             "decoupled(full)          1.0000  0.8125")
    assert list(report.summary().items()) == [
        ("baseline_macc", 0.125), ("baseline_miou", 0.25),
        ("content_macc", 0.5), ("content_miou", 0.0625),
        ("coupled_macc", 0.75), ("coupled_miou", 0.375),
        ("decoupled_macc", 1.0), ("decoupled_miou", 0.8125)]


def test_ablation_encodes_each_record_box_once_per_variant(monkeypatch):
    cfg = RunConfig(student_patch=8, student_res=32, student_depth=2, student_width=16,
                    student_heads=2, embed_dim=8, vfm_patch=8, vfm_res=32, vfm_depth=1,
                    vfm_width=8, vfm_heads=1, grid_lo=1, grid_hi=2, epochs=3,
                    batch_size=2, seed=5, lr=3e-3, weight_decay=0.0)
    suite = make_suite(seed=5, n_images=4, side=4, patch=8, num_classes=3)
    pairs = []
    for step in range(cfg.epochs * 2):
        rng = np.random.default_rng([cfg.seed, STREAM_STEP, step])
        for record in (step % 2 * 2, step % 2 * 2 + 1):
            pairs += [(record, box) for box in sample_grid(rng, cfg.grid_lo, cfg.grid_hi)]
    assert len(set(pairs)) < len(pairs)

    calls = []
    real = trainer.encode_cls

    def counting(crop, params):
        calls.append(params)
        return real(crop, params)

    monkeypatch.setattr(trainer, "encode_cls", counting)
    ablation_coupled_vs_decoupled(cfg, suite)
    assert len(calls) == 3 * len(set(pairs))
