import hashlib
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

import elmkit
from elmkit import imaging, shapes
from elmkit.data import save_idx
from elmkit.imaging import (
    extract_patch,
    read_ppm,
    rgb_to_hsv,
    segment_frames,
    segment_object,
    write_ppm,
)
from elmkit.model_io import save_model
from elmkit.numerics import Rng
from elmkit.pipeline import PipelineConfig, hml_train
from elmkit.shapes import HUE_BAND, ShapePose, synth_shape, synth_shape_dataset


def solid_square_frame(size=100, top=40, left=40, side=20, color=(255, 0, 0)):
    px = np.zeros((size, size, 3), dtype=np.uint8)
    px[top : top + side, left : left + side] = color
    return px


def test_frame_path_loads_no_scipy_module(tmp_path):
    # rendering, segmentation, loading and scoring solve nothing, so a camera
    # loop never pays for scipy; training loads scipy.linalg at its first solve
    ds, _ = synth_shape_dataset(3, 0.25, Rng(5))
    model_path = tmp_path / "model.bin"
    save_model(hml_train(ds.x, ds.labels, PipelineConfig((12,), (10.0, 1e4), head_size=4)), model_path)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(elmkit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"""
import sys
from elmkit import PipelineConfig, Rng, hml_predict, hml_train, load_model, synth_shape_dataset
def loaded():
    return [m for m in ("scipy.linalg", "scipy.ndimage", "scipy.special") if m in sys.modules]
ds, _ = synth_shape_dataset(2, 0.25, Rng(6))  # renders and segments every frame
hml_predict(load_model({str(model_path)!r}), ds.x)
print(loaded())
hml_train(ds.x, ds.labels, PipelineConfig((12,), (10.0, 1e4), head_size=4))
print(loaded())
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.split("\n")[:2] == ["[]", "['scipy.linalg']"]


def test_hsv_pure_red():
    h, s, v = rgb_to_hsv(np.full((1, 1, 3), [255, 0, 0], dtype=np.uint8))[0, 0]
    assert (h, s, v) == (0, 255, 255)


def test_hsv_pure_green_is_120_degrees():
    h = rgb_to_hsv(np.full((1, 1, 3), [0, 255, 0], dtype=np.uint8))[0, 0, 0]
    assert h == round(120.0 / 360.0 * 255.0)  # 85 under 8-bit hue scaling


def test_hsv_gray_has_zero_saturation():
    h, s, v = rgb_to_hsv(np.full((1, 1, 3), 128, dtype=np.uint8))[0, 0]
    assert s == 0
    assert v == 128  # ~0.502 of full scale


FRAME_TAKERS = {
    "segment_object": lambda px, path: segment_object(px, 330.0, 30.0),
    "rgb_to_hsv": lambda px, path: rgb_to_hsv(px),
    "write_ppm": write_ppm,
}
BAD_FRAMES = {
    "float": np.zeros((4, 4, 3)),
    "1-D": np.zeros(12, dtype=np.uint8),
    "4-D": np.zeros((1, 4, 4, 3), dtype=np.uint8),
    "4 channels": np.zeros((4, 4, 4), dtype=np.uint8),
    "empty": np.zeros((0, 4, 3), dtype=np.uint8),
}
MASK = np.ones((4, 4), dtype=np.uint8)
REFUSALS = [
    *((f"{taker}-{name}", FRAME_TAKERS[taker], px, "(h, w, 3) uint8") for taker in FRAME_TAKERS
      for name, px in BAD_FRAMES.items()),
    *((f"{taker}-mask", FRAME_TAKERS[taker], MASK, "(h, w, 3) uint8") for taker in ("segment_object", "rgb_to_hsv")),
    ("write_ppm-mask-holding-7", write_ppm, np.full((4, 4), 7, dtype=np.uint8), "(h, w) uint8 arrays of 0/1"),
    ("write_ppm-float-mask", write_ppm, MASK.astype(np.float64), "(h, w) uint8 arrays of 0/1"),
    *((f"segment_frames-{name}", lambda px, path: segment_frames(px, 330.0, 30.0), px, "(n, h, w, 3) uint8")
      for name, px in (("frame", BAD_FRAMES["4-D"][0]), ("float", np.zeros((1, 4, 4, 3))),
                       ("empty", np.zeros((0, 4, 4, 3), np.uint8)))),
    ("extract_patch-frame", lambda px, path: extract_patch(px, (1, 1)), np.zeros((4, 4, 3), dtype=np.uint8), "2-D"),
    ("extract_patch-1-D", lambda px, path: extract_patch(px, (1, 1)), np.ones(16, dtype=np.uint8), "2-D"),
    ("extract_patch-side-0", lambda px, path: extract_patch(px, (1, 1), side=0), MASK, "side must be >= 1, got 0"),
]


@pytest.mark.parametrize("take, px, named", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_malformed_frames_and_masks_are_refused(tmp_path, take, px, named):
    path = tmp_path / "out.ppm"
    with pytest.raises(ValueError, match=re.escape(named)):
        take(px, path)
    assert not list(tmp_path.iterdir())


def test_ppm_round_trip(tmp_path):
    frame = solid_square_frame(30, 5, 9, 8, (10, 200, 30))
    path = tmp_path / "frame.ppm"
    write_ppm(frame, path)
    back = read_ppm(path)
    np.testing.assert_array_equal(back, frame)
    mask = (frame[..., 1] > 100).astype(np.uint8)  # a mask is written black and white
    write_ppm(mask, path)
    np.testing.assert_array_equal(read_ppm(path), np.repeat(mask[:, :, None] * 255, 3, axis=2))


def test_ppm_header_with_comment(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
    frame = read_ppm(path)
    assert frame.shape == (1, 2, 3) and frame.dtype == np.uint8
    np.testing.assert_array_equal(frame[0, 1], [4, 5, 6])


def test_ppm_rejects_wrong_format(tmp_path):
    path = tmp_path / "p3.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError, match="P6"):
        read_ppm(path)


def test_segment_centered_square():
    frame = solid_square_frame(100, 40, 40, 20)  # center at (49.5, 49.5)
    mask, centroid = segment_object(frame, 330.0, 30.0)
    assert mask.shape == frame.shape[:2] and mask.dtype == np.uint8
    assert set(np.unique(mask)) == {0, 1}
    assert abs(centroid[0] - 50) <= 1 and abs(centroid[1] - 50) <= 1


def test_segment_no_object():
    frame = solid_square_frame(color=(0, 255, 0))  # green square, red band
    with pytest.raises(ValueError, match="no object in hue band"):
        segment_object(frame, 330.0, 30.0)


def test_segment_keeps_larger_of_two_blobs():
    px = np.zeros((100, 100, 3), dtype=np.uint8)
    px[10:18, 10:18] = (255, 0, 0)  # small blob centered near (13.5, 13.5)
    px[60:90, 60:90] = (255, 0, 0)  # large blob centered near (74.5, 74.5)
    _, centroid = segment_object(px, 330.0, 30.0)
    assert abs(centroid[0] - 74) <= 1 and abs(centroid[1] - 74) <= 1


def test_segment_translation_equivariance():
    base_mask, base_centroid = segment_object(solid_square_frame(120, 40, 40, 18), 330.0, 30.0)
    for dr, dc in [(7, 0), (0, -11), (13, 9)]:
        _, c = segment_object(solid_square_frame(120, 40 + dr, 40 + dc, 18), 330.0, 30.0)
        assert c == (base_centroid[0] + dr, base_centroid[1] + dc)


def test_segment_threshold_param_respected():
    frame = solid_square_frame()
    mask_default, _ = segment_object(frame, 330.0, 30.0)
    mask_strict, _ = segment_object(frame, 330.0, 30.0, 0.95)
    assert mask_strict.sum() <= mask_default.sum()


def test_patch_length_and_binary_values():
    mask, centroid = segment_object(solid_square_frame(), 330.0, 30.0)
    patch = extract_patch(mask, centroid)
    assert patch.shape == (2704,)
    assert set(np.unique(patch)) <= {0.0, 1.0}


def test_patch_at_corner_is_padded():
    mask = np.ones((60, 60), dtype=np.uint8)
    patch = extract_patch(mask, (0, 0), side=52)
    assert patch.shape == (2704,)
    grid = patch.reshape(52, 52)
    assert grid[:26, :26].sum() == 0  # padded quadrant
    assert grid[26:, 26:].all()


def test_patch_full_frame_object():
    mask = np.ones((52, 52), dtype=np.uint8)
    assert extract_patch(mask, (26, 26), side=52).all()


def test_patch_known_bitmap():
    px = np.zeros((80, 80), dtype=np.uint8)
    px[30:40, 35:45] = 1
    patch = extract_patch(px, (34, 39), side=20)
    grid = patch.reshape(20, 20)
    expected = np.zeros((20, 20))
    expected[6:16, 6:16] = 1.0
    np.testing.assert_array_equal(grid, expected)


def test_patch_rejects_outside_centroid():
    mask = np.ones((10, 10), dtype=np.uint8)
    with pytest.raises(ValueError, match="outside"):
        extract_patch(mask, (10, 3))


def test_synth_circle_centroid_matches_pose():
    pose = ShapePose(scale=15.0, rotation=0.0, offset=(60, 45))
    frame, label = synth_shape("circle", pose, 0.0, Rng(3))
    assert label == 1
    _, centroid = segment_object(frame, *HUE_BAND)
    assert abs(centroid[0] - 60) <= 1 and abs(centroid[1] - 45) <= 1


def test_synth_same_seed_identical():
    pose = ShapePose(18.0, 0.7, (50, 50))
    a, _ = synth_shape("triangle", pose, 0.4, Rng(8))
    b, _ = synth_shape("triangle", pose, 0.4, Rng(8))
    assert a.tobytes() == b.tobytes()


def test_synth_rejects_degenerate_pose():
    with pytest.raises(ValueError, match="degenerate pose"):
        synth_shape("box", ShapePose(0.0, 0.0, (50, 50)), 0.0, Rng(0))


def test_synth_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown shape kind"):
        synth_shape("hexagon", ShapePose(10.0, 0.0, (50, 50)), 0.0, Rng(0))


def reference_hsv(px):
    """Whole-frame HSV with axis reductions and boolean scatters: the reference
    the segmentation prefilter and ``rgb_to_hsv`` must match bit for bit."""
    rgb = px.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = rgb.max(axis=2)
    minc = rgb.min(axis=2)
    delta = maxc - minc
    hue = np.zeros_like(maxc)
    live = delta > 0
    rmax = live & (maxc == r)
    gmax = live & ~rmax & (maxc == g)
    bmax = live & ~rmax & ~gmax
    hue[rmax] = np.mod((g - b)[rmax] / delta[rmax], 6.0)
    hue[gmax] = (b - r)[gmax] / delta[gmax] + 2.0
    hue[bmax] = (r - g)[bmax] / delta[bmax] + 4.0
    hue *= 60.0
    sat = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    planes = [np.rint(hue / 360.0 * 255.0), np.rint(sat * 255.0), np.rint(maxc * 255.0)]
    return np.stack(planes, axis=2).astype(np.uint8)


def reference_segment(px, hue_lo, hue_hi, sat_min, val_min):
    """Segmentation through the full float HSV frame; returns (mask, centroid) or the error text."""
    hsv = reference_hsv(px).astype(np.float64)
    hue = hsv[..., 0] / 255.0 * 360.0
    sat = hsv[..., 1] / 255.0
    val = hsv[..., 2] / 255.0
    if hue_lo <= hue_hi:
        in_band = (hue >= hue_lo) & (hue <= hue_hi)
    else:
        in_band = (hue >= hue_lo) | (hue <= hue_hi)
    mask = (in_band & (sat >= sat_min) & (val >= val_min)).astype(np.float64)
    for size in (3, 7):
        counts = window_counts(mask, size)
        if size == 3 and counts.max() < 9:  # no 3 x 3 window wholly in band, as in an empty mask
            return "no object in hue band"
        mask = (counts >= 0.5 * counts.max()).astype(np.float64)
    labeled, n = ndimage.label(mask)
    sizes = ndimage.sum_labels(np.ones_like(mask), labeled, index=np.arange(1, n + 1))
    component = labeled == int(np.argmax(sizes)) + 1
    rows, cols = np.nonzero(component)
    return component.astype(np.uint8), (int(np.floor(rows.mean() + 0.5)), int(np.floor(cols.mean() + 0.5)))


def _test_frame(gen, kind):
    h, w = (int(v) for v in gen.integers(1, 40, 2))
    if kind == "uniform":
        return gen.integers(0, 256, (h, w, 3), dtype=np.uint8)
    if kind == "grays":  # delta == 0 pixels, and channel ties among the colored ones
        px = gen.choice(np.array([0, 38, 39, 200], dtype=np.uint8), (h, w, 3))
        px[: h // 2] = px[: h // 2, :, :1]
        return px
    return gen.integers(36, 52, (h, w, 3), dtype=np.uint8)  # values near the 0.15 floor


# bands whose edges sit on the hue sectors' boundaries, and one 8-bit code
# wide, on code 43, the least code a green-max pixel takes
SECTOR_BANDS = [(60.0, 180.0), (180.0, 300.0), (300.0, 60.0), (42.6 / 255 * 360, 43.4 / 255 * 360)]


def test_segment_matches_whole_frame_hsv_reference(monkeypatch):
    gen = np.random.default_rng(20261018)
    levels = [0.0, 38 / 255, 39 / 255, 0.15, 1.0, 1.5]
    bands = [(330.0, 30.0), (0.0, 360.0), (0.0, 0.0), (90.0, 200.0), (200.0, 90.0), (360.0, 0.0), *SECTOR_BANDS]
    found = 0
    used = set()
    for i in range(900):
        px = _test_frame(gen, ("uniform", "grays", "near-floor")[i % 3])
        band = bands[i // 2 % len(bands)] if i % 2 else tuple(float(v) for v in gen.uniform(0.0, 360.0, 2))
        floors = float(gen.choice(levels)), float(gen.choice(levels))
        monkeypatch.setattr(imaging, "SAT_MIN", floors[0])
        monkeypatch.setattr(imaging, "VAL_MIN", floors[1])
        used.add(band)
        expected = reference_segment(px, *band, *floors)
        try:
            mask, centroid = segment_object(px, *band)
        except ValueError as e:
            assert str(e) == expected, (i, band, floors)
            continue
        found += 1
        assert not isinstance(expected, str), (i, band, floors)
        assert mask.tobytes() == expected[0].tobytes(), (i, band, floors)
        assert centroid == expected[1], (i, band, floors)
    # both outcomes are exercised; most random frames fill no 3 x 3 window with in-band pixels
    assert 50 < found < 850, found
    assert used >= set(bands)


def test_green_and_blue_max_colours_take_exactly_the_green_blue_codes():
    taken = np.zeros(256, bool)
    green_blue = np.indices((256, 256), dtype=np.uint8).reshape(2, -1).T
    for red in range(0, 256, 4):  # every 8-bit colour, four red levels at a time
        px = np.empty((4, green_blue.shape[0], 3), np.uint8)
        px[..., 0] = np.arange(red, red + 4, dtype=np.uint8)[:, None]
        px[..., 1:] = green_blue
        px = px.reshape(-1, 3)
        px = px[px[:, 0] < px.max(axis=1)]  # ties go to red
        taken[imaging._hsv8(px)[0]] = True
    assert np.flatnonzero(taken).tolist() == imaging._GREEN_BLUE_CODES.tolist()


def _test_masks(gen, n):
    """Random 0/1 masks, 1 to 49 pixels a side, of varied density."""
    for _ in range(n):
        h, w = (int(v) for v in gen.integers(1, 50, 2))
        yield gen.random((h, w)) < gen.uniform(0.0, 0.9)


def window_counts(mask, size):
    """The exact count of set pixels in every zero-padded ``size x size`` window."""
    return ndimage.correlate(mask.astype(np.int64), np.ones((size, size), np.int64), mode="constant")


def even_peak_masks(gen, size, n):
    """Sparse masks whose densest window holds an even count c, so that windows
    holding c / 2 lie exactly on the default cut."""
    masks = []
    while len(masks) < n:
        mask = gen.random(tuple(gen.integers(1, 30, 2))) < 0.08
        peak = int(window_counts(mask, size).max())
        if peak and peak % 2 == 0:
            masks.append(mask)
    return masks


@pytest.mark.parametrize("size", imaging.BLUR_SIZES)
def test_blur_threshold_matches_the_replica_on_both_paths(size):
    # exact window counts are the reference everywhere; thresholding scipy's
    # float uniform_filter agrees wherever no count lies within 1e-6 of the
    # cut, too far for its rounding to move a window across
    gen = np.random.default_rng(100 + size)
    wide = [gen.random((2, 4000)) < 0.5, gen.random((3, 2500)) < 0.05]  # scipy's rounding grows with the width
    masks = [*wide, *_test_masks(gen, 300)]
    ties = even_peak_masks(gen, size, 150)
    # one ulp either side of 0.5 puts the cut within rounding of, but not on, an even peak's half
    thresholds = (0.5, 1.0, 1e-12, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0))
    compared, differ = 0, 0
    for mask in masks + ties:
        counts = window_counts(mask, size)
        blurred = ndimage.uniform_filter(mask.astype(np.float64), size=size, mode="constant")
        differs = False
        for threshold in (*thresholds, float(gen.uniform(0.01, 1.0))):
            got = imaging._blur_threshold(mask, size, threshold)
            cut = threshold * counts.max()
            assert got.tobytes() == (counts >= cut).tobytes(), (mask.shape, threshold)
            scipy_mask = blurred >= threshold * blurred.max()
            if np.abs(counts - cut).min() > 1e-6:
                compared += 1
                assert got.tobytes() == scipy_mask.tobytes(), (mask.shape, threshold)
            differs |= got.tobytes() != scipy_mask.tobytes()
        differ += differs
    assert compared > 1000 and differ > 50, (compared, differ)


@pytest.mark.parametrize("size", imaging.BLUR_SIZES)
def test_blur_threshold_one_keeps_every_peak_window(size):
    gen = np.random.default_rng(200 + size)
    for mask in _test_masks(gen, 400):
        counts = window_counts(mask, size)
        got = imaging._blur_threshold(mask, size, 1.0)
        assert got.tobytes() == (counts == counts.max()).tobytes(), mask.shape


@pytest.mark.parametrize("size", imaging.BLUR_SIZES)
def test_blur_threshold_of_an_object_ignores_content_size_columns_away(size):
    # sparse content to the left, no denser than the object, moves no window
    # the object's result reads, and leaves the peak count as it is
    gen = np.random.default_rng(300 + size)
    tested = 0
    for mask in even_peak_masks(gen, size, 200):
        h, w = mask.shape
        far = gen.random((h, int(gen.integers(10, 40)))) < 0.05
        frame = np.hstack([far, np.zeros((h, size), bool), mask])
        if window_counts(frame, size).max() != window_counts(mask, size).max():
            continue
        tested += 1
        for threshold in (0.5, 1.0, float(gen.uniform(0.01, 1.0))):
            alone = imaging._blur_threshold(mask, size, threshold)
            assert imaging._blur_threshold(frame, size, threshold)[:, -w:].tobytes() == alone.tobytes(), mask.shape
    assert tested > 100, tested


def reference_largest_component(mask):
    labeled, n = ndimage.label(mask)
    if n == 0:
        return None
    component = labeled == int(np.argmax(np.bincount(labeled.ravel())[1:])) + 1
    rows, cols = np.nonzero(component)
    return component.astype(np.uint8), (int(np.floor(rows.mean() + 0.5)), int(np.floor(cols.mean() + 0.5)))


def test_largest_component_matches_ndimage_label():
    gen = np.random.default_rng(4)
    checkerboard = (np.indices((7, 9)).sum(axis=0) % 2).astype(bool)  # diagonal contacts only
    two_squares = np.zeros((8, 12), bool)  # equal sizes: the one that starts first wins
    two_squares[3:6, 1:4] = two_squares[2:5, 8:11] = True
    edge_cases = [checkerboard, ~checkerboard, np.eye(6, dtype=bool), np.eye(6, dtype=bool)[::-1], two_squares]
    # segment_frames never passes an empty mask
    masks = [mask for mask in [*edge_cases, *_test_masks(gen, 1500)] if mask.any()]
    same_shape = {}
    for mask in masks:
        same_shape.setdefault(mask.shape, []).append(mask)
    stacks = [mask[None] for mask in masks] + [np.stack(group) for group in same_shape.values() if len(group) > 1]
    assert len(stacks) > len(masks) + 100
    for stack in stacks:
        for mask, got in zip(stack, imaging._largest_components(stack), strict=True):
            expected = reference_largest_component(mask)
            assert got[0].tobytes() == expected[0].tobytes() and got[1] == expected[1], mask.shape
    ties = 0
    for mask in masks:
        sizes = np.sort(np.bincount(ndimage.label(mask)[0].ravel())[1:])
        ties += sizes.size > 1 and sizes[-1] == sizes[-2]
    assert ties > 100


def test_largest_components_of_a_stack_whose_planes_differ():
    stack = np.zeros((6, 12, 16), bool)
    stack[0, 5:8, 5:9] = True  # one component
    stack[1, 0, 0] = stack[1, 2:4, 2:4] = True  # three, the largest last
    stack[1, 9:12, 10:16] = True
    stack[2, 1:3, 1:3] = stack[2, 1:3, 12:14] = stack[2, 8:10, 6:8] = True  # a three-way tie: the first wins
    stack[3, 0:2, 13:16] = True  # six pixels, then a U of 27 whose arms join in its last row
    stack[3, 1:11, 2] = stack[3, 1:11, 9] = stack[3, 11, 2:10] = True
    stack[4] = True  # the whole plane, against the last row of the one before and the first of the one after
    stack[5, 0, :15] = stack[5, 2, 1:] = True  # a tie between two rows
    stack[5, 11, 15] = True
    assert [ndimage.label(mask)[1] for mask in stack] == [1, 3, 3, 2, 1, 3]
    for mask, got in zip(stack, imaging._largest_components(stack), strict=True):
        expected = reference_largest_component(mask)
        assert got[0].tobytes() == expected[0].tobytes() and got[1] == expected[1]


def test_hsv_matches_reference_bytes():
    gen = np.random.default_rng(7)
    uniform = gen.integers(0, 256, (1 << 19, 3), dtype=np.uint8)
    ties = gen.choice(np.array([0, 1, 38, 39, 127, 128, 254, 255], dtype=np.uint8), (1 << 17, 3))
    px = np.concatenate([uniform, ties])[None]
    assert rgb_to_hsv(px).tobytes() == reference_hsv(px).tobytes()


def test_patch_digest_is_pinned():
    ds, _ = synth_shape_dataset(5, 0.25, Rng(42))
    digest = hashlib.sha256(ds.x.tobytes() + ds.labels.tobytes()).hexdigest()
    assert digest == "b290d7aca2da42a3885e414c2f765a12dd5c4b78d2f046c71978de3b9d200175"


def serial_shape_dataset(n_per_class, noise_level, rng, keep_frames):
    """120 x 120 frames one after another: the poses drawn class-major from
    ``rng.split(0)``, frame k rendered from ``rng.split(1 + k)``."""
    scale_lo, scale_hi, margin = 16.5, 30.0, 36
    gen = rng.split(0).generator()
    rows, labels, samples = [], [], []
    for kind in shapes.SHAPE_KINDS:
        for i in range(n_per_class):
            pose = ShapePose(
                float(gen.uniform(scale_lo, scale_hi)),
                float(gen.uniform(0.0, 2.0 * np.pi)),
                (int(gen.integers(margin, 120 - margin)), int(gen.integers(margin, 120 - margin))),
            )
            frame, label = synth_shape(kind, pose, noise_level, rng.split(1 + len(rows)))
            mask, centroid = segment_object(frame, *HUE_BAND)
            rows.append(extract_patch(mask, centroid))
            labels.append(label)
            if i < keep_frames:
                samples.append(frame)
    return np.array(rows), np.array(labels), samples


def calling_threads(monkeypatch):
    """Record the thread of every synth_shape call."""
    seen = []
    render = shapes.synth_shape

    def recorded(*args, **kwargs):
        seen.append(threading.get_ident())
        return render(*args, **kwargs)

    monkeypatch.setattr(shapes, "synth_shape", recorded)
    return seen


def test_frames_rendered_side_by_side_equal_the_serial_loop(monkeypatch):
    x, labels, samples = serial_shape_dataset(30, 0.25, Rng(17, 2), keep_frames=3)
    assert len(samples) == 12
    threads = calling_threads(monkeypatch)
    interval = sys.getswitchinterval()
    for cpus in (None, {0}, {0, 1, 2}):
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        threads.clear()
        sys.setswitchinterval(1e-5)  # more switches between the frame threads
        try:
            ds, kept = synth_shape_dataset(30, 0.25, Rng(17, 2), keep_frames=3)
        finally:
            sys.setswitchinterval(interval)
        assert ds.x.tobytes() == x.tobytes() and ds.x.dtype == x.dtype, cpus
        assert ds.labels.tobytes() == labels.tobytes() and ds.labels.dtype == labels.dtype, cpus
        assert [f.tobytes() for f in kept] == [f.tobytes() for f in samples], cpus
        assert len(threads) == 120
        if cpus is not None:
            assert len(set(threads)) <= len(cpus), cpus


def test_frame_threads_are_capped_at_the_frame_count(monkeypatch):
    threads = calling_threads(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    before = threading.active_count()
    ds, _ = synth_shape_dataset(1, 0.25, Rng(4))
    assert ds.n_samples == 4 and len(set(threads)) <= 4
    assert threading.active_count() == before


def test_first_failing_frame_raises_and_the_rest_are_cancelled(monkeypatch):
    rng = Rng(23)
    index = {rng.split(1 + k): k for k in range(400)}
    rendered = []
    render = shapes.synth_shape

    def failing(kind, pose, noise_level, frame_rng, frame_shape):
        k = index[frame_rng]
        if k in (5, 9):
            raise ValueError(f"frame {k} failed")
        rendered.append(k)
        return render(kind, pose, noise_level, frame_rng, frame_shape)

    monkeypatch.setattr(shapes, "synth_shape", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    before = threading.active_count()
    with pytest.raises(ValueError, match="^frame 5 failed$"):
        synth_shape_dataset(100, 0.25, rng)
    assert threading.active_count() == before
    # two threads render a few frames past the failure; the rest are cancelled
    assert set(range(5)) <= set(rendered) and len(rendered) < 100


def test_patches_are_held_once_while_rendered_and_written(tmp_path):
    # each patch goes into its row of the dataset as its frame is read, and
    # save_idx quantizes in one float temporary; both peaks count the dataset
    tracemalloc.start()
    try:
        ds, _ = synth_shape_dataset(100, 0.25, Rng(11))
        rendered = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        save_idx(ds.x, ds.labels, tmp_path / "x.idx", tmp_path / "y.idx", 52, 52)
        written = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert rendered < 1.75 * ds.x.nbytes, rendered / ds.x.nbytes
    assert written < 1.5 * ds.x.nbytes, written / ds.x.nbytes


def test_importing_elmkit_loads_no_thread_pool():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(elmkit.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, elmkit; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("frame_shape", [(31, 200), (200, 27)])
def test_synth_shape_dataset_rejects_a_frame_side_under_32_px(frame_shape):
    with pytest.raises(ValueError, match="too small for the pose margins"):
        synth_shape_dataset(1, 0.25, Rng(0), frame_shape=frame_shape)
    ds, _ = synth_shape_dataset(1, 0.25, Rng(0), frame_shape=(32, 200))
    assert ds.n_samples == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"threshold": 0.0},
        {"threshold": -1.0},
        {"threshold": 1.5},
        {"threshold": float("nan")},
    ],
)
def test_segment_params_reject_out_of_range(kwargs):
    with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\]"):
        segment_object(solid_square_frame(), 330.0, 30.0, **kwargs)


@pytest.mark.parametrize("band", [(float("nan"), 30.0), (330.0, float("nan")), (-1.0, 30.0), (330.0, 361.0), (0.0, float("inf"))])
def test_segment_rejects_bad_hue_bounds(band):
    with pytest.raises(ValueError, match="hue bounds"):
        segment_object(solid_square_frame(60, 20, 20, 20), *band)


def mixed_frames():
    """Seven 120 x 120 frames: each shape kind rendered at a different noise level, a
    solid square, two blobs of different sizes, and a wide object on a noisy ground."""
    frames = [
        synth_shape(kind, ShapePose(14.0 + 4 * i, 0.3 * i, (50 + 5 * i, 64 - 3 * i)), noise, Rng(31, i))[0]
        for i, (kind, noise) in enumerate(zip(shapes.SHAPE_KINDS, (0.0, 0.25, 0.6, 1.0)))
    ]
    frames.append(solid_square_frame(120, 30, 70, 25, (250, 40, 60)))
    two = solid_square_frame(120, 10, 10, 8)
    two[60:95, 50:90] = (200, 20, 10)
    frames.append(two)
    noisy = np.random.default_rng(5).integers(0, 60, (120, 120, 3), dtype=np.uint8)
    noisy[40:70, 5:115] = (230, 30, 20)
    frames.append(noisy)
    return frames


@pytest.mark.parametrize("band", [HUE_BAND, (0.0, 360.0), (300.0, 60.0)])
@pytest.mark.parametrize("threshold", [0.5, 0.9])
def test_segment_frames_equals_segment_object_frame_by_frame(band, threshold):
    frames = mixed_frames()
    expected = [segment_object(frame, *band, threshold) for frame in frames]
    for n in (1, 4, 7):
        got = segment_frames(np.stack(frames[:n]), *band, threshold)
        assert len(got) == n
        for (mask, centroid), (mask_1, centroid_1) in zip(got, expected):
            assert mask.dtype == mask_1.dtype and mask.tobytes() == mask_1.tobytes()
            assert centroid == centroid_1


def test_segment_takes_numpy_hue_bounds():
    frame = solid_square_frame()
    expected = segment_object(frame, 330.0, 30.0)
    got = segment_object(frame, np.float32(330.0), np.array(30.0))  # a 0-d array is not hashable
    assert got[0].tobytes() == expected[0].tobytes() and got[1] == expected[1]


@pytest.mark.parametrize("threshold", [1e-12, 0.5, 1.0])
def test_segment_frames_keeps_the_smallest_in_band_objects(threshold):
    # the least object fills one 3 x 3 window with in-band pixels; each blur keeps its
    # peak window, so it gives a component, in a corner against the zero padding too
    frames = np.zeros((3, 60, 60, 3), dtype=np.uint8)
    frames[0, 24:27, 30:33] = (255, 0, 0)  # one full window
    frames[1, :3, :3] = (255, 0, 0)  # one full window in a corner
    frames[2, 39:42, 10:50] = (255, 0, 0)  # a three-row bar
    for mask, centroid in segment_frames(frames, *HUE_BAND, threshold):
        assert mask.dtype == np.uint8 and mask.any() and set(np.unique(mask).tolist()) == {0, 1}
        assert mask[centroid] == 1, centroid
    # in-band content that fills no 3 x 3 window is refused, whatever the threshold
    specks = np.zeros((5, 60, 60, 3), dtype=np.uint8)
    specks[0, 25, 31] = (255, 0, 0)  # one pixel
    specks[1, 0, 0] = (255, 0, 0)  # one pixel in a corner
    specks[2, 40, 10:50] = (255, 0, 0)  # a one-row line
    specks[3, 12, 8] = specks[3, 50, 44] = (255, 0, 0)  # two separated pixels
    specks[4, 24:27, 30:33] = (255, 0, 0)
    specks[4, 25, 31] = 0  # a full window but for its centre
    for speck in specks:
        with pytest.raises(ValueError, match="^no object in hue band$"):
            segment_frames(speck[None], *HUE_BAND, threshold)
    with pytest.raises(ValueError, match="^no object in hue band$"):
        segment_frames(np.concatenate([frames, specks[:1]]), *HUE_BAND, threshold)


@pytest.mark.parametrize("noise", [0.25, 0.5])
def test_segment_refuses_a_frame_of_in_band_noise_alone(noise):
    # a red shape's frame under a green band holds only the green-hued noise pixels
    for i, kind in enumerate(shapes.SHAPE_KINDS):
        frame, _ = synth_shape(kind, ShapePose(30.0, 0.4 * i, (60, 60)), noise, Rng(41, i))
        segment_object(frame, *HUE_BAND)
        with pytest.raises(ValueError, match="^no object in hue band$"):
            segment_object(frame, 90.0, 150.0)


def test_segment_frames_refuses_a_stack_with_a_frame_out_of_band():
    frames = mixed_frames()[:4]
    frames[2] = solid_square_frame(120, 30, 30, 40, (0, 255, 0))  # green object, red band
    with pytest.raises(ValueError, match="^no object in hue band$"):
        segment_frames(np.stack(frames), *HUE_BAND)


def unit_rgb_reference(h_deg, s, v):
    """HSV (degrees, unit s and v) to unit RGB by ``np.choose`` on 0-d arrays: the
    renderer's colour before it became scalar float math."""
    h = (np.asarray(h_deg, dtype=np.float64) % 360.0) / 60.0
    s = np.asarray(s, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    i = np.floor(h).astype(int) % 6
    f = h - np.floor(h)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return r, g, b


def test_scalar_shape_colour_equals_the_vectorized_formula_bitwise():
    edges = np.arange(-360.0, 721.0, 60.0)  # every sector boundary, the 0/360 wrap among them
    hues = np.concatenate([
        np.linspace(-30.0, 390.0, 1261),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [-1e-300, -0.0, 1e-300, -18.0, 18.0],
    ])
    gen = np.random.default_rng(12)
    levels = np.concatenate([[0.0, 0.5, 1.0], gen.uniform(0.74, 0.94, 5)])
    checked = set()
    for hue in hues.tolist():
        for sat, val in zip(levels.tolist(), gen.permutation(levels).tolist()):
            got = np.array(shapes._unit_rgb(hue, sat, val))
            # the renderer passed the hue through % 360.0 before the formula's own
            expected = np.array([float(c) for c in unit_rgb_reference(hue % 360.0, sat, val)])
            assert got.tobytes() == expected.tobytes(), (hue, sat, val)
        checked.add(int(np.floor(hue % 360.0 / 60.0)) % 6)
    assert checked == set(range(6))
