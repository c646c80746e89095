"""Affinity construction vs product/pairwise oracles, closure properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densedistill.affinity import (
    SdAttentionStack,
    complete_affinity,
    dump_attention_analysis,
    fuse_sd_attention,
    synth_sd_attention,
    vfm_affinity,
)
from densedistill.container import read_tensor
from densedistill.errors import (DegenerateInputError, DistributionError, EvaluationError,
                                 ParameterError, ShapeError)
from densedistill.tensor import _softmax_rows
from densedistill.vit import VitParams, capture_attention


def chain_oracle(maps):
    out = maps[0]
    for m in maps[1:]:
        acc = np.zeros_like(out)
        for i in range(out.shape[0]):
            for j in range(m.shape[1]):
                acc[i, j] = sum(out[i, t] * m[t, j] for t in range(m.shape[0]))
        out = acc
    return out


def stochastic_maps(rng, length, hw):
    logits = rng.standard_normal((length, hw, hw)) * 2.0
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


# --- vfm_affinity -----------------------------------------------------------------

def test_vfm_affinity_identical_tokens():
    out = vfm_affinity(np.array([[1.0, 2.0], [1.0, 2.0]]))
    np.testing.assert_allclose(out, 1.0)


def test_vfm_affinity_orthogonal_pair():
    out = vfm_affinity(np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(out, np.eye(2), atol=1e-15)


def test_vfm_affinity_matches_pair_oracle():
    rng = np.random.default_rng(0)
    toks = rng.standard_normal((9, 4))
    got = vfm_affinity(toks)
    for i in range(9):
        for j in range(9):
            want = float(toks[i] @ toks[j]) / (np.linalg.norm(toks[i]) * np.linalg.norm(toks[j]))
            assert abs(got[i, j] - want) < 1e-6
    assert got.shape == (9, 9)


def test_vfm_affinity_scale_invariance():
    rng = np.random.default_rng(1)
    toks = rng.standard_normal((9, 5))
    scales = rng.uniform(0.1, 10.0, (9, 1))
    a = vfm_affinity(toks)
    b = vfm_affinity(toks * scales)
    assert np.abs(a - b).max() < 1e-6


def test_vfm_affinity_zero_norm():
    with pytest.raises(DegenerateInputError, match="provider tokens"):
        vfm_affinity(np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_vfm_affinity_refuses_a_token_whose_square_overflows():
    # 1e200 squared is inf: its unit row would be all zeros off the diagonal
    toks = np.random.default_rng(2).standard_normal((4, 3))
    toks[1, 0] = 1e200
    with pytest.raises(EvaluationError):
        vfm_affinity(toks)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.integers(2, 24), st.integers(1, 6),
       st.sampled_from(["plain", "near-duplicate", "rescaled"]))
def test_vfm_affinity_symmetric_unit_diagonal_bounded(seed, n, d, variant):
    rng = np.random.default_rng(seed)
    toks = rng.standard_normal((n, d))
    if variant == "near-duplicate":
        # each token a hair away from token 0: raw cosines round to just above 1
        toks = toks[:1] + 1e-9 * rng.standard_normal((n, d))
    elif variant == "rescaled":
        toks = toks * 10.0 ** rng.uniform(-150, 150, (n, 1))
    s = vfm_affinity(toks)
    assert s.dtype == np.float64 and s.shape == (n, n)
    np.testing.assert_array_equal(s, s.T)
    np.testing.assert_array_equal(np.diag(s), 1.0)
    assert s.min() >= -1.0 and s.max() <= 1.0

# --- fuse_sd_attention ---------------------------------------------------------------

def test_fuse_single_slice_identity():
    rng = np.random.default_rng(2)
    maps = stochastic_maps(rng, 1, 4)
    np.testing.assert_array_equal(fuse_sd_attention(SdAttentionStack(maps=maps)), maps[0])


def test_fuse_identity_slices():
    eye = np.stack([np.eye(4)] * 3)
    np.testing.assert_array_equal(fuse_sd_attention(SdAttentionStack(maps=eye)), np.eye(4))


def test_fuse_matches_product_oracle():
    rng = np.random.default_rng(3)
    maps = stochastic_maps(rng, 2, 4)
    got = fuse_sd_attention(SdAttentionStack(maps=maps))
    assert np.abs(got - chain_oracle(maps)).max() < 1e-12
    assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-12


def test_fuse_rejects_non_stochastic():
    with pytest.raises(DistributionError):
        SdAttentionStack(maps=np.ones((1, 3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stack_rejects_non_finite_maps(bad):
    maps = np.full((2, 4, 4), 0.25)
    maps[1, 2, 3] = bad
    with pytest.raises(DistributionError, match="finite and row-stochastic"):
        SdAttentionStack(maps=maps)


@pytest.mark.parametrize("shape", [(4, 4), (0, 4, 4), (2, 4, 3)])
def test_stack_rejects_a_shape_other_than_l_n_n(shape):
    with pytest.raises(ShapeError):
        SdAttentionStack(maps=np.full(shape, 0.25))


def test_fuse_rejects_a_product_drifting_past_tolerance():
    # each slice passes its own 1e-6 row-sum check; their product does not
    maps = np.full((2, 4, 4), (1.0 + 0.9e-6) / 4)
    stack = SdAttentionStack(maps=maps)
    with pytest.raises(DistributionError):
        fuse_sd_attention(stack)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.sampled_from([4, 9, 16, 64]))
def test_fuse_stochastic_closure_property(seed, length, hw):
    rng = np.random.default_rng(seed)
    fused = fuse_sd_attention(SdAttentionStack(maps=stochastic_maps(rng, length, hw)))
    assert np.abs(fused.sum(axis=1) - 1.0).max() < 1e-9
    assert fused.min() >= 0.0


def test_fuse_associative_regrouping():
    rng = np.random.default_rng(4)
    a1, a2, a3 = stochastic_maps(rng, 3, 5)
    left = (a1 @ a2) @ a3
    right = a1 @ (a2 @ a3)
    assert np.abs(left - right).max() < 1e-9


# --- complete_affinity ------------------------------------------------------------------

def _cosine_of(rng, hw):
    return vfm_affinity(rng.standard_normal((hw, 4)))


def test_complete_identity_passthrough():
    rng = np.random.default_rng(5)
    s = _cosine_of(rng, 4)
    np.testing.assert_array_equal(complete_affinity(np.eye(4), s), s)


def test_complete_one_hot_selects_row():
    rng = np.random.default_rng(6)
    s = _cosine_of(rng, 4)
    rows = np.zeros((4, 4))
    rows[:, 2] = 1.0  # every row selects affinity row 2
    out = complete_affinity(rows, s)
    for i in range(4):
        np.testing.assert_array_equal(out[i], s[2])


def test_complete_matches_product_oracle_and_bounds():
    rng = np.random.default_rng(7)
    s = _cosine_of(rng, 6)
    maps = stochastic_maps(rng, 1, 6)
    got = complete_affinity(maps[0], s)
    assert np.abs(got - chain_oracle([maps[0], s])).max() < 1e-9
    assert got.min() >= -1 - 1e-9 and got.max() <= 1 + 1e-9
    # convexity: each output row bounded by that column's min/max over s rows
    assert (got >= s.min(axis=0)[None, :] - 1e-9).all()
    assert (got <= s.max(axis=0)[None, :] + 1e-9).all()


def test_complete_shape_mismatch():
    rng = np.random.default_rng(8)
    s = _cosine_of(rng, 4)
    with pytest.raises(ShapeError):
        complete_affinity(np.eye(9), s)


def test_complete_refuses_a_result_outside_unit_range():
    # rows summing to 1 with a negative weight are no convex combination
    with pytest.raises(EvaluationError, match=r"escaped \[-1, 1\]"):
        complete_affinity(np.array([[2.0, -1.0], [0.0, 1.0]]),
                          np.array([[1.0, -1.0], [-1.0, 1.0]]))


@pytest.mark.parametrize("side", ["fused", "affinity"])
def test_complete_refuses_a_nan_input(side):
    # a NaN fails both range comparisons, so only a check stated as what
    # must hold refuses it
    fused, s = np.eye(2), np.array([[1.0, -0.5], [-0.5, 1.0]])
    (fused if side == "fused" else s)[1, 0] = np.nan
    with pytest.raises(EvaluationError, match=r"escaped \[-1, 1\]"):
        complete_affinity(fused, s)


# --- synth_sd_attention ----------------------------------------------------------------

def test_synth_sharpness_limit_block_uniform():
    seg = np.array([[0, 0], [1, 1]])
    stack = synth_sd_attention(seg, sharpness=60.0, rng=np.random.default_rng(0),
                               num_maps=2, noise_std=0.0)
    want = np.zeros((4, 4))
    want[:2, :2] = 0.5
    want[2:, 2:] = 0.5
    assert np.abs(stack.maps - want[None]).max() < 1e-15


def test_synth_zero_sharpness_uniform():
    seg = np.arange(4).reshape(2, 2)
    stack = synth_sd_attention(seg, sharpness=0.0, rng=np.random.default_rng(0),
                               num_maps=1, noise_std=0.0)
    np.testing.assert_allclose(stack.maps, 0.25)


@pytest.mark.parametrize("sharpness,noise_std", [(4.0, 0.5), (2.5, 0.0), (0.0, 1.0)])
def test_synth_maps_equal_the_per_map_formula_bitwise(sharpness, noise_std):
    # the stack is written in place; each map is still the row softmax of
    # sharpness * same + noise_std * noise, drawn map by map
    seg = np.random.default_rng(60).integers(0, 3, size=(5, 6))
    flat = seg.reshape(-1)
    same = (flat[:, None] == flat[None, :]).astype(np.float64)
    rng = np.random.default_rng(61)
    want = []
    for _ in range(3):
        logits = sharpness * same
        if noise_std:
            logits = logits + noise_std * rng.standard_normal(same.shape)
        want.append(_softmax_rows(logits, 1.0))
    stack = synth_sd_attention(seg, sharpness, np.random.default_rng(61), 3, noise_std)
    assert stack.maps.tobytes() == np.stack(want).tobytes()


def test_synth_empty_map_rejected():
    with pytest.raises(ParameterError):
        synth_sd_attention(np.zeros((0, 0), dtype=int), 1.0, np.random.default_rng(0), 3, 0.5)


def test_completion_raises_within_segment_mass():
    # noisy instance with "holes": a sixth of the tokens carry the wrong
    # class signature, so their affinity rows point at the other segment
    rng = np.random.default_rng(42)
    side = 8
    seg = np.repeat(np.arange(2), side * side // 2).reshape(side, side)
    flat = seg.reshape(-1)
    same = flat[:, None] == flat[None, :]
    protos = rng.standard_normal((2, 8)) * 3.0
    toks = protos[flat] + 0.5 * rng.standard_normal((side * side, 8))
    holes = rng.choice(side * side, size=side * side // 6, replace=False)
    toks[holes] = protos[1 - flat[holes]] + 0.5 * rng.standard_normal((len(holes), 8))
    s_vfm = vfm_affinity(toks)
    stack = synth_sd_attention(seg, sharpness=4.0, rng=rng, num_maps=3, noise_std=0.5)
    completed = complete_affinity(fuse_sd_attention(stack), s_vfm)

    def within_mass(values, tau=0.25):
        z = values / tau
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        return p[same].sum() / p.shape[0]

    assert within_mass(completed) > within_mass(s_vfm)


# --- dump_attention_analysis --------------------------------------------------------------

def test_dump_attention_analysis(tmp_path):
    params = VitParams(patch_size=4, depth=2, width=8, heads=2, input_res=8, seed=0)
    image = np.random.default_rng(9).uniform(0, 1, (3, 8, 8))
    written = dump_attention_analysis(params, image, layers=[0, 1], query_index="cls",
                                      out_dir=str(tmp_path))
    assert len(written) == 5
    side = read_tensor(str(tmp_path / "attention_analysis.dten"))
    # row sums of every dumped mean map are 1 before upsampling
    for layer in (0, 1):
        mean = side[f"layer{layer}.mean"]
        assert np.abs(mean.sum(axis=1) - 1.0).max() < 1e-6
        assert abs(side[f"layer{layer}.query_row"].sum() - 1.0) < 1e-6
    # CLS query row on layer 0 equals capture_attention row 0, head-averaged
    [maps] = capture_attention(image, params, [0])
    np.testing.assert_allclose(side["layer0.query_row"], maps.mean(axis=2)[0], atol=1e-6)
    # P5 headers present
    for name in ("layer0_full.pgm", "layer1_query.pgm"):
        blob = (tmp_path / name).read_bytes()
        assert blob.startswith(b"P5\n")


def test_dump_runs_one_forward_for_every_layer(tmp_path, monkeypatch):
    import densedistill.vit as vit

    params = VitParams(patch_size=4, depth=4, width=8, heads=2, input_res=8, seed=3)
    image = np.random.default_rng(11).uniform(0, 1, (3, 8, 8))
    means = [capture_attention(image, params, [layer])[0].mean(axis=2) for layer in range(4)]
    block, ran = vit.attention_block, []

    def counted(x, p, layer):
        ran.append(layer)
        return block(x, p, layer)

    monkeypatch.setattr(vit, "attention_block", counted)
    dump_attention_analysis(params, image, layers=[0, 1, 2, 3], query_index="cls",
                            out_dir=str(tmp_path))
    assert ran == [0, 1, 2]
    side = read_tensor(str(tmp_path / "attention_analysis.dten"))
    for layer, mean in enumerate(means):
        assert side[f"layer{layer}.mean"].tobytes() == mean.tobytes()


def test_dump_identity_resample():
    # upsample by factor 1 is the identity
    params = VitParams(patch_size=1, depth=1, width=4, heads=1, input_res=3, seed=1)
    image = np.random.default_rng(10).uniform(0, 1, (3, 3, 3))
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        dump_attention_analysis(params, image, layers=[0], query_index=4, out_dir=d)
        side = read_tensor(f"{d}/attention_analysis.dten")
        row_grid = side["layer0.query_row"][1:].reshape(3, 3)
        np.testing.assert_allclose(side["layer0.query_upsampled"], row_grid, atol=1e-12)


def test_dump_invalid_query():
    params = VitParams(patch_size=4, depth=1, width=4, heads=1, input_res=8, seed=2)
    image = np.zeros((3, 8, 8))
    with pytest.raises(ParameterError):
        dump_attention_analysis(params, image, layers=[0], query_index=99, out_dir="/tmp/x")


@pytest.mark.parametrize("layers,query,named", [
    ([0], True, "got True"), ([0], 2.7, "got 2.7"), ([0], "2", "got '2'"),
    ([True], "cls", "got True"), ([1.0], 0, "got 1.0")])
def test_dump_refuses_an_index_that_is_not_an_int_before_writing(tmp_path, layers, query, named):
    # a bool or a float is no index: query True would read token 1 and
    # layer True name its files layerTrue_*
    params = VitParams(patch_size=4, depth=2, width=4, heads=1, input_res=8, seed=2)
    out_dir = tmp_path / "dumps"
    with pytest.raises(ParameterError, match=named):
        dump_attention_analysis(params, np.zeros((3, 8, 8)), layers=layers, query_index=query,
                                out_dir=str(out_dir))
    assert not out_dir.exists()
