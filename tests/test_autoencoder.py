import tracemalloc

import numpy as np
import pytest

from elmkit.autoencoder import (
    Autoencoder,
    ae_encode,
    ae_train,
    stack_train,
    stack_transform,
)
from elmkit.elm import elm_predict, elm_train, sigmoid
from elmkit.numerics import Rng, orthonormal_random, ridge_solve, unit_row


@pytest.fixture
def batch():
    return Rng(100).generator().uniform(0.0, 1.0, (10, 4))


def test_equal_mode_reconstructs_training_batch(batch):
    ae = ae_train(batch, 4, 1e6, Rng(1))
    assert ae.mode == "equal"
    assert ae.reconstruction_error < 1e-6


def test_equal_mode_beta_is_near_orthogonal(batch):
    # beta is the transpose of the random rotation, so beta'beta = I to rounding
    ae = ae_train(batch, 4, 1e6, Rng(1))
    assert np.abs(ae.beta.T @ ae.beta - np.eye(4)).max() < 1e-8


def test_compressed_shape_contract(batch):
    ae = ae_train(batch, 2, 100.0, Rng(2))
    assert ae.mode == "compressed"
    assert ae.beta.shape == (2, 4)
    encoded = ae_encode(ae, batch)
    assert encoded.shape == (10, 2)
    assert np.all((encoded > 0.0) & (encoded < 1.0))  # sigmoid range


def test_sparse_shape_contract(batch):
    ae = ae_train(batch, 7, 100.0, Rng(2))
    assert ae.mode == "sparse"
    assert ae.beta.shape == (7, 4)
    assert ae_encode(ae, batch).shape == (10, 7)


def test_sparse_beta_is_the_ridge_fit_through_the_transposed_tall_draw(batch):
    rng, m, n_in = Rng(21), 7, batch.shape[1]
    ae = ae_train(batch, m, 100.0, rng)
    h = sigmoid(batch @ orthonormal_random(m, n_in, rng.split(0)).T + unit_row(m, rng.split(1)))
    assert ae.beta.tobytes() == ridge_solve(h, batch, 100.0).tobytes()


@pytest.mark.parametrize(
    "n_hidden, c, named",
    [(2.7, 10.0, "n_hidden"), (True, 10.0, "n_hidden"), (np.float64(3.0), 10.0, "n_hidden"),
     (3, "1e3", "c must be"), (3, True, "c must be"), (3, None, "c must be")],
)
def test_widths_and_cs_are_refused_not_coerced(batch, n_hidden, c, named):
    with pytest.raises(ValueError, match=named):
        ae_train(batch, n_hidden, c, Rng(0))
    with pytest.raises(ValueError, match=named):
        stack_train(batch, [n_hidden], [c], Rng(0))


@pytest.mark.parametrize("n_hidden", [4, 3], ids=["equal", "compressed"])
@pytest.mark.parametrize("c", [float("nan"), 0.0, -5.0])
def test_a_ridge_constant_that_is_not_positive_is_refused_for_every_width(batch, n_hidden, c):
    with pytest.raises(ValueError, match="c must be a positive real number"):
        ae_train(batch, n_hidden, c, Rng(0))
    assert ae_train(batch, n_hidden, float("inf"), Rng(0)).beta.shape == (n_hidden, 4)


def test_same_seed_identical_beta(batch):
    a = ae_train(batch, 3, 50.0, Rng(9))
    b = ae_train(batch, 3, 50.0, Rng(9))
    assert a.beta.tobytes() == b.beta.tobytes()


def test_equal_layer_encode_is_pure_rotation(batch):
    ae = ae_train(batch, 4, 1e6, Rng(3))
    z = ae_encode(ae, batch)
    # invert through beta: z @ beta == x when beta'beta = I
    np.testing.assert_allclose(z @ ae.beta, batch, atol=1e-8)


def test_identity_beta_encodes_identically(batch):
    ae = Autoencoder(np.eye(4), 0.0)
    assert ae.mode == "equal"
    np.testing.assert_allclose(ae_encode(ae, batch), batch, rtol=0, atol=0)


def test_stack_accepts_empty_layer_list(batch):
    stack, _ = stack_train(batch, [], [], Rng(0))
    assert stack == ()
    assert stack_transform(stack, batch).tobytes() == batch.tobytes()


@pytest.mark.parametrize("sizes", [[], [4], [3, 5, 2]])
def test_stack_train_returns_the_stacks_encoding(batch, sizes):
    stack, encoded = stack_train(batch, sizes, [10.0] * len(sizes), Rng(9))
    transformed = stack_transform(stack, batch)
    assert encoded.shape == transformed.shape and encoded.tobytes() == transformed.tobytes()


def test_stack_rejects_mismatched_cs(batch):
    with pytest.raises(ValueError, match="one c per layer"):
        stack_train(batch, [3], [1.0, 2.0], Rng(0))


def test_single_equal_layer_round_trip(batch):
    stack, _ = stack_train(batch, [4], [1e6], Rng(4))
    z = stack_transform(stack, batch)
    np.testing.assert_allclose(z @ stack[0].beta, batch, atol=1e-6)


def test_stack_chains_dimensions(batch):
    stack, _ = stack_train(batch, [3, 5, 2], [10.0, 10.0, 10.0], Rng(5))
    assert [ae.beta.shape for ae in stack] == [(3, 4), (5, 3), (2, 5)]
    assert stack_transform(stack, batch).shape == (10, 2)


def test_transform_empty_input(batch):
    stack, _ = stack_train(batch, [3], [10.0], Rng(6))
    out = stack_transform(stack, np.zeros((0, 4)))
    assert out.shape == (0, 3)


def test_transform_deterministic(batch):
    stack, _ = stack_train(batch, [3, 3], [10.0, 10.0], Rng(7))
    a = stack_transform(stack, batch)
    b = stack_transform(stack, batch)
    assert a.tobytes() == b.tobytes()


def test_transform_is_stateless_over_row_blocks(batch):
    stack, _ = stack_train(batch, [5, 3], [10.0, 10.0], Rng(8))
    whole = stack_transform(stack, batch)
    parts = np.vstack([stack_transform(stack, batch[:4]), stack_transform(stack, batch[4:])])
    np.testing.assert_allclose(whole, parts, rtol=0, atol=0)


def test_every_layer_projection_is_orthonormal():
    # re-draw the projections the way ae_train does and check the contract
    for rows, cols in [(4, 4), (4, 2), (9, 4)]:
        a = orthonormal_random(rows, cols, Rng(11).split(0))
        assert np.abs(a.T @ a - np.eye(min(rows, cols))).max() < 1e-10


def test_rank_deficient_equal_mode_is_exact():
    # duplicate columns make h singular; beta is still the rotation's
    # transpose, so the round trip holds without any rank condition
    x = np.ones((6, 3)) * np.array([1.0, 1.0, 2.0])
    ae = ae_train(x, 3, 1e6, Rng(12))
    assert np.all(np.isfinite(ae.beta))
    assert ae.reconstruction_error < 1e-12


def test_ill_conditioned_equal_mode_is_the_rotation_transpose():
    # a near-duplicate column: full rank, cond ~ 3e8, which a
    # normal-equation inverse squares past 1/eps
    gen = Rng(13).generator()
    u = gen.standard_normal((20, 4))
    x = np.hstack([u, u[:, :1] + 1e-8 * gen.standard_normal((20, 1))])
    rng = Rng(14)
    ae = ae_train(x, 5, 1e6, rng)
    assert ae.beta.tobytes() == orthonormal_random(5, 5, rng.split(0)).T.tobytes()
    assert np.abs(ae.beta.T @ ae.beta - np.eye(5)).max() < 1e-12
    assert ae.reconstruction_error < 1e-12


def test_ae_train_peak_scales_with_its_input_not_its_square():
    # a compressed layer on 20 rows of 1500 inputs builds nothing of 1500 x 1500 (18 MB)
    x = Rng(15).generator().uniform(0.0, 1.0, (20, 1500))
    ae_train(x[:, :30], 10, 100.0, Rng(16))  # loads the solver before tracing
    tracemalloc.start()
    try:
        ae_train(x, 10, 100.0, Rng(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * x.nbytes  # 3 x here; an n_in x n_in Gram would be 75 x


def test_ae_train_peak_holds_no_input_sized_temporary():
    # the reconstruction residual is summed over row blocks, so neither a compressed nor an
    # equal layer on 2000 rows of 400 inputs forms a (2000, 400) array beside its input
    x = Rng(17).generator().uniform(0.0, 1.0, (2000, 400))
    ae_train(x[:50, :30], 10, 100.0, Rng(18))  # loads the solver before tracing
    for n_hidden in (10, 400):
        tracemalloc.start()
        try:
            ae_train(x, n_hidden, 100.0, Rng(18))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes, (n_hidden, peak)


@pytest.mark.parametrize("call, width, bound", [
    ("ae_train", 300, 2.0),
    ("ae_train", 600, 2.0),
    ("elm_train", 300, 1.6),
    ("ae_encode", 300, 1.25),
    ("elm_predict", 300, 1.25),
])
def test_hidden_layer_holds_one_rows_by_width_array(call, width, bound):
    # each hidden layer adds its bias and squashes in the array its matmul returns, so a layer
    # of width w on 2000 rows of 400 inputs peaks under `bound` (2000, w) float64 arrays
    x = Rng(17).generator().uniform(0.0, 1.0, (2000, 400))
    t = np.eye(3)[np.arange(x.shape[0]) % 3]
    ae = ae_train(x, width, 100.0, Rng(18))  # also loads the solver before tracing
    model, _ = elm_train(x, t, width, 100.0, Rng(19))
    run = {
        "ae_train": lambda: ae_train(x, width, 100.0, Rng(18)),
        "elm_train": lambda: elm_train(x, t, width, 100.0, Rng(19)),
        "ae_encode": lambda: ae_encode(ae, x),
        "elm_predict": lambda: elm_predict(model, x),
    }[call]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * x.shape[0] * width * 8, (call, width, peak / (x.shape[0] * width * 8))
