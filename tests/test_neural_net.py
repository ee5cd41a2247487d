"""Feedforward classifier: shapes, forward math, gradients vs finite
differences, training behavior, damaged model files. The rest of the file
format is tested in test_artifacts.py."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hybrid_ids.dataset import CoarseLabel, Dataset, N_FEATURES, standardize_dataset, standardize_fit
from hybrid_ids.neural_net import (
    MLPModel,
    TrainConfig,
    cross_validate,
    forward,
    init_model,
    load_mlp,
    loss_and_gradient,
    predict_batch,
    train,
)

from conftest import expect_load_error, separable_dataset
from test_artifacts import saved


def zero_model(dims=(N_FEATURES, 8, 6, 5)) -> MLPModel:
    return MLPModel(
        dims=list(dims),
        weights=[np.zeros((dims[l + 1], dims[l])) for l in range(3)],
        biases=[np.zeros(dims[l + 1]) for l in range(3)],
    )


def bias_only_model(output_bias) -> MLPModel:
    model = zero_model()
    model.biases[2] = np.asarray(output_bias, dtype=np.float64)
    return model


def test_init_is_deterministic():
    cfg = TrainConfig(seed=42)
    a = init_model(cfg)
    b = init_model(cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_shapes_chain():
    model = init_model(TrainConfig(hidden_dims=(64, 32), seed=0))
    assert model.dims == [41, 64, 32, 5]
    assert model.weights[0].shape == (64, 41)
    assert model.weights[1].shape == (32, 64)
    assert model.weights[2].shape == (5, 32)
    assert [b.shape for b in model.biases] == [(64,), (32,), (5,)]
    for w in model.weights:
        assert np.all(np.isfinite(w))
    for b in model.biases:
        assert np.all(b == 0.0)


def test_init_respects_glorot_bounds():
    model = init_model(TrainConfig(hidden_dims=(64, 32), seed=1))
    bound0 = math.sqrt(6.0 / (41 + 64))
    assert np.all(np.abs(model.weights[0]) <= bound0)


def test_zero_model_gives_uniform_outputs():
    model = zero_model()
    out = forward(model, np.ones((3, N_FEATURES)))
    assert out.shape == (3, 5) and np.allclose(out, 0.2)


def test_forward_sums_to_one():
    rng = np.random.default_rng(0)
    model = init_model(TrainConfig(hidden_dims=(10, 7), seed=5))
    X = rng.normal(size=(50, N_FEATURES))
    probs = forward(model, X)
    assert probs.shape == (50, 5)
    assert np.all(probs >= 0) and np.all(probs <= 1)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forward_dimension_mismatch():
    model = zero_model()
    for X in (np.ones((2, 7)), np.ones(N_FEATURES)):  # a single vector is not rows
        with pytest.raises(ValueError, match="dimension"):
            forward(model, X)


def test_forward_matches_hand_computed_chain():
    # 2-2-2-2 network checked coordinate by coordinate with scalar math
    model = MLPModel(
        dims=[2, 2, 2, 2],
        weights=[
            np.array([[1.0, -1.0], [0.5, 0.5]]),
            np.array([[2.0, 1.0], [-1.0, 0.5]]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        ],
        biases=[np.array([0.0, -0.25]), np.array([0.1, 0.2]), np.zeros(2)],
    )
    X = np.array([[1.0, 2.0]])
    z1_0 = 1.0 * 1.0 + (-1.0) * 2.0 + 0.0      # -1.0
    z1_1 = 0.5 * 1.0 + 0.5 * 2.0 - 0.25        # 1.25
    a1_0, a1_1 = max(z1_0, 0.0), max(z1_1, 0.0)
    z2_0 = 2.0 * a1_0 + 1.0 * a1_1 + 0.1       # 1.35
    z2_1 = -1.0 * a1_0 + 0.5 * a1_1 + 0.2      # 0.825
    a2_0, a2_1 = max(z2_0, 0.0), max(z2_1, 0.0)
    e0, e1 = math.exp(a2_0), math.exp(a2_1)
    expected = np.array([e0, e1]) / (e0 + e1)
    probs = forward(model, X)
    assert probs.shape == (1, 2) and np.allclose(probs[0], expected, atol=1e-12)


def test_loss_perfect_prediction_is_zero():
    # bias pushes all mass onto class 0; loss -log(p0) ~ 0
    model = bias_only_model([50.0, 0.0, 0.0, 0.0, 0.0])
    X = np.zeros((4, N_FEATURES))
    y = np.zeros(4, dtype=int)
    loss, _ = loss_and_gradient(model, X, y)
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_loss_uniform_prediction_is_ln5():
    model = zero_model()
    X = np.zeros((3, N_FEATURES))
    y = np.array([0, 2, 4])
    loss, _ = loss_and_gradient(model, X, y)
    assert loss == pytest.approx(math.log(5.0), abs=1e-12)


def test_gradients_match_central_finite_differences():
    # relative error < 1e-4 over 20 random toy models
    step = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(hidden_dims=(4, 3), seed=seed)
        model = init_model(cfg, n_inputs=6)
        # random biases keep pre-activations off the rectifier kink at 0,
        # where central differences are one-sided
        model.biases = [rng.normal(0.0, 0.3, size=b.shape) for b in model.biases]
        X = rng.normal(size=(8, 6))
        y = rng.integers(0, 5, size=8)
        _, (gw, gb) = loss_and_gradient(model, X, y)

        def numeric(param, index):
            orig = param[index]
            param[index] = orig + step
            up, _ = loss_and_gradient(model, X, y)
            param[index] = orig - step
            down, _ = loss_and_gradient(model, X, y)
            param[index] = orig
            return (up - down) / (2 * step)

        for l in range(3):
            w = model.weights[l]
            for index in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                approx = numeric(w, index)
                exact = gw[l][index]
                denom = max(abs(approx), abs(exact), 1e-8)
                assert abs(approx - exact) / denom < 1e-4
            approx_b = numeric(model.biases[l], (0,))
            denom = max(abs(approx_b), abs(gb[l][0]), 1e-8)
            assert abs(approx_b - gb[l][0]) / denom < 1e-4


def test_train_separates_blobs():
    rng = np.random.default_rng(1)
    n = 60
    X = np.vstack([
        rng.normal(-2.0, 0.4, size=(n, N_FEATURES)),
        rng.normal(2.0, 0.4, size=(n, N_FEATURES)),
    ])
    coarse = [0] * n + [1] * n
    ds = Dataset(X, ["normal"] * n + ["neptune"] * n, coarse)
    model = train(ds, TrainConfig(hidden_dims=(8, 6), epochs=200, seed=0,
                                  learning_rate=0.05, batch_size=16))
    preds = predict_batch(model, X)
    assert np.array_equal(preds, np.array(coarse))


def test_train_zero_epochs_returns_init():
    ds = separable_dataset(n_per_label=4, seed=0)
    cfg = TrainConfig(epochs=0, seed=7)
    trained = train(ds, cfg)
    fresh = init_model(cfg)
    for a, b in zip(trained.weights, fresh.weights):
        assert np.array_equal(a, b)


def test_train_deterministic():
    ds = separable_dataset(n_per_label=10, seed=2)
    std = standardize_dataset(standardize_fit(ds), ds)
    cfg = TrainConfig(hidden_dims=(8, 5), epochs=5, seed=3)
    a = train(std, cfg)
    b = train(std, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_train_aborts_on_divergence():
    ds = separable_dataset(n_per_label=10, seed=2)
    cfg = TrainConfig(epochs=5, seed=0, learning_rate=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="diverged"):
            train(ds, cfg)


def test_predict_argmax_and_ties():
    probs = [0.1, 0.7, 0.1, 0.05, 0.05]
    model = bias_only_model(np.log(probs))
    assert predict_batch(model, np.zeros((1, N_FEATURES))).tolist() == [CoarseLabel.DOS]
    tie = bias_only_model([3.0, 3.0, 0.0, 0.0, 0.0])
    assert predict_batch(tie, np.zeros((1, N_FEATURES))).tolist() == [CoarseLabel.NORMAL]
    assert predict_batch(zero_model(), np.ones((1, N_FEATURES))).tolist() == [CoarseLabel.NORMAL]


def test_predict_invariant_under_logit_shift():
    rng = np.random.default_rng(4)
    for seed in range(5):
        model = init_model(TrainConfig(hidden_dims=(6, 4), seed=seed))
        shifted = MLPModel(
            dims=model.dims,
            weights=[w.copy() for w in model.weights],
            biases=[b.copy() for b in model.biases],
        )
        shifted.biases[2] = shifted.biases[2] + 17.5
        X = rng.normal(size=(30, N_FEATURES))
        assert np.array_equal(predict_batch(model, X), predict_batch(shifted, X))


def test_cross_validate_identical_class_has_full_recall():
    rng = np.random.default_rng(5)
    n = 40
    fixed_row = np.full(N_FEATURES, 5.0)
    X = np.vstack([
        np.tile(fixed_row, (n, 1)),
        rng.normal(0.0, 0.5, size=(n, N_FEATURES)),
    ])
    ds = Dataset(X, ["neptune"] * n + ["normal"] * n, [1] * n + [0] * n)
    std = standardize_dataset(standardize_fit(ds), ds)
    from hybrid_ids.dataset import stratified_kfold
    from hybrid_ids.neural_net import train as nn_train

    cfg = TrainConfig(hidden_dims=(8, 6), epochs=120, seed=0, learning_rate=0.05,
                      batch_size=16)
    for train_ds, val_ds in stratified_kfold(std, 2, seed=1):
        model = nn_train(train_ds, cfg)
        preds = predict_batch(model, val_ds.X)
        dos_mask = val_ds.coarse == 1
        assert np.all(preds[dos_mask] == 1)


def test_cross_validate_leave_one_out_fold_arithmetic():
    X = np.arange(6 * N_FEATURES, dtype=float).reshape(6, N_FEATURES)
    ds = Dataset(X, ["normal"] * 6, [0] * 6)
    cfg = TrainConfig(hidden_dims=(3, 3), epochs=1, seed=0)
    result = cross_validate(ds, 6, cfg)
    assert len(result.fold_accuracies) == 6
    assert result.mean_accuracy == pytest.approx(100.0)


def test_save_mlp_writes_the_fixed_activations_line(tmp_path):
    _, lines = saved("mlp", tmp_path)
    assert lines[:4] == ["hybrid-ids mlp v1", "stats_id=abc123def456",
                         "dims=41,3,2,5", "activations=relu,relu,softmax"]
    assert [line.split()[0] for line in lines[4:]] == ["W0", "b0", "W1", "b1", "W2", "b2"]


@pytest.mark.parametrize("index, edit, match", [
    (0, lambda line: "hybrid-ids mlp v2", "expected format line"),
    (1, lambda line: "stats=abc", "expected 'stats_id='"),
    (2, lambda line: "dims=41,3,2", "expected dims="),
    (2, lambda line: "dims=41,3,2,5,5", "expected dims="),
    (2, lambda line: "dims=41,0,2,5", "expected dims="),
    (2, lambda line: "dims=41,3,2,4", "expected dims="),
    (2, lambda line: "dims=41,3,x,5", "dimension 'x' is not a valid int"),
    (3, lambda line: "activations=sigmoid,sigmoid,softmax", "expected activations=relu,relu,softmax"),
    (3, lambda line: "activation=relu,relu,softmax", "expected 'activations='"),
    (4, lambda line: line.replace("W0", "W1", 1), "expected 'W0 <values>', got 'W1'"),
    (5, lambda line: line.rsplit(" ", 1)[0], "expected 3 b0 values, got 2"),
    (6, lambda line: line + " 0.5", "expected 6 W1 values, got 7"),
    (7, lambda line: "b1", "expected 2 b1 values, got 0"),
    (8, lambda line: line.replace(" ", " nan ", 1).rsplit(" ", 1)[0], "non-finite W2 value"),
    (9, lambda line: line.replace(" ", " 1e400 ", 1).rsplit(" ", 1)[0], "non-finite b2 value"),
    (9, lambda line: line.replace(" ", " x ", 1), "b2 'x' is not a valid float"),
])
def test_load_mlp_garbled(tmp_path, index, edit, match):
    """One line of the artifact sample edited: the error names that line."""
    path, lines = saved("mlp", tmp_path)
    lines[index] = edit(lines[index])
    expect_load_error(load_mlp, path, lines, index + 1, match)
