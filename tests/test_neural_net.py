"""Feedforward classifier: shapes, forward math, gradients vs finite
differences, training behavior, persistence."""

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
    save_mlp,
    train,
)

from conftest import separable_dataset


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
    model.check_shapes()
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
    out = forward(model, np.ones(N_FEATURES))
    assert np.allclose(out, 0.2)


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
    with pytest.raises(ValueError, match="dimension"):
        forward(model, np.ones(7))


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
    x = np.array([1.0, 2.0])
    z1_0 = 1.0 * 1.0 + (-1.0) * 2.0 + 0.0      # -1.0
    z1_1 = 0.5 * 1.0 + 0.5 * 2.0 - 0.25        # 1.25
    a1_0, a1_1 = max(z1_0, 0.0), max(z1_1, 0.0)
    z2_0 = 2.0 * a1_0 + 1.0 * a1_1 + 0.1       # 1.35
    z2_1 = -1.0 * a1_0 + 0.5 * a1_1 + 0.2      # 0.825
    a2_0, a2_1 = max(z2_0, 0.0), max(z2_1, 0.0)
    e0, e1 = math.exp(a2_0), math.exp(a2_1)
    expected = np.array([e0, e1]) / (e0 + e1)
    assert np.allclose(forward(model, x), expected, atol=1e-12)


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
        model = init_model(cfg, n_inputs=6, n_outputs=5)
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


def test_mlp_persistence_round_trip(tmp_path):
    ds = separable_dataset(n_per_label=8, seed=6)
    std = standardize_dataset(standardize_fit(ds), ds)
    model = train(std, TrainConfig(hidden_dims=(7, 5), epochs=3, seed=9))
    model.stats_fingerprint = "abc123def456"
    path = tmp_path / "mlp.model"
    save_mlp(path, model)
    assert path.read_text().startswith("hybrid-ids mlp v1")
    loaded = load_mlp(path)
    assert loaded.stats_fingerprint == "abc123def456"
    assert loaded.dims == model.dims
    for a, b in zip(loaded.weights, model.weights):
        assert np.array_equal(a, b)
    X = np.random.default_rng(0).normal(size=(20, N_FEATURES))
    assert np.array_equal(predict_batch(loaded, X), predict_batch(model, X))
