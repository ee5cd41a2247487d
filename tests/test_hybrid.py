"""Hybrid pipeline: routing rule, stage-vote provenance, alarm trimming,
composition consistency, manifest persistence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybrid_ids import centroids as misuse
from hybrid_ids import neural_net as nn
from hybrid_ids import random_forest as rf
from hybrid_ids.centroids import CentroidModel
from hybrid_ids.dataset import (
    CoarseLabel,
    Dataset,
    N_FEATURES,
    StandardizationStats,
    parse_kdd_line,
    standardize_dataset,
    standardize_fit,
    stratified_split,
)
from hybrid_ids.hybrid import (
    HybridConfig,
    HybridModel,
    load_hybrid,
    predict_dataset,
    route,
    save_hybrid,
    train_all,
)
from hybrid_ids.neural_net import TrainConfig
from hybrid_ids.random_forest import ForestConfig

from conftest import expect_load_error, make_kdd_line, separable_dataset

NORMAL, DOS, PROBE = CoarseLabel.NORMAL, CoarseLabel.DOS, CoarseLabel.PROBE


def test_route_truth_table():
    assert route(NORMAL, NORMAL) is False
    assert route(DOS, NORMAL) is True
    assert route(NORMAL, DOS) is True
    assert route(DOS, DOS) is True
    assert route(DOS, PROBE) is True
    # the batched path routes whole vote arrays with the same rule
    nn_votes = np.array([NORMAL, DOS, NORMAL, DOS, DOS])
    rf_votes = np.array([NORMAL, NORMAL, DOS, DOS, PROBE])
    assert route(nn_votes, rf_votes).tolist() == [False, True, True, True, True]


def test_route_symmetric():
    for a in CoarseLabel:
        for b in CoarseLabel:
            assert route(a, b) == route(b, a)


def _forced_mlp(cls: CoarseLabel) -> nn.MLPModel:
    model = nn.MLPModel(
        dims=[N_FEATURES, 4, 4, 5],
        weights=[np.zeros((4, N_FEATURES)), np.zeros((4, 4)), np.zeros((5, 4))],
        biases=[np.zeros(4), np.zeros(4), np.zeros(5)],
    )
    model.biases[2][int(cls)] = 10.0
    return model


def _forced_forest(cls: CoarseLabel) -> rf.ForestModel:
    counts = np.zeros(5, dtype=np.int64)
    counts[int(cls)] = 7
    leaf = [-1], [0.0], [-1], [counts]  # a one-node tree
    return rf.ForestModel.from_trees(
        [leaf],
        feature_importances=np.zeros(N_FEATURES),
        active_features=np.arange(N_FEATURES),
    )


def _stub_hybrid(nn_vote, rf_vote, normal_at, attack_at) -> HybridModel:
    centroids = CentroidModel(["neptune", "normal"], np.array([int(DOS), int(NORMAL)]),
                              np.stack([attack_at, normal_at]), np.ones(2, dtype=np.int64))
    return HybridModel(
        mlp=_forced_mlp(nn_vote),
        forest=_forced_forest(rf_vote),
        centroids=centroids,
        stats=StandardizationStats(np.zeros(N_FEATURES), np.ones(N_FEATURES)),
    )


def _normal_record():
    return parse_kdd_line(make_kdd_line("normal", np.random.default_rng(0)))


def _predict_one(h: HybridModel, x: np.ndarray):
    """The batched chain on a one-row dataset."""
    preds, stats = predict_dataset(h, Dataset(x[None, :], ["normal"], [int(NORMAL)]))
    assert len(preds) == 1 and stats.total == 1
    return preds[0]


def test_predict_not_routed_when_both_normal():
    x = _normal_record().x
    h = _stub_hybrid(NORMAL, NORMAL, normal_at=x, attack_at=x + 100.0)
    pred = _predict_one(h, x)
    assert pred.routed is False
    assert pred.coarse == NORMAL
    assert pred.fine is None
    assert pred.misuse_vote is None
    assert pred.nn_vote == NORMAL and pred.rf_vote == NORMAL


def test_predict_consistent_attack_chain():
    x = _normal_record().x
    h = _stub_hybrid(DOS, DOS, normal_at=x + 100.0, attack_at=x)
    pred = _predict_one(h, x)
    assert pred.routed is True
    assert pred.coarse == DOS
    assert pred.fine == "neptune"
    assert pred.misuse_vote == DOS


def test_predict_verify_mode_trims_false_positive():
    x = _normal_record().x
    h = _stub_hybrid(PROBE, NORMAL, normal_at=x, attack_at=x + 100.0)
    pred = _predict_one(h, x)
    assert pred.routed is True
    assert pred.coarse == NORMAL  # alarm trimmed by the misuse stage
    assert pred.fine == "normal"
    assert pred.misuse_vote == NORMAL
    assert pred.nn_vote == PROBE and pred.rf_vote == NORMAL


def test_predict_disagreeing_attacks_arbitrated_by_misuse():
    x = _normal_record().x
    h = _stub_hybrid(DOS, PROBE, normal_at=x + 100.0, attack_at=x)
    pred = _predict_one(h, x)
    assert pred.routed is True
    assert pred.coarse == DOS
    assert pred.fine == "neptune"


def test_fine_present_iff_routed():
    x = _normal_record().x
    for votes in [(NORMAL, NORMAL), (DOS, NORMAL), (DOS, DOS)]:
        h = _stub_hybrid(*votes, normal_at=x, attack_at=x + 100.0)
        pred = _predict_one(h, x)
        assert (pred.fine is not None) == pred.routed
        assert (pred.misuse_vote is not None) == pred.routed


def test_batch_predict_empty():
    h = _stub_hybrid(NORMAL, NORMAL,
                     normal_at=np.zeros(N_FEATURES), attack_at=np.ones(N_FEATURES))
    preds, stats = predict_dataset(h, Dataset(np.empty((0, N_FEATURES)), [], []))
    assert len(preds) == 0 and list(preds) == []
    assert stats.total == 0 and stats.routed == 0
    assert stats.trimmed == 0 and stats.confirmed == 0


def test_batch_predict_stats_partition():
    ds = separable_dataset(n_per_label=12, seed=1)
    train, test = stratified_split(ds, 0.25, seed=0)
    h = train_all(train, _fast_config())
    _, stats = predict_dataset(h, test)
    assert stats.routed == stats.trimmed + stats.confirmed
    assert 0 < stats.routed < stats.total  # attacks and normals both present


def _fast_config() -> HybridConfig:
    return HybridConfig(
        nn=TrainConfig(hidden_dims=(16, 8), epochs=60, seed=2, learning_rate=0.05,
                       batch_size=16),
        rf=ForestConfig(n_trees=5, seed=3),
    )


def test_train_all_submodels_match_standalone_runs():
    ds = separable_dataset(n_per_label=10, seed=2)
    cfg = _fast_config()
    h = train_all(ds, cfg)

    stats = standardize_fit(ds)
    std = standardize_dataset(stats, ds)
    probe = np.random.default_rng(5).normal(size=(40, N_FEATURES))

    mlp = nn.train(std, cfg.nn)
    assert np.array_equal(nn.predict_batch(h.mlp, probe), nn.predict_batch(mlp, probe))

    forest = rf.train_forest(std, cfg.rf)
    forest = rf.prune_and_retrain(std, forest, cfg.rf)
    assert np.array_equal(rf.predict_batch(h.forest, probe), rf.predict_batch(forest, probe))

    cen = misuse.fit(std)
    got_a, _ = misuse.assign_batch(h.centroids, probe)
    got_b, _ = misuse.assign_batch(cen, probe)
    assert np.array_equal(got_a, got_b)


def test_train_all_deterministic_end_to_end():
    ds = separable_dataset(n_per_label=10, seed=3)
    test = separable_dataset(n_per_label=5, seed=33)
    a = train_all(ds, _fast_config())
    b = train_all(ds, _fast_config())
    preds_a, _ = predict_dataset(a, test)
    preds_b, _ = predict_dataset(b, test)
    assert list(preds_a) == list(preds_b)


def test_verdict_columns_equal_their_rows():
    ds = separable_dataset(n_per_label=14, seed=4, spread=2.0)
    train, test = stratified_split(ds, 0.3, seed=1)
    h = train_all(train, _fast_config())
    verdicts, stats = predict_dataset(h, test)
    rows = list(verdicts)
    assert len(verdicts) == len(rows) == len(test)
    assert [verdicts[i] for i in range(len(test))] == rows
    assert verdicts[-1] == rows[-1]
    for column in (verdicts.nn_votes, verdicts.rf_votes, verdicts.entry, verdicts.coarse):
        assert column.dtype.kind == "i"
    assert verdicts.nn_votes.tolist() == [int(p.nn_vote) for p in rows]
    assert verdicts.rf_votes.tolist() == [int(p.rf_vote) for p in rows]
    assert verdicts.routed.tolist() == [p.routed for p in rows]
    assert verdicts.coarse.tolist() == [int(p.coarse) for p in rows]
    assert verdicts.centroids is h.centroids
    for p, e in zip(rows, verdicts.entry.tolist()):
        assert (e >= 0) == p.routed
        if p.routed:
            coarse = h.centroids.coarse[e]
            assert (p.fine, p.coarse, p.misuse_vote) == (h.centroids.fine_labels[e], coarse, coarse)
        else:
            assert (p.fine, p.coarse, p.misuse_vote) == (None, NORMAL, None)
    assert verdicts.routed.tolist() == route(verdicts.nn_votes, verdicts.rf_votes).tolist()
    assert stats.total == len(rows)
    assert stats.routed == sum(p.routed for p in rows) > 0
    assert stats.trimmed == sum(p.routed and p.coarse == NORMAL for p in rows)
    assert stats.confirmed == sum(p.routed and p.coarse != NORMAL for p in rows) > 0


@pytest.fixture(scope="module")
def scored_distinct_rows():
    """A trained chain, distinct rows (two of them equal but for the sign of
    a zero) and the chain's verdicts on them."""
    ds = separable_dataset(n_per_label=14, seed=4, spread=2.0)
    train, test = stratified_split(ds, 0.3, seed=1)
    h = train_all(train, _fast_config())
    zero, negative_zero = test.X[0].copy(), test.X[0].copy()
    zero[3], negative_zero[3] = 0.0, -0.0
    X = np.vstack([test.X, zero, negative_zero])
    return h, X, predict_dataset(h, Dataset(X, [""] * len(X), [0] * len(X)))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_repeated_rows_score_as_their_distinct_rows(scored_distinct_rows, data):
    h, X, (expected, _) = scored_distinct_rows
    picks = np.array(data.draw(st.lists(st.integers(0, len(X) - 1), max_size=80)), dtype=np.int64)
    verdicts, stats = predict_dataset(h, Dataset(X[picks], [""] * len(picks), [0] * len(picks)))
    for column in ("nn_votes", "rf_votes", "entry", "routed", "coarse"):
        assert np.array_equal(getattr(verdicts, column), getattr(expected, column)[picks])
    assert stats.total == len(picks)
    assert stats.routed == stats.trimmed + stats.confirmed == int(expected.routed[picks].sum())


def test_no_misuse_only_alarms_and_verify_subset():
    ds = separable_dataset(n_per_label=14, seed=4, spread=2.0)
    train, test = stratified_split(ds, 0.3, seed=1)
    h = train_all(train, _fast_config())
    preds, _ = predict_dataset(h, test)
    for pred in preds:
        if pred.coarse != NORMAL:
            # an attack verdict requires an anomaly alarm or disagreement
            assert pred.routed
            assert route(pred.nn_vote, pred.rf_vote)
        if not pred.routed:
            assert pred.coarse == NORMAL


def test_verify_mode_false_positives_bounded_by_union():
    # overlapping blobs force some anomaly false alarms on normal truth
    ds = separable_dataset(n_per_label=30, seed=5, spread=4.0)
    train, test = stratified_split(ds, 0.4, seed=2)
    h = train_all(train, _fast_config())
    preds, _ = predict_dataset(h, test)
    truth_normal = test.coarse == int(NORMAL)
    union_fp = sum(
        1 for i, p in enumerate(preds) if truth_normal[i] and p.routed
    )
    final_fp = sum(
        1 for i, p in enumerate(preds) if truth_normal[i] and p.coarse != NORMAL
    )
    assert final_fp <= union_fp
    trimmed_normals = sum(
        1 for i, p in enumerate(preds)
        if truth_normal[i] and p.routed and p.misuse_vote == NORMAL
    )
    if trimmed_normals > 0:
        assert final_fp < union_fp


def test_hybrid_manifest_round_trip(tmp_path):
    ds = separable_dataset(n_per_label=8, seed=7)
    h = train_all(ds, _fast_config())
    manifest = save_hybrid(tmp_path, h)
    text = manifest.read_text()
    assert text.startswith("hybrid-ids hybrid v1")
    sample = separable_dataset(n_per_label=4, seed=77)
    a, _ = predict_dataset(h, sample)
    b, _ = predict_dataset(load_hybrid(manifest), sample)
    assert list(a) == list(b)
    # manifests written while a mode= or a taxonomy= line existed still load
    first, rest = text.split("\n", 1)
    for old in ("mode=classify", "taxonomy=taxonomy.txt"):
        manifest.write_text(f"{first}\n{old}\n{rest}")
        c, _ = predict_dataset(load_hybrid(manifest), sample)
        assert list(c) == list(a)


def test_hybrid_manifest_detects_stats_mismatch(tmp_path):
    ds = separable_dataset(n_per_label=8, seed=8)
    h = train_all(ds, _fast_config())
    manifest = save_hybrid(tmp_path, h)
    # retrain stats on different data and swap the stats file in
    other = separable_dataset(n_per_label=9, seed=88)
    from hybrid_ids.dataset import save_stats

    save_stats(tmp_path / "stats.txt", standardize_fit(other))
    with pytest.raises(ValueError, match="stats fingerprint mismatch: mlp model "):
        load_hybrid(manifest)


def test_hybrid_manifest_missing_submodel(tmp_path):
    ds = separable_dataset(n_per_label=8, seed=9)
    h = train_all(ds, _fast_config())
    manifest = save_hybrid(tmp_path, h)
    (tmp_path / "forest.model").unlink()
    with pytest.raises(FileNotFoundError):
        load_hybrid(manifest)


@pytest.mark.parametrize("edit, line_no, match", [
    (lambda lines: lines[:2] + ["stats"] + lines[2:], 3, "expected '<key>=<file>', got 'stats'"),
    (lambda lines: lines[:4] + ["stats="] + lines[5:], 5, "expected '<key>=<file>', got 'stats='"),
    # an older manifest's taxonomy= line is read past like any unknown key
    (lambda lines: lines + ["taxonomy=taxonomy.txt", "stats=other.txt"], 7,
     "repeated key 'stats'"),
    (lambda lines: [line for line in lines if not line.startswith("centroids=")]
     + ["taxonomy=taxonomy.txt"], 5, r"manifest missing entries: \['centroids'\]"),
    (lambda lines: ["hybrid-ids forest v1"] + lines[1:], 1, "expected format line"),
    (lambda lines: [], 1, "unexpected end of file"),
])
def test_hybrid_manifest_malformed(tmp_path, edit, line_no, match):
    # the manifest is checked before any model file is opened
    lines = ["hybrid-ids hybrid v1", "mlp=mlp.model", "forest=forest.model",
             "centroids=centroids.model", "stats=stats.txt"]
    manifest = tmp_path / "hybrid.manifest"
    expect_load_error(load_hybrid, manifest, edit(lines), line_no, match)
