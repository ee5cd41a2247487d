"""Which package functions the traced run wraps, and how their spans add
up to the per-layer metrics.

Every metric named ``<layer>.<stage>_s`` is the summed self time of the
spans in that stage, so the stage times and ``cli.self_s`` together add up
to the traced command time. Four functions absorb the spans they call:
the retrain and accuracy check of ``prune_and_retrain`` count as
``random_forest.prune_retrain_s``, the centroid lookups of
``signature_collisions`` as ``centroids.fit_s``, and the sub-model files of
``save_hybrid``/``load_hybrid`` as ``hybrid.save_s``/``hybrid.load_s``.
``atomic_write`` is never absorbed, so ``persist.write_s`` covers every
file write.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import ATTRS, END, NAME, START, Target, outermost, self_times, stage_of_spans

NN_EPOCHS = 30  # written into the benchmark config; epoch_s divides by it


def _rows(args, result):
    shape = np.shape(args[1])
    return {"rows": shape[0] if len(shape) == 2 else 1}


def _dedup(args, result):
    return {"in": len(args[0]), "out": len(result)}


def _routing(args, result):
    stats = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    keys = ("total", "routed", "trimmed", "confirmed")
    if not all(hasattr(stats, k) for k in keys):
        return None
    return {k: int(getattr(stats, k)) for k in keys}


def _bytes(args, result):
    return {"bytes": len(args[1])}


# (module, function, stage, measure)
_TABLE = (
    ("cli", "main", "cli.self_s", None),
    ("dataset", "parse_kdd_line", "dataset.parse_s", None),
    ("dataset", "deduplicate", "dataset.dedup_s", _dedup),
    ("dataset", "encode", "dataset.encode_s", None),
    ("dataset", "encode_features", "dataset.encode_s", None),
    ("dataset", "Dataset.from_records", "dataset.encode_s", None),
    ("dataset", "resample", "dataset.resample_split_s", None),
    ("dataset", "stratified_split", "dataset.resample_split_s", None),
    ("dataset", "save_dataset", "dataset.save_s", None),
    ("dataset", "save_taxonomy", "dataset.save_s", None),
    ("dataset", "load_dataset", "dataset.load_s", None),
    ("dataset", "load_taxonomy", "dataset.load_s", None),
    ("dataset", "standardize_fit", "dataset.standardize_s", None),
    ("dataset", "standardize_apply", "dataset.standardize_s", None),
    ("dataset", "standardize_dataset", "dataset.standardize_s", None),
    ("neural_net", "train", "neural_net.train_s", None),
    ("neural_net", "predict", "neural_net.predict_s", _rows),
    ("neural_net", "predict_batch", "neural_net.predict_s", _rows),
    ("neural_net", "forward", "neural_net.predict_s", _rows),
    ("random_forest", "train_forest", "random_forest.train_s", None),
    ("random_forest", "prune_and_retrain", "random_forest.prune_retrain_s", None),
    ("random_forest", "predict", "random_forest.predict_s", _rows),
    ("random_forest", "predict_batch", "random_forest.predict_s", _rows),
    ("centroids", "fit", "centroids.fit_s", None),
    ("centroids", "signature_collisions", "centroids.fit_s", None),
    ("centroids", "assign", "centroids.assign_s", _rows),
    ("centroids", "assign_batch", "centroids.assign_s", _rows),
    ("centroids", "verify_alarm", "centroids.assign_s", _rows),
    ("hybrid", "save_hybrid", "hybrid.save_s", None),
    ("hybrid", "load_hybrid", "hybrid.load_s", None),
    ("hybrid", "predict_dataset", "hybrid.predict_self_s", _routing),
    ("hybrid", "batch_predict", "hybrid.predict_self_s", _routing),
    ("hybrid", "predict", "hybrid.predict_self_s", None),
    ("evaluation", "confusion", "evaluation.confusion_s", None),
    ("evaluation", "per_class_metrics", "evaluation.report_s", None),
    ("evaluation", "overall_accuracy", "evaluation.report_s", None),
    ("evaluation", "format_report", "evaluation.report_s", None),
    ("evaluation", "write_confusion_csv", "evaluation.report_s", None),
    ("evaluation", "write_metrics_csv", "evaluation.report_s", None),
    ("persist", "atomic_write", "persist.write_s", _bytes),
)

TARGETS = [
    Target(f"hybrid_ids.{module}", fn, f"{module}.{fn}", measure)
    for module, fn, _stage, measure in _TABLE
]
STAGE = {f"{module}.{fn}": stage for module, fn, stage, _m in _TABLE}
ABSORBING = {"random_forest.prune_and_retrain", "centroids.signature_collisions",
             "hybrid.save_hybrid", "hybrid.load_hybrid"}
NEVER_ABSORBED = {"persist.atomic_write"}
STAGE_METRICS = tuple(dict.fromkeys(STAGE.values()))

# Every per-layer metric, in report order, with its unit.
UNITS = {name: "s" for name in STAGE_METRICS}
UNITS.update({
    "dataset.dup_share": "ratio",
    "dataset.rejected": "count",
    "neural_net.epoch_s": "s",
    "neural_net.predict_calls": "count",
    "neural_net.predict_rows": "count",
    "random_forest.predict_calls": "count",
    "random_forest.predict_rows": "count",
    "random_forest.predict_call_p50_us": "us",
    "random_forest.predict_call_p99_us": "us",
    "centroids.assign_rows": "count",
    "hybrid.routed_share": "ratio",
    "hybrid.trimmed": "count",
    "hybrid.confirmed": "count",
    "persist.write_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
})


def _attr_sum(spans, indices, key) -> int:
    return sum((spans[i][ATTRS] or {}).get(key, 0) for i in indices)


def command_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced command (or command
    sequence). ``trace.overhead_s`` is filled in by the caller."""
    stages = stage_of_spans(spans, STAGE, ABSORBING, NEVER_ABSORBED)
    own = self_times(spans)
    out = {name: 0.0 for name in STAGE_METRICS}
    for stage, t in zip(stages, own):
        out[stage] += t
    out["neural_net.epoch_s"] = out["neural_net.train_s"] / NN_EPOCHS

    dedup = [i for i, s in enumerate(spans) if s[NAME] == "dataset.deduplicate"]
    seen = _attr_sum(spans, dedup, "in")
    out["dataset.dup_share"] = 1.0 - _attr_sum(spans, dedup, "out") / seen if seen else 0.0
    out["dataset.rejected"] = sum(
        1 for s in spans
        if s[NAME] == "dataset.parse_kdd_line" and (s[ATTRS] or {}).get("error") == "ParseError"
    )

    nn_calls = outermost(spans, stages, "neural_net.predict_s")
    out["neural_net.predict_calls"] = len(nn_calls)
    out["neural_net.predict_rows"] = _attr_sum(spans, nn_calls, "rows")

    rf_calls = outermost(spans, stages, "random_forest.predict_s")
    out["random_forest.predict_calls"] = len(rf_calls)
    out["random_forest.predict_rows"] = _attr_sum(spans, rf_calls, "rows")
    durations_us = [(spans[i][END] - spans[i][START]) * 1e6 for i in rf_calls]
    p50, p99 = np.percentile(durations_us, [50, 99]) if durations_us else (0.0, 0.0)
    out["random_forest.predict_call_p50_us"] = float(p50)
    out["random_forest.predict_call_p99_us"] = float(p99)

    assigns = outermost(spans, stages, "centroids.assign_s")
    out["centroids.assign_rows"] = _attr_sum(spans, assigns, "rows")

    predicts = outermost(spans, stages, "hybrid.predict_self_s")
    total = _attr_sum(spans, predicts, "total")
    out["hybrid.routed_share"] = _attr_sum(spans, predicts, "routed") / total if total else 0.0
    out["hybrid.trimmed"] = _attr_sum(spans, predicts, "trimmed")
    out["hybrid.confirmed"] = _attr_sum(spans, predicts, "confirmed")

    writes = [i for i, s in enumerate(spans) if s[NAME] == "persist.atomic_write"]
    out["persist.write_bytes"] = _attr_sum(spans, writes, "bytes")
    out["trace.spans"] = len(spans)
    return out


def median_metrics(per_command: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_command) for k in per_command[0]}
