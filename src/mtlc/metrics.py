"""Confusion matrices, precision/recall/F1 scores, and the `report.json`
format: `report_to_dict` writes it and `load_report` reads it back.

Macro scores are unweighted means over classes, weighted scores are
support-weighted means, and the pooled TP-ratio variant is exposed
separately as `micro`. Degenerate 0/0 ratios resolve to 0. Values are kept
at full precision internally and only rounded when serialized.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError, CorruptArtifactError

ROUND_DIGITS = 5


@dataclass(frozen=True)
class ClassScores:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class Averages:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class TaskReport:
    task: str
    labels: tuple[str, ...]
    per_class: tuple[ClassScores, ...]
    macro: Averages
    weighted: Averages
    micro: Averages
    accuracy: float
    confusion: np.ndarray  # rows = gold, columns = predicted
    total_support: int


@dataclass(frozen=True)
class MetricsReport:
    tasks: dict[str, TaskReport]


def confusion(golds: Sequence[int], preds: Sequence[int], n_classes: int) -> np.ndarray:
    """Count matrix with entry [gold, predicted]."""
    if len(golds) != len(preds):
        raise ContractError(f"golds ({len(golds)}) and preds ({len(preds)}) differ in length")
    g = np.asarray(golds, dtype=np.int64)
    p = np.asarray(preds, dtype=np.int64)
    bad = (g < 0) | (g >= n_classes) | (p < 0) | (p >= n_classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(f"label pair ({g[i]}, {p[i]}) out of range for {n_classes} classes")
    cm = np.bincount(g * n_classes + p, minlength=n_classes * n_classes)
    return cm.reshape(n_classes, n_classes)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, with 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def task_report(
    task: str, labels: Sequence[str], golds: Sequence[int], preds: Sequence[int]
) -> TaskReport:
    cm = confusion(golds, preds, len(labels))
    total = int(cm.sum())
    if total <= 0:
        raise ContractError(f"task {task!r}: scores need positive total support")
    tp = np.diagonal(cm)
    support = cm.sum(axis=1)
    precision = _ratio(tp, cm.sum(axis=0))
    recall = _ratio(tp, support)
    # rows P, R, F1; columns classes. Row sums run left to right as Python's
    # sum would, for up to 7 classes.
    prf = np.stack([precision, recall, _ratio(2.0 * precision * recall, precision + recall)])
    # pooled counts: micro precision and recall both equal accuracy
    accuracy = float(tp.sum()) / total
    micro_f1 = 2.0 * accuracy * accuracy / (accuracy + accuracy) if accuracy else 0.0
    return TaskReport(
        task=task,
        labels=tuple(labels),
        per_class=tuple(
            ClassScores(label, p, r, f, s)
            for label, p, r, f, s in zip(labels, *prf.tolist(), support.tolist())
        ),
        macro=Averages(*(prf.sum(axis=1) / len(labels)).tolist()),
        weighted=Averages(*((prf * support).sum(axis=1) / total).tolist()),
        micro=Averages(accuracy, accuracy, micro_f1),
        accuracy=accuracy,
        confusion=cm,
        total_support=total,
    )


def build_report(
    golds: Mapping[str, Sequence[int]],
    preds: Mapping[str, Sequence[int]],
    schemas: Mapping[str, Sequence[str]],
) -> MetricsReport:
    """Assemble per-task reports; `schemas` maps task -> ordered class names."""
    if set(golds) != set(preds) or not set(golds) <= set(schemas):
        raise ContractError(
            f"task mismatch: golds {sorted(golds)}, preds {sorted(preds)}, "
            f"schemas {sorted(schemas)}"
        )
    tasks = {
        task: task_report(task, list(schemas[task]), golds[task], preds[task])
        for task in sorted(golds)
    }
    return MetricsReport(tasks=tasks)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _round(x: float) -> float:
    return round(x, ROUND_DIGITS)


def _rounded(scores: ClassScores | Averages) -> dict:
    return {key: _round(getattr(scores, key)) for key in ("precision", "recall", "f1")}


def report_to_dict(report: MetricsReport) -> dict:
    """JSON-ready dict; the only place scores are rounded."""
    out: dict = {"tasks": {}}
    for task, tr in report.tasks.items():
        out["tasks"][task] = {
            "labels": list(tr.labels),
            "per_class": [
                {"label": cs.label, **_rounded(cs), "support": cs.support} for cs in tr.per_class
            ],
            "macro": _rounded(tr.macro),
            "weighted": _rounded(tr.weighted),
            "micro": _rounded(tr.micro),
            "accuracy": _round(tr.accuracy),
            "total_support": tr.total_support,
            "confusion": tr.confusion.tolist(),
        }
    return out


@dataclass(frozen=True)
class TaskF1:
    """The F1 scores a `report.json` holds for one task."""

    per_class: dict[str, float]  # label -> F1, in the report's class order
    macro: float
    weighted: float


def load_report(path: str) -> dict[str, TaskF1]:
    """Read back the F1 scores of a file written from `report_to_dict`.

    A missing file is a ConfigError. A file that is not JSON, or lacks a key
    this reads, is a CorruptArtifactError naming the file and the key."""
    if not os.path.exists(path):
        raise ConfigError(f"no report at {path!r}")
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise CorruptArtifactError(f"{path} is not a JSON report: {err}") from None

    def get(table: object, key: str, kind: type | tuple[type, ...], where: str):
        value = table.get(key) if isinstance(table, dict) else None
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CorruptArtifactError(f"{path}: {where} has no valid {key!r}")
        return value

    out = {}
    for task, entry in get(raw, "tasks", dict, "the report").items():
        where = f"task {task!r}"
        per_class = {}
        for i, cls in enumerate(get(entry, "per_class", list, where)):
            label = get(cls, "label", str, f"{where} class {i}")
            per_class[label] = float(get(cls, "f1", (int, float), f"{where} class {label!r}"))
        macro, weighted = (
            float(get(get(entry, key, dict, where), "f1", (int, float), f"{where} {key}"))
            for key in ("macro", "weighted")
        )
        out[task] = TaskF1(per_class, macro, weighted)
    return out


def format_report(report: MetricsReport) -> str:
    """Aligned text table: class rows plus macro and weighted rows per task."""
    lines = []
    for task, tr in report.tasks.items():
        lines.append(f"== {task} ==")
        width = max([len("Weighted average")] + [len(label) for label in tr.labels])
        header = f"{'':<{width}}  {'P':>8}  {'R':>8}  {'F1':>8}  {'support':>8}"
        lines.append(header)
        for cs in tr.per_class:
            lines.append(
                f"{cs.label:<{width}}  {cs.precision:>8.5f}  {cs.recall:>8.5f}"
                f"  {cs.f1:>8.5f}  {cs.support:>8d}"
            )
        lines.append(
            f"{'Macro average':<{width}}  {tr.macro.precision:>8.5f}"
            f"  {tr.macro.recall:>8.5f}  {tr.macro.f1:>8.5f}  {tr.total_support:>8d}"
        )
        lines.append(
            f"{'Weighted average':<{width}}  {tr.weighted.precision:>8.5f}"
            f"  {tr.weighted.recall:>8.5f}  {tr.weighted.f1:>8.5f}  {tr.total_support:>8d}"
        )
        lines.append("")
    return "\n".join(lines)
