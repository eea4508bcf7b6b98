"""Confusion matrices, per-class P/R/F1, report assembly, and reading reports back."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlc.errors import ConfigError, ContractError, CorruptArtifactError
from mtlc.metrics import (
    build_report,
    confusion,
    format_report,
    load_report,
    report_to_dict,
    task_report,
)


def brute_force_scores(golds, preds, n_classes):
    """Independent per-sample counting oracle."""
    out = []
    for c in range(n_classes):
        tp = sum(1 for g, p in zip(golds, preds) if g == c and p == c)
        fp = sum(1 for g, p in zip(golds, preds) if g != c and p == c)
        fn = sum(1 for g, p in zip(golds, preds) if g == c and p != c)
        support = sum(1 for g in golds if g == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.append((precision, recall, f1, support))
    return out


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.array_equal(cm, np.diag([1, 2, 1]))

    def test_hand_case(self):
        cm = confusion([0, 0, 1], [0, 1, 1], 2)
        assert cm.tolist() == [[1, 1], [0, 1]]

    def test_row_sums_are_gold_supports(self):
        golds = [0, 0, 1, 2, 2, 2]
        cm = confusion(golds, [1, 0, 1, 2, 0, 2], 3)
        assert cm.sum(axis=1).tolist() == [2, 1, 3]

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            confusion([0, 1], [0], 2)

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            confusion([0, 3], [0, 0], 2)


def report_of(cm):
    """task_report over gold and predicted lists whose confusion matrix is `cm`."""
    cm = np.asarray(cm)
    n = cm.shape[0]
    pairs = [(g, p) for g in range(n) for p in range(n) for _ in range(int(cm[g, p]))]
    golds = [g for g, _ in pairs]
    preds = [p for _, p in pairs]
    return task_report("t", [f"c{i}" for i in range(n)], golds, preds)


def prf_tuples(report):
    return [(cs.precision, cs.recall, cs.f1, cs.support) for cs in report.per_class]


class TestPerClassPrf:
    def test_hand_case(self):
        cm = np.array([[5, 1], [2, 2]])
        (p0, r0, f0, s0), (p1, r1, f1, s1) = prf_tuples(report_of(cm))
        assert (p0, r0) == (5 / 7, 5 / 6)
        assert f0 == pytest.approx(0.76923, abs=5e-6)
        assert (p1, r1) == (2 / 3, 1 / 2)
        assert f1 == pytest.approx(0.57143, abs=5e-6)
        assert (s0, s1) == (6, 4)

    def test_empty_class_zero_convention(self):
        cm = np.array([[3, 0], [0, 0]])
        _, (p1, r1, f1, s1) = prf_tuples(report_of(cm))
        assert (p1, r1, f1, s1) == (0.0, 0.0, 0.0, 0)

    def test_diagonal_is_all_ones(self):
        scores = prf_tuples(report_of(np.diag([4, 2, 9])))
        for p, r, f, _ in scores:
            assert (p, r, f) == (1.0, 1.0, 1.0)


class TestAverages:
    HAND_CM = np.array([[5, 1], [2, 2]])

    def test_macro_hand_case(self):
        macro = report_of(self.HAND_CM).macro
        assert macro.f1 == pytest.approx(0.67033, abs=5e-6)

    def test_weighted_hand_case(self):
        weighted = report_of(self.HAND_CM).weighted
        assert weighted.f1 == pytest.approx(0.69011, abs=5e-6)

    def test_identical_scores_collapse(self):
        report = report_of([[3, 2], [2, 3]])
        assert prf_tuples(report) == [pytest.approx((0.6, 0.6, 0.6, 5))] * 2
        assert report.macro.f1 == pytest.approx(0.6)
        assert report.weighted.f1 == pytest.approx(0.6)

    def test_uniform_supports_weighted_equals_macro(self):
        report = report_of([[5, 1, 1], [2, 3, 2], [0, 3, 4]])
        assert [cs.support for cs in report.per_class] == [7, 7, 7]
        assert report.weighted.f1 == pytest.approx(report.macro.f1)

    def test_empty_class_lowers_macro(self):
        base = report_of([[5]])
        with_empty = report_of([[5, 0], [0, 0]])
        assert with_empty.macro.f1 < base.macro.f1

    def test_single_nonempty_class_dominates_weighted(self):
        report = report_of([[6, 3], [0, 0]])
        assert prf_tuples(report)[1] == (0.0, 0.0, 0.0, 0)
        assert report.weighted.f1 == pytest.approx(report.per_class[0].f1)

    def test_zero_support_rejected(self):
        with pytest.raises(ContractError):
            task_report("t", ["a"], [], [])


class TestRandomOracle:
    def test_matches_brute_force_exactly(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            golds = rng.integers(0, n, size=200).tolist()
            preds = rng.integers(0, n, size=200).tolist()
            got = prf_tuples(task_report("t", list("abcdef")[:n], golds, preds))
            assert got == brute_force_scores(golds, preds, n)

    def test_weighted_recall_equals_accuracy(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            golds = rng.integers(0, 4, size=150).tolist()
            preds = rng.integers(0, 4, size=150).tolist()
            weighted = task_report("t", list("abcd"), golds, preds).weighted
            accuracy = sum(g == p for g, p in zip(golds, preds)) / 150
            assert weighted.recall == pytest.approx(accuracy, abs=1e-12)

    def test_micro_identities(self):
        report = build_report({"t": [0, 0, 1, 2]}, {"t": [0, 1, 1, 1]}, {"t": list("abc")})
        cm = report["t"].confusion
        d = report_to_dict(report)["tasks"]["t"]
        assert d["micro"] == dict.fromkeys(("precision", "recall", "f1"), d["accuracy"])
        assert d["accuracy"] == round(np.trace(cm) / cm.sum(), 5)

    def test_micro_f1_is_accuracy_bit_for_bit(self):
        # one right in five: 2a²/(a + a) at a = 1/5 rounds away from 1/5 in the last bit,
        # so a micro F1 taken from pooled P and R would not be accuracy
        report = build_report({"t": [0, 0, 0, 0, 1]}, {"t": [0, 1, 1, 1, 0]}, {"t": list("ab")})
        d = report_to_dict(report)["tasks"]["t"]
        assert report["t"].accuracy == 0.2
        for key in ("precision", "recall", "f1"):
            assert d["micro"][key] == d["accuracy"] == round(report["t"].accuracy, 5)

    def test_f1_between_p_and_r(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            golds = rng.integers(0, 3, size=60).tolist()
            preds = rng.integers(0, 3, size=60).tolist()
            for p, r, f, _ in prf_tuples(task_report("t", list("abc"), golds, preds)):
                if p > 0 and r > 0:
                    assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12

    def test_scores_in_unit_interval(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            golds = rng.integers(0, 5, size=80).tolist()
            preds = rng.integers(0, 5, size=80).tolist()
            report = task_report("t", list("abcde"), golds, preds)
            values = [report.macro.f1, report.weighted.f1, report.accuracy]
            for cs in report.per_class:
                values += [cs.precision, cs.recall, cs.f1]
            assert all(0.0 <= v <= 1.0 for v in values)


class TestBuildReport:
    def test_perfect_two_task_report(self):
        golds = {"sentiment": [0, 1, 2], "offense": [1, 1, 0]}
        report = build_report(golds, golds, {"sentiment": ["a", "b", "c"], "offense": ["x", "y"]})
        for tr in report.values():
            assert tr.weighted.f1 == 1.0
            assert tr.macro.recall <= 1.0
            for cs in tr.per_class:
                if cs.support:
                    assert cs.f1 == 1.0

    def test_task_mismatch_rejected(self):
        with pytest.raises(ContractError):
            build_report({"a": [0]}, {"b": [0]}, {"a": ["x", "y"], "b": ["x", "y"]})

    def test_text_row_count(self):
        golds = {"sentiment": [0, 1, 1, 2]}
        report = build_report(golds, golds, {"sentiment": ["a", "b", "c"]})
        text = format_report(report)
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("==") and "P" not in ln.split()[0]]
        # classes + macro + weighted
        assert len([ln for ln in rows if ln.strip()]) == 3 + 2

    def test_rounding_only_at_serialization(self):
        golds = {"t": [0] * 2 + [1]}
        preds = {"t": [0, 1, 1]}
        report = build_report(golds, preds, {"t": ["a", "b"]})
        raw = report["t"].per_class[0].precision
        assert raw == 1.0  # internal full precision
        d = report_to_dict(report)
        assert d["tasks"]["t"]["per_class"][0]["precision"] == 1.0
        assert d["tasks"]["t"]["macro"]["f1"] == round(report["t"].macro.f1, 5)

    def test_dict_structure_stable(self):
        # the schema's order is not sorted, and class "mid" has no gold label
        golds = {"t": [0, 2, 2, 0, 2]}
        preds = {"t": [0, 1, 2, 2, 2]}
        report = build_report(golds, preds, {"t": ["z", "mid", "a"]})
        d = report_to_dict(report)["tasks"]["t"]
        assert set(d) == {
            "labels", "per_class", "macro", "weighted", "micro",
            "accuracy", "total_support", "confusion",
        }
        assert d["labels"] == ["z", "mid", "a"]
        assert [c["support"] for c in d["per_class"]] == [2, 0, 3]
        assert type(d["total_support"]) is int and d["total_support"] == len(golds["t"])
        assert d["confusion"] == [[1, 0, 1], [0, 0, 0], [0, 1, 2]]


@st.composite
def gold_pred_lists(draw):
    n = draw(st.integers(2, 6))
    size = draw(st.integers(1, 80))
    label = st.integers(0, n - 1)
    golds = draw(st.lists(label, min_size=size, max_size=size))
    preds = draw(st.lists(label, min_size=size, max_size=size))
    return n, golds, preds


class TestLoadReport:
    @given(gold_pred_lists())
    @settings(max_examples=100, deadline=None)
    def test_reads_back_what_report_to_dict_wrote(self, tmp_path_factory, case):
        n, golds, preds = case
        labels = [f"class {i}" for i in range(n)]
        written = report_to_dict(build_report({"t": golds}, {"t": preds}, {"t": labels}))
        path = tmp_path_factory.mktemp("report") / "report.json"
        path.write_text(json.dumps(written), encoding="utf-8")
        got = load_report(str(path))["t"]
        entry = written["tasks"]["t"]
        assert got.per_class == {c["label"]: c["f1"] for c in entry["per_class"]}
        assert list(got.per_class) == labels
        assert (got.macro, got.weighted) == (entry["macro"]["f1"], entry["weighted"]["f1"])

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="ghost"):
            load_report(str(tmp_path / "ghost" / "report.json"))

    @pytest.mark.parametrize(
        "body, key",
        [
            ([], "tasks"),
            ({"tasks": []}, "tasks"),
            ({"tasks": {"t": {}}}, "per_class"),
            ({"tasks": {"t": []}}, "per_class"),
            ({"tasks": {"t": {"per_class": [{"f1": 0.5}]}}}, "label"),
            ({"tasks": {"t": {"per_class": [{"label": "a"}]}}}, "f1"),
            ({"tasks": {"t": {"per_class": [{"label": "a", "f1": True}]}}}, "f1"),
            ({"tasks": {"t": {"per_class": [], "weighted": {"f1": 0.5}}}}, "macro"),
            ({"tasks": {"t": {"per_class": [], "macro": {"f1": 0.5}, "weighted": {}}}}, "f1"),
        ],
    )
    def test_names_the_file_and_the_missing_key(self, tmp_path, body, key):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        with pytest.raises(CorruptArtifactError) as err:
            load_report(str(path))
        assert str(path) in str(err.value)
        assert repr(key) in str(err.value)
