import numpy as np
import pytest

from carenet.errors import DataError
from carenet.evaluation import (
    MetricRow,
    classify,
    compute_metrics,
    fold_mean_std,
    patient_vote,
    write_metrics_csv,
    write_patient_table_csv,
)


class TestClassify:
    def test_binary_boundary_inclusive(self):
        probs = np.array([[0.49], [0.5], [0.51]])
        np.testing.assert_array_equal(classify(probs, "type"), [0, 1, 1])

    def test_subtype_argmax(self):
        np.testing.assert_array_equal(classify(np.array([[0.1, 0.6, 0.2, 0.1]]), "subtype"), [1])

    def test_subtype_tie_goes_to_lowest_index(self):
        np.testing.assert_array_equal(classify(np.array([[0.25, 0.25, 0.25, 0.25]]), "subtype"),
                                      [0])

    def test_spectrum_wrapper(self):
        assert classify(np.array([0.5]), "type") == 1
        assert classify(np.array([0.2, 0.3, 0.3, 0.2]), "subtype") == 1
        np.testing.assert_array_equal(classify(np.array([[0.5], [0.49]]), "type"), [1, 0])
        with pytest.raises(DataError):
            classify(np.array([0.5]), "other")


class TestPatientVote:
    def test_plurality(self):
        probs = np.array([0.9] * 60 + [0.1] * 40)[:, None]
        assert patient_vote(probs, "type") == 1

    def test_tie_breaks_on_mean_probability(self):
        probs = np.concatenate([np.full(50, 0.58), np.full(50, 0.42)])
        # mean p(CA)=0.5 -> tied votes; mean probability favors CA
        assert patient_vote(probs, "type") == 1
        assert patient_vote(probs[:, None], "type") == 1  # the sigmoid head's (n, 1)

    def test_tie_goes_to_higher_mean_probability_not_lower_index(self):
        # one vote each for classes 0 and 1; mean p is 0.3 vs 0.5
        probs = np.array([[0.5, 0.4, 0.05, 0.05], [0.1, 0.6, 0.2, 0.1]])
        assert patient_vote(probs, "subtype") == 1

    def test_single_spectrum(self):
        assert patient_vote(np.array([[0.0, 0.1, 0.2, 0.7]]), "subtype") == 3

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            patient_vote(np.empty((0, 1)), "type")

    def test_permutation_invariant(self, rng):
        probs = rng.dirichlet(np.ones(4), 101)
        perm = rng.permutation(101)
        assert patient_vote(probs, "subtype") == patient_vote(probs[perm], "subtype")


class TestMetrics:
    def test_all_correct(self):
        counts = compute_metrics([1, 0, 1], [1, 0, 1], positive_class=1)
        assert (counts.accuracy, counts.sensitivity, counts.specificity) == (1.0, 1.0, 1.0)

    def test_undefined_specificity_not_zero(self):
        counts = compute_metrics([1, 1], [1, 1], positive_class=1)
        assert counts.specificity is None
        assert counts.sensitivity == 1.0

    def test_hand_computed_counts(self):
        # TP=3 FN=1 TN=4 FP=2 -> accuracy 0.7, sensitivity 0.75, specificity 2/3
        predictions = [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
        truths = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        counts = compute_metrics(predictions, truths, positive_class=1)
        assert (counts.tp, counts.fn, counts.tn, counts.fp) == (3, 1, 4, 2)
        assert counts.accuracy == pytest.approx(0.7)
        assert counts.sensitivity == pytest.approx(0.75)
        assert counts.specificity == pytest.approx(2 / 3)

    def test_counts_sum_to_total(self, rng):
        predictions = rng.integers(0, 4, 57)
        truths = rng.integers(0, 4, 57)
        for cls in range(4):
            counts = compute_metrics(predictions, truths, positive_class=cls)
            assert counts.total == 57

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            compute_metrics([1, 0], [1], positive_class=1)


class TestAggregation:
    def test_mean_std_over_four_folds(self):
        mean, std, n = fold_mean_std([0.9, 0.8, 0.85, 0.95])
        assert n == 4
        assert mean == pytest.approx(0.875)
        assert std == pytest.approx(np.std([0.9, 0.8, 0.85, 0.95]))

    def test_undefined_folds_skipped(self):
        mean, std, n = fold_mean_std([0.5, None, 0.7, None])
        assert (mean, n) == (pytest.approx(0.6), 2)

    def test_all_undefined(self):
        assert fold_mean_std([None, None]) == (None, None, 0)


class TestReports:
    def test_metrics_csv_shape(self, tmp_path):
        from carenet.evaluation import ConfusionCounts

        row = MetricRow(
            set_name="test", label="type", class_name="CA", granularity="patient",
            accuracy=(0.89, 0.03, 4), specificity=(0.89, 0.02, 4),
            sensitivity=(0.93, 0.03, 4), pooled=ConfusionCounts(10, 1, 9, 2),
        )
        undefined = MetricRow(
            set_name="test", label="type", class_name="AT", granularity="patient",
            accuracy=(1.0, 0.0, 4), specificity=(None, None, 0),
            sensitivity=(1.0, 0.0, 4), pooled=ConfusionCounts(4, 0, 0, 0),
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv([row, undefined], path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:6] == [
            "set", "label", "class", "granularity", "accuracy_mean", "accuracy_std"]
        assert lines[1].startswith("test,type,CA,patient,0.890000,0.030000")
        assert ",NA,NA," in lines[2]  # undefined specificity survives as NA

    def test_patient_table(self, tmp_path):
        table = [
            {"label": "type", "patient_id": 3, "core": "CA", "ground_truth": "CA",
             "predictions": ["CA", "CA", "AT", "CA"]},
            {"label": "subtype", "patient_id": 3, "core": "CA", "ground_truth": "LB",
             "predictions": ["LA", "LB", "LB", "LB"]},
        ]
        path = tmp_path / "patients.csv"
        write_patient_table_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,patient_id,core,ground_truth,fold1,fold2,fold3,fold4"
        assert lines[1] == "type,3,CA,CA,CA,CA,AT,CA"
        assert len(lines) == 3
