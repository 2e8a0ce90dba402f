"""Experiment loop, repeated benchmarks, motivation study, analysis ops."""

import numpy as np
import pytest

from lalearn.data import gen_gaussian_clouds, split
from lalearn.features import classifier_state
from lalearn.forest import ForestConfig, regressor_config, train_forest
from lalearn.harness import (LearningCurve, SelectionTrace, motivation_experiment,
                             probability_histogram, regressor_importance_report,
                             run_al, run_repeated)
from lalearn.strategies import LalStrategy, RandomStrategy, UncertaintyStrategy

FAST = ForestConfig(n_trees=10)


@pytest.fixture(scope="module")
def gaussian_task():
    data = gen_gaussian_clouds(240, 0.5, 2.0, 2, seed=70)
    return split(data, 0.5, seed=3)


class TestRunAl:
    def test_zero_budget_gives_single_point_trace(self, gaussian_task):
        train, test = gaussian_task
        trace, selections = run_al(train, test, RandomStrategy(), budget=0,
                                   classifier_config=FAST, seed=1)
        assert trace.shape == (1,)
        assert len(selections) == 0

    def test_labeled_set_grows_by_one_per_iteration(self, gaussian_task):
        train, test = gaussian_task
        trace, selections = run_al(train, test, RandomStrategy(), budget=12,
                                   classifier_config=FAST, seed=2)
        assert trace.shape == (13,)
        assert len(selections) == 12
        assert len(np.unique(selections.indices)) == 12  # no repeated queries

    def test_rerun_is_bit_identical(self, gaussian_task):
        train, test = gaussian_task
        a = run_al(train, test, RandomStrategy(), budget=8, classifier_config=FAST,
                   seed=3)
        b = run_al(train, test, RandomStrategy(), budget=8, classifier_config=FAST,
                   seed=3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1].indices, b[1].indices)
        assert np.array_equal(a[1].probabilities, b[1].probabilities)

    def test_oracle_reveals_ground_truth(self, gaussian_task):
        # the trace records the model's p0 at selection time; the label the
        # pool hands back must be the dataset's ground truth, which we can
        # verify by replaying the selection order onto the labels
        train, test = gaussian_task
        _, selections = run_al(train, test, UncertaintyStrategy(), budget=10,
                               classifier_config=FAST, seed=4)
        revealed = train.labels[selections.indices]
        assert set(np.unique(revealed)) <= {0, 1}

    def test_budget_exceeding_pool_rejected(self, gaussian_task):
        train, test = gaussian_task
        with pytest.raises(ValueError, match="budget"):
            run_al(train, test, RandomStrategy(), budget=len(train) - 1,
                   classifier_config=FAST, seed=5)

    def test_full_budget_reaches_identical_final_classifier(self, gaussian_task):
        # any strategy run to the full pool labels everything, so the final
        # classifier (same training seed) is identical across strategies
        data = gen_gaussian_clouds(40, 0.5, 2.0, 2, seed=71)
        train, test = split(data, 0.4, seed=6)
        budget = len(train) - 2
        t_rand, _ = run_al(train, test, RandomStrategy(), budget, "accuracy", 7, FAST)
        t_unc, _ = run_al(train, test, UncertaintyStrategy(), budget, "accuracy", 7, FAST)
        assert t_rand[-1] == t_unc[-1]

    def test_warm_start_size(self, gaussian_task):
        train, test = gaussian_task
        trace, _ = run_al(train, test, RandomStrategy(), budget=3,
                          classifier_config=FAST, seed=8, warm_start_size=30)
        assert trace.shape == (4,)

    def test_recorded_p0_equals_the_pool_walk_p0(self, gaussian_task, monkeypatch):
        # the trace walks the chosen row alone; its p0 must match the pool
        # walk's bit for bit, and impure leaves make the summation order show
        import lalearn.strategies as strategies_module
        train, test = gaussian_task
        walks = []

        def recording_state(model, pool, dataset):
            phi, p0 = classifier_state(model, pool, dataset)
            walks.append((pool.unlabeled.copy(), p0))
            return phi, p0

        monkeypatch.setattr(strategies_module, "classifier_state", recording_state)
        # a regressor that prefers p0 near 0.5, where leaves are impure
        states = np.random.default_rng(10).random((400, 7))
        regressor = train_forest(states, -np.abs(states[:, 6] - 0.5),
                                 regressor_config(n_trees=5, min_leaf_size=5), seed=11)
        _, selections = run_al(train, test, LalStrategy(regressor), budget=10,
                               classifier_config=ForestConfig(n_trees=100, max_depth=2),
                               seed=9)
        walked = [p0[np.searchsorted(unlabeled, index)]
                  for (unlabeled, p0), index in zip(walks, selections.indices)]
        assert len(walked) == 10
        assert np.array_equal(selections.probabilities, walked)

    def test_selection_trace_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SelectionTrace([0, 1], [5, 5], [0.5, 0.5])


class TestRunRepeated:
    def test_single_repetition_equals_its_trace(self, gaussian_task):
        train, test = gaussian_task
        curves, traces = run_repeated(train, test, [RandomStrategy()], budget=5,
                                      repetitions=1, master_seed=9,
                                      classifier_config=FAST)
        curve = curves["random"]
        assert curve.traces.shape == (1, 6)
        assert np.array_equal(curve.mean(), curve.traces[0])
        assert np.all(curve.std() == 0.0)

    def test_aggregates_recomputable_from_traces(self, gaussian_task):
        train, test = gaussian_task
        curves, _ = run_repeated(train, test, [RandomStrategy()], budget=4,
                                 repetitions=5, master_seed=10,
                                 classifier_config=FAST)
        curve = curves["random"]
        assert np.array_equal(curve.mean(), curve.traces.mean(axis=0))
        assert np.array_equal(curve.std(), curve.traces.std(axis=0))

    def test_strategies_share_initial_state_within_repetition(self, gaussian_task):
        train, test = gaussian_task
        curves, _ = run_repeated(train, test,
                                 [RandomStrategy(), UncertaintyStrategy()],
                                 budget=0, repetitions=4, master_seed=11,
                                 classifier_config=FAST)
        # with budget 0 both strategies train the same initial classifier on
        # the same initial labels, so the curves coincide exactly
        assert np.array_equal(curves["random"].traces, curves["uncertainty"].traces)

    def test_worker_count_does_not_change_results(self, gaussian_task):
        train, test = gaussian_task
        kwargs = dict(budget=4, repetitions=4, master_seed=12, classifier_config=FAST)
        a, _ = run_repeated(train, test, [RandomStrategy()], workers=1, **kwargs)
        b, _ = run_repeated(train, test, [RandomStrategy()], workers=2, **kwargs)
        assert np.array_equal(a["random"].traces, b["random"].traces)

    def test_duplicate_strategy_names_rejected(self, gaussian_task):
        train, test = gaussian_task
        with pytest.raises(ValueError, match="duplicate"):
            run_repeated(train, test, [RandomStrategy(), RandomStrategy()],
                         budget=2, repetitions=1, master_seed=0)

    def test_curve_budget_lookup(self):
        curve = LearningCurve("s", "d", "accuracy", [0, 1, 2],
                              [[0.5, 0.6, 0.7]], 0)
        assert curve.at_budget(1).tolist() == [0.6]
        with pytest.raises(ValueError):
            curve.at_budget(7)


class TestMotivation:
    def test_balanced_peak_is_central_and_bounded(self):
        curve = motivation_experiment(balanced=True, repetitions=150, n_bins=20,
                                      seed=13, n_pool=80, n_test=600)
        assert curve.counts.sum() == 150 * 78
        covered = curve.counts > 0
        assert np.all(curve.mean_delta[covered] >= -1.0)
        assert np.all(curve.mean_delta[covered] <= 1.0)
        assert 0.3 <= curve.argmax_center() <= 0.7

    def test_deterministic_and_worker_independent(self):
        kwargs = dict(repetitions=130, n_bins=10, seed=14, n_pool=40, n_test=200)
        a = motivation_experiment(balanced=False, workers=1, **kwargs)
        b = motivation_experiment(balanced=False, workers=2, **kwargs)
        assert np.array_equal(a.mean_delta, b.mean_delta)
        assert np.array_equal(a.counts, b.counts)

    def test_empty_bins_are_nan(self):
        curve = motivation_experiment(balanced=True, repetitions=2, n_bins=50,
                                      seed=15, n_pool=10, n_test=50)
        assert np.isnan(curve.mean_delta[curve.counts == 0]).all()


class TestAnalysis:
    def test_histogram_pools_traces_and_counts_everything(self):
        traces = [SelectionTrace([0, 1], [3, 4], [0.1, 0.52]),
                  SelectionTrace([0], [9], [0.5])]
        counts, edges = probability_histogram(traces, n_bins=21)
        assert counts.sum() == 3
        assert len(counts) == 21 and len(edges) == 22
        assert counts[10] == 2  # 0.5 and 0.52 share the central bin

    def test_empty_traces_give_zero_histogram(self):
        counts, _ = probability_histogram([], n_bins=5)
        assert counts.tolist() == [0] * 5

    def test_uncertainty_selections_concentrate_centrally(self, gaussian_task):
        train, test = gaussian_task
        _, traces = run_repeated(train, test, [UncertaintyStrategy()], budget=20,
                                 repetitions=3, master_seed=16,
                                 classifier_config=ForestConfig(n_trees=30))
        counts, _ = probability_histogram(traces["uncertainty"], n_bins=21)
        assert counts[10] == counts.max()

    def test_importance_report_shape(self):
        rng = np.random.default_rng(17)
        regressor = train_forest(rng.random((200, 7)), rng.normal(size=200),
                                 regressor_config(n_trees=5), seed=18)
        report = regressor_importance_report(LalStrategy(regressor))
        assert len(report) == 7
        names = [n for n, _ in report]
        assert names[-1] == "predicted_probability_class0"
        weights = np.array([w for _, w in report])
        assert np.all(weights >= 0)
        assert weights.sum() == pytest.approx(1.0)

    def test_importance_report_rejects_baselines(self):
        with pytest.raises(ValueError):
            regressor_importance_report(RandomStrategy())
