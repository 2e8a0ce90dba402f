"""Acceptance suite: one test per acceptance criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The learned strategies are built once per session (see
conftest) at the declared acceptance configuration; benchmark datasets and
repetition counts are declared here.
"""

import json

import numpy as np
import pytest

from lalearn.cli import EXIT_OK, main
from lalearn.data import gen_banana, gen_checkerboard, gen_gaussian_clouds, split
from lalearn.forest import ForestConfig, best_split
from lalearn.harness import probability_histogram, run_al, run_repeated
from lalearn.logistic import logistic_gradient, logistic_loss
from lalearn.metrics import ConfusionCounts, auc_roc, dice, iou
from lalearn.seeding import derive_seed
from lalearn.strategies import RandomStrategy, UncertaintyStrategy

from conftest import ACCEPTANCE_CLASSIFIER, WORKERS

BENCH_SEED = 90210
REPETITIONS = 50
CLASSIFIER = ACCEPTANCE_CLASSIFIER


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criteria 1 and 2: loss reduction vs predicted probability
# ---------------------------------------------------------------------------


def _motivate(tmp_path, flag, seed):
    out = tmp_path / f"motivation_{flag.strip('-')}.csv"
    code = main(["motivate", flag, "--repetitions", "10000", "--bins", "20",
                 "--seed", str(seed), "--out", str(out),
                 "--workers", str(WORKERS)])
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    centers = np.array([float(r[0]) for r in rows])
    deltas = np.array([float(r[1]) for r in rows])
    return float(centers[np.nanargmax(deltas)])


def test_criterion_1_balanced_peak_is_central(tmp_path):
    peak = _motivate(tmp_path, "--balanced", seed=101)
    _report("criterion 1 (balanced loss-reduction peak)",
            0.4 <= peak <= 0.6,
            f"argmax bin center {peak:.3f}, required within [0.4, 0.6]")


def test_criterion_2_unbalanced_peak_leaves_center(tmp_path):
    peak = _motivate(tmp_path, "--unbalanced", seed=102)
    _report("criterion 2 (2:1 classes shift the peak)",
            not 0.45 <= peak <= 0.55,
            f"argmax bin center {peak:.3f}, required outside [0.45, 0.55]")


# ---------------------------------------------------------------------------
# criteria 3 and 5 share one benchmark on Gaussian clouds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def gaussian_benchmark(lal_independent_2d, lal_iterative_2d):
    data = gen_gaussian_clouds(1200, 0.5, 2.0, 2, seed=555)
    train, test = split(data, 0.5, seed=1)
    strategies = [RandomStrategy(), UncertaintyStrategy(),
                  lal_independent_2d, lal_iterative_2d]
    return run_repeated(train, test, strategies, budget=60, metric="accuracy",
                        repetitions=REPETITIONS, master_seed=BENCH_SEED,
                        classifier_config=CLASSIFIER, workers=WORKERS)


def test_criterion_3_gaussian_clouds_benchmark(gaussian_benchmark):
    curves, _ = gaussian_benchmark
    floor = -0.005
    checks = []
    for name in ("lal_independent", "lal_iterative"):
        for budget in (20, 40, 60):
            margin = float(curves[name].at_budget(budget).mean()
                           - curves["random"].at_budget(budget).mean())
            checks.append((f"{name} vs random @{budget}", margin))
        margin_us = float(curves[name].at_budget(20).mean()
                          - curves["uncertainty"].at_budget(20).mean())
        checks.append((f"{name} vs uncertainty @20", margin_us))
    detail = "; ".join(f"{label}: {margin:+.4f}" for label, margin in checks)
    _report("criterion 3 (clouds: learned strategies non-inferior)",
            all(margin >= floor for _, margin in checks),
            detail + f" (floor {floor})")


def test_criterion_5_selection_distributions(gaussian_benchmark):
    _, traces = gaussian_benchmark
    n_bins = 21
    stats = {}
    for name in ("uncertainty", "lal_independent", "lal_iterative"):
        pooled = [t for t in traces[name][:10]]  # ten runs, as declared
        counts, edges = probability_histogram(pooled, n_bins)
        mode = int(np.argmax(counts))
        values = np.concatenate([t.probabilities for t in pooled])
        stats[name] = (mode, float(values.std()))
    center_bin = n_bins // 2  # the bin containing 0.5
    us_mode, us_std = stats["uncertainty"]
    lal_modes = (stats["lal_independent"][0], stats["lal_iterative"][0])
    lal_stds = (stats["lal_independent"][1], stats["lal_iterative"][1])
    ok = (us_mode == center_bin
          and any(mode != center_bin for mode in lal_modes)
          and max(lal_stds) > us_std)
    _report("criterion 5 (selection distributions differ)",
            ok,
            f"US mode bin {us_mode} (center {center_bin}), std {us_std:.3f}; "
            f"LAL modes {lal_modes}, stds {tuple(round(s, 3) for s in lal_stds)}")


# ---------------------------------------------------------------------------
# criterion 4: checkerboard 2x2
# ---------------------------------------------------------------------------


def test_criterion_4_checkerboard_adversarial(lal_iterative_2d):
    data = gen_checkerboard(2, 2000, seed=777)
    train, test = split(data, 0.5, seed=2)
    strategies = [RandomStrategy(), UncertaintyStrategy(), lal_iterative_2d]
    curves, _ = run_repeated(train, test, strategies, budget=50,
                             metric="accuracy", repetitions=REPETITIONS,
                             master_seed=BENCH_SEED + 1,
                             classifier_config=CLASSIFIER, workers=WORKERS)
    random50 = float(curves["random"].at_budget(50).mean())
    us50 = float(curves["uncertainty"].at_budget(50).mean())
    lal50 = float(curves["lal_iterative"].at_budget(50).mean())
    _report("criterion 4 (checkerboard 2x2 at budget 50)",
            us50 < random50 and lal50 > random50,
            f"random {random50:.4f}, uncertainty {us50:.4f} (must be below), "
            f"lal_iterative {lal50:.4f} (must be above)")


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalences
# ---------------------------------------------------------------------------


def _exhaustive_split(x, y):
    """Enumerate every midpoint of consecutive sorted distinct values."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = len(x)
    nf = float(n)
    tot1 = float(np.cumsum(ys)[-1])
    parent = 1.0 - ((nf - tot1) ** 2 + tot1 ** 2) / (nf * nf)
    best = None
    left1 = 0.0
    for b in range(n - 1):
        left1 += ys[b]
        if xs[b + 1] <= xs[b]:
            continue
        nl, nr = float(b + 1), float(n - b - 1)
        l1, r1 = left1, tot1 - left1
        l0, r0 = nl - l1, nr - r1
        gl = 1.0 - (l0 * l0 + l1 * l1) / (nl * nl)
        gr = 1.0 - (r0 * r0 + r1 * r1) / (nr * nr)
        gain = parent - (nl * gl + nr * gr) / nf
        if best is None or gain > best[1]:
            best = ((xs[b] + xs[b + 1]) * 0.5, gain)
    return best


def _pair_counting_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (len(pos) * len(neg))


def test_criterion_6_oracle_equivalences():
    rng = np.random.default_rng(606)
    # best_split vs exhaustive enumeration
    for _ in range(200):
        n = int(rng.integers(2, 51))
        x = np.round(rng.normal(size=n), 1)
        y = rng.integers(0, 2, size=n).astype(float)
        got = best_split(x, y, "gini")
        expected = _exhaustive_split(x, y)
        assert got == expected, f"best_split mismatch: {got} vs {expected}"
    # auc vs pair counting
    for _ in range(200):
        labels = rng.integers(0, 2, size=20)
        if labels.min() == labels.max():
            continue
        scores = np.round(rng.random(20), 1)
        got = auc_roc(scores, labels)
        expected = _pair_counting_auc(scores, labels)
        assert abs(got - expected) <= 1e-12
    # logistic gradient vs central differences
    worst = 0.0
    for _ in range(20):
        X = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, size=10).astype(float)
        w = rng.normal(scale=0.5, size=4)
        grad = logistic_gradient(w, X, y)
        h = 1e-6
        for j in range(4):
            dw = np.zeros(4)
            dw[j] = h
            numeric = (logistic_loss(w + dw, X, y) - logistic_loss(w - dw, X, y)) / (2 * h)
            worst = max(worst, abs(grad[j] - numeric) / max(1.0, abs(numeric)))
    assert worst <= 1e-5
    # dice from iou, algebraically
    for _ in range(100):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, size=4))
        counts = ConfusionCounts(tp, fp, tn, fn)
        assert dice(counts) == pytest.approx(2 * iou(counts) / (1 + iou(counts)),
                                             abs=1e-12)
    _report("criterion 6 (oracle equivalences)",
            True,
            f"split/auc enumeration exact; max gradient error {worst:.2e}; "
            f"dice-iou identity holds")


# ---------------------------------------------------------------------------
# criterion 7: worker-count determinism through the CLI
# ---------------------------------------------------------------------------


def test_criterion_7_worker_determinism(tmp_path):
    build_config = {
        "config_format": 1, "method": "iterative", "seed": 7070,
        "size_min": 2, "size_max": 6, "initializations": 3, "candidates": 3,
        "classifier": {"n_trees": 10}, "regressor": {"n_trees": 10},
        "representative": {"cold_start": {"n_train": 120, "n_test": 100}},
        "output": "",
    }
    outputs = {}
    for workers in (1, 4):
        strategy_path = tmp_path / f"strategy_w{workers}.json"
        build_config["output"] = str(strategy_path)
        config_path = tmp_path / f"build_w{workers}.json"
        config_path.write_text(json.dumps(build_config))
        assert main(["build-strategy", str(config_path),
                     "--workers", str(workers)]) == EXIT_OK
        run_config = {
            "config_format": 1, "seed": 7171,
            "dataset": {"generator": "checkerboard", "k": 2, "n": 200},
            "strategies": ["random", str(strategy_path)],
            "budget": 6, "repetitions": 4,
            "classifier": {"n_trees": 10},
            "output_dir": str(tmp_path / f"out_w{workers}"),
        }
        run_path = tmp_path / f"run_w{workers}.json"
        run_path.write_text(json.dumps(run_config))
        assert main(["run", str(run_path), "--workers", str(workers)]) == EXIT_OK
        outputs[workers] = {
            "strategy": strategy_path.read_bytes(),
            "curves": {
                name: (tmp_path / f"out_w{workers}" / name).read_bytes()
                for name in ("random_curve.csv", "lal_iterative_curve.csv",
                             "summary.csv")
            },
        }
    same_strategy = outputs[1]["strategy"] == outputs[4]["strategy"]
    same_curves = all(outputs[1]["curves"][k] == outputs[4]["curves"][k]
                      for k in outputs[1]["curves"])
    _report("criterion 7 (byte-identical artifacts across worker counts)",
            same_strategy and same_curves,
            f"strategy files identical: {same_strategy}; "
            f"curve CSVs identical: {same_curves}")


# ---------------------------------------------------------------------------
# criterion 8: bookkeeping invariants
# ---------------------------------------------------------------------------


def test_criterion_8_bookkeeping_invariants():
    from lalearn.training import MonteCarloConfig, build_lal
    from lalearn.forest import regressor_config

    train = gen_gaussian_clouds(150, 0.5, 2.0, 2, seed=808)
    test = gen_gaussian_clouds(150, 0.5, 2.0, 2, seed=809)
    config = MonteCarloConfig(size_min=2, size_max=6, initializations=3,
                              candidates=4, classifier=ForestConfig(n_trees=10),
                              regressor=regressor_config(n_trees=10), seed=810)
    _, rows = build_lal(config, train, test, "independent")
    expected_rows = config.n_sizes * 3 * 4
    rows_ok = len(rows) == expected_rows
    tags_ok = len({tuple(t) for t in rows.tags}) == len(rows)
    deltas_ok = bool(np.all(rows.deltas >= -1.0) and np.all(rows.deltas <= 1.0))

    trace, selections = run_al(train, test, RandomStrategy(), budget=20,
                               metric="accuracy", seed=811,
                               classifier_config=ForestConfig(n_trees=10))
    growth_ok = (len(trace) == 21 and len(selections) == 20
                 and len(np.unique(selections.indices)) == 20)
    _report("criterion 8 (bookkeeping invariants)",
            rows_ok and tags_ok and deltas_ok and growth_ok,
            f"rows {len(rows)}/{expected_rows}, unique tags {tags_ok}, "
            f"deltas in [-1,1] {deltas_ok}, pool growth/no-repeat {growth_ok}")


# ---------------------------------------------------------------------------
# supplementary empirical examples from the module contracts
# ---------------------------------------------------------------------------


def test_example_cold_start_selections_concentrate(lal_independent_2d):
    # first query on fresh balanced clouds: the median predicted probability
    # of the chosen point stays near one half over 50 runs
    chosen = []
    for r in range(50):
        data = gen_gaussian_clouds(300, 0.5, 2.0, 2, seed=derive_seed(900, r))
        _, selections = run_al(data, data, lal_independent_2d, budget=1,
                               metric="accuracy", seed=derive_seed(901, r),
                               classifier_config=CLASSIFIER)
        chosen.append(float(selections.probabilities[0]))
    median = float(np.median(chosen))
    assert 0.35 <= median <= 0.65, f"median selected probability {median:.3f}"


def test_example_transfer_to_crescents(lal_iterative_2d):
    # a strategy learned on clouds transfers to the crescent benchmark
    data = gen_banana(1200, noise=0.2, seed=820)
    train, test = split(data, 0.5, seed=3)
    curves, _ = run_repeated(train, test,
                             [RandomStrategy(), lal_iterative_2d],
                             budget=60, metric="accuracy",
                             repetitions=REPETITIONS, master_seed=BENCH_SEED + 2,
                             classifier_config=CLASSIFIER, workers=WORKERS)
    lal = float(curves["lal_iterative"].at_budget(60).mean())
    rnd = float(curves["random"].at_budget(60).mean())
    assert lal > rnd, f"lal_iterative {lal:.4f} <= random {rnd:.4f} at budget 60"
