"""Active learning laboratory.

Learned query-selection strategies (a regression forest over learning
states predicting test-error reduction), random and uncertainty baselines,
synthetic benchmark generators, and a deterministic experiment harness.
"""

from .data import (Dataset, PoolState, gen_banana, gen_checkerboard,
                   gen_gaussian_clouds, init_cold_start, init_warm_start,
                   load_csv, merge, save_csv, split)
from .features import FEATURE_NAMES, assemble_state, classifier_state, datapoint_features
from .forest import (ForestConfig, ForestModel, best_split, forest_from_doc,
                     forest_to_doc, load_forest, regressor_config, save_forest,
                     train_forest)
from .harness import (LearningCurve, MotivationCurve, SelectionTrace,
                      motivation_experiment, probability_histogram,
                      regressor_importance_report, run_al, run_repeated)
from .logistic import (LogisticModel, logistic_gradient, logistic_loss,
                       predict_logistic, predict_logistic_batch, train_logistic,
                       train_logistic_batch)
from .metrics import (ConfusionCounts, METRIC_IDS, accuracy, auc_roc,
                      counts_from_predictions, dice, evaluate_probability_metric,
                      iou, loss_from_metric, zero_one_loss)
from .seeding import derive_seed, rng_for
from .strategies import (LalStrategy, RandomStrategy, Strategy, UncertaintyStrategy,
                         entropy, load_strategy, save_strategy, select_lal,
                         select_uncertainty)
from .training import (MonteCarloConfig, RegressionSet, build_lal, cold_start_data,
                       data_monte_carlo)

__version__ = "0.1.0"
