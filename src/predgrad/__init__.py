"""Predicted gradient descent: cheap linear gradient prediction debiased by a
control variate, with the break-even compute theory as executable code."""

__version__ = "0.1.0"

from .analysis import (BoundInputs, CostModel, break_even_satisfied, f_star,
                       gamma, nc_bound, q_objective, rho_star, rho_switch,
                       sc_bound, simulate_estimator, sweep)
from .estimator import (AlignmentStats, BatchSplit, alignment_stats,
                        split_minibatch, v2_exact, variance_inflation)
from .network import (Network, NetworkConfig, backward, cheap_forward, forward,
                      init_network, loss_and_residual)
from .predictor import (PerfectPredictor, RefitPolicy, ScalarPredictor,
                        StructuredPredictor, fit_scalar, fit_structured,
                        predict_scalar, predict_structured, should_refit)
from .trainer import (BudgetLedger, RunResult, StepRecord, TrainConfig,
                      optimizer_step, run_budgeted_comparison, train_predicted,
                      train_vanilla)

__all__ = [
    "AlignmentStats", "BatchSplit", "BoundInputs", "BudgetLedger", "CostModel",
    "Network", "NetworkConfig", "PerfectPredictor", "RefitPolicy", "RunResult",
    "ScalarPredictor", "StepRecord", "StructuredPredictor",
    "TrainConfig", "alignment_stats", "backward", "break_even_satisfied",
    "cheap_forward", "f_star", "fit_scalar", "fit_structured", "forward",
    "gamma", "init_network", "loss_and_residual", "nc_bound", "optimizer_step",
    "predict_scalar", "predict_structured", "q_objective", "rho_star",
    "rho_switch", "run_budgeted_comparison", "sc_bound", "should_refit",
    "simulate_estimator", "split_minibatch", "sweep", "train_predicted",
    "train_vanilla", "v2_exact", "variance_inflation",
]
