"""Predicted gradient descent: cheap linear gradient prediction debiased by a
control variate, with the break-even compute theory as executable code."""

__version__ = "0.1.0"

from .analysis import (CostModel, break_even_satisfied, f_star, gamma, q_objective,
                       rho_star, rho_switch, simulate_estimator, sweep)
from .estimator import combine, v2_exact, variance_inflation
from .network import (Network, NetworkConfig, cheap_forward, forward, init_network,
                      loss_and_residual)
from .predictor import (FeedbackPredictor, PerfectPredictor, RefitPolicy,
                        StructuredPredictor, fit_feedback, fit_structured, should_refit)
from .trainer import (BudgetLedger, RunResult, StepRecord, TrainConfig,
                      optimizer_step, run_budgeted_comparison, train_predicted,
                      train_vanilla)

__all__ = [
    "BudgetLedger", "CostModel", "FeedbackPredictor", "Network", "NetworkConfig",
    "PerfectPredictor", "RefitPolicy", "RunResult", "StepRecord", "StructuredPredictor",
    "TrainConfig", "break_even_satisfied", "cheap_forward", "combine",
    "f_star", "fit_feedback", "fit_structured", "forward", "gamma", "init_network",
    "loss_and_residual", "optimizer_step", "q_objective", "rho_star", "rho_switch",
    "run_budgeted_comparison", "should_refit", "simulate_estimator", "sweep",
    "train_predicted", "train_vanilla", "v2_exact", "variance_inflation",
]
