"""Optimal resource allocation for a two-user energy-harvesting cooperative uplink."""

from .network import NetworkConfig
from .program import SolveResult, SolveStatus
from .scenarios import Case, Objective, Scenario, ScenarioSpec, Throughputs
from .strategy import StrategyResult, screen_rho, select_strategy, solve_spec
from .sweeps import SweepSpec, emit_csv, emit_plotdata, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Case", "NetworkConfig", "Objective", "Scenario", "ScenarioSpec",
    "SolveResult", "SolveStatus", "StrategyResult", "SweepSpec", "Throughputs",
    "emit_csv", "emit_plotdata", "run_sweep", "screen_rho", "select_strategy", "solve_spec",
]
