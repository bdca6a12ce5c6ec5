"""Property tests: both solvers on randomly drawn three-slot relay programs.

Hypothesis draws S1 programs over the ambient arrival rate X1 (zero
included), the near user's distance d1, the power-splitting ratio as a
fraction of its limit, the case and the objective.  `derandomize=True`
makes the draws a fixed function of the test, so CI runs the same cases
every time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ehcoop import Case, NetworkConfig, Objective, Scenario, ScenarioSpec
from ehcoop.barrier import solve_nb
from ehcoop.network import derive_channels, rho_max
from ehcoop.quadratic import solve_iterative
from ehcoop.scenarios import build_problem

AGREE = 1e-7      # relative objective agreement of two converged solves
KKT = 1e-6        # the certificate every converged solve carries


@settings(derandomize=True, deadline=None)
@given(
    X1=st.floats(0.0, 300.0),
    d1=st.floats(0.2, 1.8),
    rho_share=st.floats(0.0, 1.0, exclude_max=True),
    case=st.sampled_from(Case),
    objective=st.sampled_from(Objective),
)
def test_solvers_agree_and_certify_on_relay_programs(X1, d1, rho_share, case, objective):
    cfg = NetworkConfig(X1=X1, d1=d1)
    ch = derive_channels(cfg)
    spec = ScenarioSpec(Scenario.S1, case, objective, rho_share * rho_max(ch))
    p = build_problem(spec, cfg, ch)
    quad, nb = solve_iterative(p), solve_nb(p)
    for res in (quad, nb):
        if res.converged:
            assert res.max_constraint_violation <= 0.0, res.solver
            assert res.kkt_residual <= KKT, res.solver
    if quad.converged and nb.converged:
        gap = abs(quad.objective_bits - nb.objective_bits)
        assert gap <= AGREE * (1.0 + abs(nb.objective_bits))
