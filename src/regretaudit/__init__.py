"""Audit seller pricing transcripts for algorithmic non-collusion.

The audit estimates the pessimistic calibrated regret of a transcript,
minimizes it over a range of plausible costs, and compares the result plus a
concentration margin against a regret threshold. A two-seller market
simulator generates auditable transcripts from Q-learning,
multiplicative-weights, fixed-price, and manipulator strategies.
"""

from .aggregate import (
    DistributionEstimate,
    DriftAssumption,
    InsufficientData,
    audit_aggregated,
    estimate_distributions,
    read_price_series,
)
from .audit import (
    AuditReport,
    CellStats,
    PWLInCost,
    audit,
    discretization_loss,
    error_margin,
    estimate_allocations,
    minimize_over_cost,
    regret_curve,
)
from .core import (
    AuditConfig,
    CostRange,
    PriceGrid,
    Transcript,
    TranscriptParseError,
    TranscriptValidationError,
    Violation,
    read_transcript,
    validate,
    write_transcript,
)
from .market import (
    DiscreteValuationTable,
    UniformDuopoly,
    best_pure_equilibrium,
    discrete_demand,
    expected_payoff_matrix,
    manipulation_valuation_table,
    uniform_demand,
)
from .oracles import (
    GroundTruth,
    best_in_hindsight_regret,
    materialize_truth,
    true_calibrated_regret,
)
from .sellers import (
    ManipulatorSchedule,
    SimulationResult,
    is_mean_based_violation,
    manipulator_next,
    mean_based_gamma,
    mwu_step,
    q_step,
    simulate,
)

__version__ = "0.1.0"
