"""Seedable multi-agent simulator of disinformation spread and correction
on hybrid community/scale-free social networks."""

from .attributes import (
    AgentProfile,
    activation_probability,
    derive_profiles,
    dissemination_tendency,
    social_influence,
)
from .content import (
    ContentItem,
    InterventionPlan,
    correction_for,
    make_plan,
    score_plausibility,
)
from .dynamics import believe_disinformation, discernment, update_trust
from .engine import (
    SimulationState,
    build_bot_schedules,
    run,
    snapshot_ratios,
)
from .evaluator import (
    EvaluationRequest,
    EvaluatorConfig,
    ResourceLedger,
    SyntheticEvaluator,
    make_evaluator,
)
from .network import (
    PropagationNetwork,
    assign_communities,
    build_network,
    community_overlap_matrix,
    degree_distribution,
)
from .powerlaw import PowerLawFit, fit_truncated_power_law
from .report import (
    ComparisonReport,
    RunReport,
    compare_interventions,
)
from .scenario import (
    Scenario,
    SimulationParams,
    UserRecord,
    load_scenario,
    save_scenario,
)

__version__ = "0.1.0"
