"""Exact voting-power analysis for multi-rule weighted voting games.

Banzhaf and Shapley-Shubik indices computed exactly (big-integer swing
counts, rational indices) for games whose characteristic function is an
AND/OR tree of weighted threshold rules, such as the EU Council's
qualified majority.  Ships rosters for the 27-member Council and its
33- and 36-member enlargement scenarios, bloc presets, an independent
enumeration oracle, and a CLI.
"""

from .dataio import (
    PopulationTable,
    ScenarioConfig,
    load_population_table,
    load_scenario_config,
    serialize_population_table,
    serialize_scenario_config,
)
from .engine import (
    PowerResult,
    VoterPower,
    banzhaf,
    compute_all,
    shapley_shubik,
)
from .errors import (
    InputError,
    NormalizationError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from .fixtures import FIXTURE_NAMES, fixture
from .game import (
    And,
    Bloc,
    BlocPartition,
    Or,
    Roster,
    RuleExpr,
    Voter,
    VotingGame,
    WeightedRule,
    WeightKind,
    build_qmv,
    evaluate,
    merge_blocs,
    quota_from_fraction,
)
from .oracle import oracle_all, oracle_banzhaf, oracle_shapley
from .report import emit_artifact, render
from .scenarios import (
    BLOC_PRESETS,
    DiffReport,
    ParadoxReport,
    Scenario,
    bloc_power,
    builtin_scenario,
    compare,
    detect_paradox,
    make_scenario,
    scenario_game,
    with_bloc,
)

__version__ = "0.1.0"

__all__ = [
    "And",
    "BLOC_PRESETS",
    "Bloc",
    "BlocPartition",
    "DiffReport",
    "FIXTURE_NAMES",
    "InputError",
    "NormalizationError",
    "Or",
    "ParadoxReport",
    "ParseError",
    "PopulationTable",
    "PowerResult",
    "ResourceLimitError",
    "Roster",
    "RuleExpr",
    "Scenario",
    "ScenarioConfig",
    "ValidationError",
    "Voter",
    "VoterPower",
    "VotingGame",
    "WeightKind",
    "WeightedRule",
    "banzhaf",
    "bloc_power",
    "build_qmv",
    "builtin_scenario",
    "compare",
    "compute_all",
    "detect_paradox",
    "emit_artifact",
    "evaluate",
    "fixture",
    "load_population_table",
    "load_scenario_config",
    "make_scenario",
    "merge_blocs",
    "oracle_all",
    "oracle_banzhaf",
    "oracle_shapley",
    "quota_from_fraction",
    "render",
    "scenario_game",
    "serialize_population_table",
    "serialize_scenario_config",
    "shapley_shubik",
    "with_bloc",
]
