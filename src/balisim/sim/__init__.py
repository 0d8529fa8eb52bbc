"""Discrete-time train stop-control simulation with attack injection."""

from .anomaly import AnomalyState, PositionEstimate, Record, TrustResult, \
    balise_missing, derive_trustworthy_info
from .conservative import ConservativeController, MODE_MAX_BRAKE, MODE_PID1, \
    MODE_PID2
from .deployment import AUTH_AUTHENTICATED, AUTH_LEGACY, BaliseSpec, Clone, \
    KIND_CONTROLLED, KIND_FIXED, Tamper, Unavailable, apply_attacks, \
    build_deployment, load_telegram, pack_payload, parse_payload, \
    program_telegram, save_telegram
from .hoa import DegenerateReference, FULL_BRAKE, HoaController, IGNORE, \
    expected_decel, realized_decel
from .params import PID1, PID2, PidGains, TrainParams
from .plant import BrakePlant
from .scenario import CONTROLLER_HOA, CONTROLLER_RESILIENT, ConfigError, \
    ScenarioConfig, SimResult, SimTimeout, TrajectoryRow, config_from_dict, \
    load_config, read_telegram, run_scenario, summary_dict, write_summary, \
    write_trajectory_csv

__all__ = [
    "AnomalyState", "PositionEstimate", "Record", "TrustResult",
    "balise_missing", "derive_trustworthy_info",
    "ConservativeController", "MODE_MAX_BRAKE", "MODE_PID1", "MODE_PID2",
    "AUTH_AUTHENTICATED", "AUTH_LEGACY", "BaliseSpec", "Clone",
    "KIND_CONTROLLED", "KIND_FIXED", "Tamper", "Unavailable",
    "apply_attacks", "build_deployment", "load_telegram", "pack_payload",
    "parse_payload", "program_telegram", "save_telegram",
    "DegenerateReference", "FULL_BRAKE", "HoaController", "IGNORE",
    "expected_decel", "realized_decel",
    "PID1", "PID2", "PidGains", "TrainParams", "BrakePlant",
    "CONTROLLER_HOA", "CONTROLLER_RESILIENT", "ConfigError",
    "ScenarioConfig", "SimResult", "SimTimeout", "TrajectoryRow",
    "config_from_dict", "load_config", "read_telegram", "run_scenario",
    "summary_dict", "write_summary", "write_trajectory_csv",
]
