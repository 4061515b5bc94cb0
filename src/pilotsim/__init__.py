"""Pilot assignment and uplink spectral-efficiency simulation for
distributed massive MIMO networks."""

from .assignment import OpCounter, SCHEME_IDS, SchemeConfig, assign_all
from .estimation import PilotAssignment
from .harness import (CellError, ExperimentSpec, ResultRow, SCHEME_CODE,
                      derive_seed, emit_cdf, run_experiment)
from .network import (AssociationMap, NetworkConfig, NetworkRealization,
                      PowerProfile, associate_aps, compute_lsfc, generate_drop,
                      noise_power_dbm, normalize_powers)
from .performance import SeReport, evaluate, prelog, se_uplink
from .protocol import BudgetViolation, audit_overhead, run_protocol

__version__ = "0.1.0"
