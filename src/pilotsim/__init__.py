"""Pilot assignment and uplink spectral-efficiency simulation for
distributed massive MIMO networks."""

from .assignment import (CandidateSets, OpCounter, SCHEME_IDS, SchemeConfig,
                         assign_all, candidate_set_from_profile,
                         dpb_candidates, eem_step, priority_select,
                         random_pa_step, rank_from_order)
from .estimation import (ContaminationCache, EstimationQuality,
                         PilotAssignment, compute_gamma, estimation_error_global,
                         estimation_error_local, gamma_bound,
                         local_error_profile)
from .harness import (CellError, ExperimentSpec, ResultRow, SCHEME_CODE,
                      derive_seed, emit_cdf, run_experiment)
from .network import (AssociationMap, NetworkConfig, NetworkRealization,
                      PathLossParams, PowerProfile, associate_aps,
                      compute_lsfc, generate_drop, group_strong_ues,
                      noise_power_dbm, normalize_powers)
from .performance import (LsfdWeights, SeReport, collect_lsfd, compute_lsfd,
                          evaluate, prelog, se_uplink, sinr_pfzf)
from .protocol import (AccessPointAgent, BudgetViolation, Message, TraceLog,
                       UserAgent, audit_overhead, run_protocol)

__version__ = "0.1.0"
