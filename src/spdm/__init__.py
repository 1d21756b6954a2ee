"""Structure-preserving diffusion toolkit.

Simulation and verification tools for diffusion processes and diffusion
bridges whose laws respect a finite isometry group: exact group actions,
closed-form Gaussian-mixture scores, reverse-SDE and bridge samplers,
equivariant noise, frame averaging, weight-tied networks, likelihoods
and invariance metrics.
"""

from .errors import (ConfigError, DegenerateCoupling, DivergedLoss, IoError,
                     InvalidParams, NonFiniteState, NonPsd, NonSquareGrid,
                     ShapeMismatch, SingularAtTerminal, SpdmError,
                     TimeOutOfRange, UnsupportedSize)
from .groups import (FrameAveragedField, GroupCheckReport, GroupElement,
                     IsometryGroup, apply_elements, canonical_ids, canonicalize,
                     default_canonicalizer, frame_average, make_c4_group,
                     make_d4_group, make_flip_group, make_group,
                     make_point_group_2d, verify_group_axioms)
from .io import (config_hash, load_config, read_spdt, validate_config,
                 write_spdt)
from .metrics import (FeatureSpec, FeatureStats, FpResidual, NllReport,
                      dataset_stats, delta_x0_gap, divergence,
                      energy_distance_test, fokker_planck_residual,
                      frechet_distance, group_averaged_stats, inv_fid,
                      pf_ode_nll)
from .nets import (Adam, Mlp, TiedKernel, TrainResult, TrainerConfig,
                   conv2d, dsm_loss, ema_update, equivariance_gap,
                   equivariance_regularizer, make_tied_kernel, train)
from .oracle import (AnalyticScoreField, BridgeScoreField, GaussianCoupling,
                     GaussianMixture, bridge_conditional_params,
                     bridge_score_oracle, diffused_score, log_density,
                     symmetrize)
from .process import (GaussianParams, Schedule, T_CLIP_FRACTION,
                      bridge_forward_drift, bridge_kernel,
                      grad_log_transition_h, transition, ve_schedule,
                      vp_schedule)
from .sampling import (NoiseSequence, TimeGrid, Trajectory, bridge_grid,
                       ddbm_reverse_sample, equivariant_noise_batch,
                       equivariant_noise_sequence, nll_grid, pf_ode_solve,
                       reverse_sde_sample, sampling_grid, sdedit_denoise,
                       simulate_drift_only)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
