"""Time-varying dynamic Bayesian network learning and graph-based forecasting.

The package learns, from a multivariate sensor series, one pair of causal
graphs per time step — an acyclic same-tick graph and an unconstrained
one-tick-lag graph — by training a recurrent graph generator under a
differentiable acyclicity penalty inside an augmented-Lagrangian loop.
The learned graph sequences then drive a dynamic graph-convolution
forecaster trained with a masked-error curriculum.

Layout:

* ``numerics``  — float64 reverse-mode autodiff over numpy arrays, the
  matrix exponential, gradient checking, Adam;
* ``graphops``  — spectral and row-normalized graph convolutions and the
  two-hop dynamic propagation step;
* ``data``      — speed/distance table IO, normalization, windowing,
  chronological splits;
* ``grcsl``     — the recurrent structure generator (attention
  correlations, per-lag GRUs, Gumbel-Sigmoid graph heads, and the
  self-reconstruction objective);
* ``constraint``— acyclicity measure ``h`` and the augmented-Lagrangian
  training loop;
* ``dgcpm``     — the forecaster, its curriculum trainer, and forecast
  export;
* ``synth``     — ground-truth samplers, the linear-SEM simulator, and
  structure-recovery scoring;
* ``metrics``   — masked MAE/RMSE/MAPE evaluation and report rendering;
* ``checkpoint``— parameter (de)serialization;
* ``cli``       — the ``tvdbn`` command.
"""

from .constraint import (
    AugLagState,
    GrcslTrainConfig,
    GrcslTrainResult,
    auglag_objective,
    auglag_update,
    constraint_sum,
    grcsl_loss,
    notears_h,
    train_grcsl,
)
from .data import (
    NormStats,
    PriorGraph,
    SpeedSeries,
    Window,
    WindowSet,
    apply_zscore,
    build_distance_graph,
    invert_zscore,
    load_distance_rows,
    load_speed_table,
    make_windows,
    save_speed_table,
    split_chronological,
    time_of_day,
    zscore_fit_apply,
)
from .dgcpm import (
    DgcpmDims,
    DgcpmParams,
    DgcpmTrainConfig,
    SplitArrays,
    curriculum_train,
    dgcpm_forward_batch,
    masked_mae_loss,
    predict,
)
from .errors import ConfigError, DataError, NumericalError, ShapeError, TvdbnError
from .graphops import (
    GconvParams,
    dygconv,
    gconv_spatial,
    gconv_spectral,
    normalize_row,
    normalize_symmetric,
)
from .grcsl import (
    CausalGraphSeq,
    GrcslDims,
    GrcslParams,
    export_graph_edges,
    graph_stacks,
    grcsl_forward_batch,
)
from .metrics import EvalReport, HorizonMetrics, evaluate, render_report
from .numerics import Adam, Tensor, expm, grad_check, no_grad, trace_expm
from .synth import (
    GroundTruthTvdbn,
    RecoveryScore,
    random_recovery_baseline,
    sample_tvdbn,
    score_recovery,
    simulate_linear_sem,
    structural_hamming_distance,
    to_speed_series,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AugLagState",
    "CausalGraphSeq",
    "ConfigError",
    "DataError",
    "DgcpmDims",
    "DgcpmParams",
    "DgcpmTrainConfig",
    "EvalReport",
    "GconvParams",
    "GrcslDims",
    "GrcslParams",
    "GrcslTrainConfig",
    "GrcslTrainResult",
    "GroundTruthTvdbn",
    "HorizonMetrics",
    "NormStats",
    "NumericalError",
    "PriorGraph",
    "RecoveryScore",
    "ShapeError",
    "SpeedSeries",
    "SplitArrays",
    "Tensor",
    "TvdbnError",
    "Window",
    "WindowSet",
    "apply_zscore",
    "auglag_objective",
    "auglag_update",
    "build_distance_graph",
    "constraint_sum",
    "curriculum_train",
    "dgcpm_forward_batch",
    "dygconv",
    "evaluate",
    "expm",
    "export_graph_edges",
    "gconv_spatial",
    "gconv_spectral",
    "grad_check",
    "graph_stacks",
    "grcsl_forward_batch",
    "grcsl_loss",
    "invert_zscore",
    "load_distance_rows",
    "load_speed_table",
    "make_windows",
    "masked_mae_loss",
    "no_grad",
    "normalize_row",
    "normalize_symmetric",
    "notears_h",
    "predict",
    "random_recovery_baseline",
    "render_report",
    "sample_tvdbn",
    "save_speed_table",
    "score_recovery",
    "simulate_linear_sem",
    "split_chronological",
    "structural_hamming_distance",
    "time_of_day",
    "to_speed_series",
    "trace_expm",
    "train_grcsl",
    "zscore_fit_apply",
]
