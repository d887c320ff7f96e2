"""ceralab: a desk-scale adapter testbed.

Trains and dissects weight-level adapters (linear LoRA vs. the gated
non-linear CeRA) on a tiny frozen transformer, with spectral diagnostics
for rank utilization: effective rank, cumulative energy, AUC-90.
"""

from .adapters import (Adapter, AdapterConfig, AdapterState, init_adapter,
                       merge_linear, param_count)
from .experiments import (ExperimentConfig, MethodSpec, ResultRecord,
                          cmd_ablate, cmd_logistic, cmd_params, cmd_spectral,
                          cmd_sweep)
from .model import (FrozenBackbone, ModelConfig, build_model, collect_latents,
                    forward, inject)
from .spectral import (SpectralReport, activation_spectrum, auc90,
                       delta_w_linear, effective_rank, energy_curve,
                       svd_values)
from .tasks import (Dataset, linear_floor, logistic_map, logistic_map_table,
                    make_teacher_task, nonlinear_teacher, trajectory_sequences)
from .tensor import RngState, Tensor, backward, finite_difference_check
from .trainer import (TrainConfig, TrainReport, adamw_step, cosine_lr,
                      measure_throughput, perplexity, train_adapter)

__all__ = [
    "Adapter", "AdapterConfig", "AdapterState", "Dataset", "ExperimentConfig",
    "FrozenBackbone", "MethodSpec", "ModelConfig", "ResultRecord", "RngState",
    "SpectralReport", "Tensor", "TrainConfig", "TrainReport",
    "activation_spectrum", "adamw_step", "auc90", "backward", "build_model",
    "cmd_ablate", "cmd_logistic", "cmd_params", "cmd_spectral", "cmd_sweep",
    "collect_latents", "cosine_lr", "delta_w_linear", "effective_rank",
    "energy_curve", "finite_difference_check", "forward", "init_adapter",
    "inject", "linear_floor", "logistic_map", "logistic_map_table",
    "make_teacher_task", "measure_throughput", "merge_linear",
    "nonlinear_teacher", "param_count", "perplexity", "svd_values",
    "train_adapter", "trajectory_sequences",
]
__version__ = "0.1.0"
