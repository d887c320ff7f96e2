"""ceralab: a desk-scale adapter testbed.

Trains and dissects weight-level adapters (linear LoRA vs. the gated
non-linear CeRA) on a tiny frozen transformer, with spectral diagnostics
for rank utilization: effective rank, cumulative energy, AUC-90.

Importing the package sets two process-wide defaults first, before any of
its modules loads numpy; see `_set_up_process`.
"""

import ctypes
import os

_M_TOP_PAD = -2  # glibc's mallopt(3) parameter number
# Free memory the heap keeps at its top before giving it back to the system.
# A cera r=16 language-model step frees about 9 MB at the end of backward;
# without a pad glibc trims it and the next step faults it back in (about
# 2,200 minor faults a step at d_model 64, batch 8). 64 MiB is about 7x that
# churn: 32 MiB sufficed as well, 8 MiB still left up to 1,240 faults a step.
_HEAP_TOP_PAD = 64 * 1024 * 1024


def _set_up_process() -> None:
    """Pin BLAS to one thread unless the caller chose a count (this takes
    effect only if numpy is not loaded yet), and, where the C library has
    `mallopt`, keep _HEAP_TOP_PAD bytes of freed heap between training steps.
    Running it again changes nothing."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc-style allocator
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


_set_up_process()

from .adapters import (Adapter, AdapterConfig, AdapterState, init_adapter,
                       merge_linear, param_count)
from .experiments import (ExperimentConfig, MethodSpec, cmd_ablate,
                          cmd_logistic, cmd_params, cmd_spectral, cmd_sweep)
from .model import (FrozenBackbone, ModelConfig, build_model, collect_latents,
                    forward, inject)
from .spectral import (SpectralReport, activation_spectrum, auc90,
                       delta_w_linear, effective_rank, energy_curve,
                       svd_values)
from .tasks import (Dataset, linear_floor, logistic_map, logistic_map_table,
                    make_teacher_task, nonlinear_teacher, trajectory_sequences)
from .tensor import Tensor, backward, finite_difference_check, stream
from .trainer import (TrainConfig, TrainReport, adamw_step, cosine_lr,
                      measure_throughput, train_adapter)

__all__ = [
    "Adapter", "AdapterConfig", "AdapterState", "Dataset", "ExperimentConfig",
    "FrozenBackbone", "MethodSpec", "ModelConfig", "SpectralReport", "Tensor",
    "TrainConfig", "TrainReport",
    "activation_spectrum", "adamw_step", "auc90", "backward", "build_model",
    "cmd_ablate", "cmd_logistic", "cmd_params", "cmd_spectral", "cmd_sweep",
    "collect_latents", "cosine_lr", "delta_w_linear", "effective_rank",
    "energy_curve", "finite_difference_check", "forward", "init_adapter",
    "inject", "linear_floor", "logistic_map", "logistic_map_table",
    "make_teacher_task", "measure_throughput", "merge_linear",
    "nonlinear_teacher", "param_count", "stream", "svd_values",
    "train_adapter", "trajectory_sequences",
]
__version__ = "0.1.0"
