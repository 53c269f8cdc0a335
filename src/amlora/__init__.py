"""Sequential low-rank adapters with attention-gated mixing, desk scale.

A self-contained laboratory for studying catastrophic forgetting: a small
reverse-mode autodiff engine, tiny transformer/MLP backbones with adapter
attachment sites, per-task low-rank adapters, a softmax gating selector whose
heads carry an L1 penalty, baseline training methods, synthetic task streams
with metrics reporting, and a numerical verifier showing that weight
orthogonality does not prevent output drift.
"""

from .adapters import AdapterStack, LoraAdapter, new_adapter
from .autodiff import Optimizer, Tensor, backward, finite_diff_check, no_grad
from .baselines import METHODS, MethodSpec, make_driver
from .checkpoint import load_checkpoint, save_checkpoint
from .configfile import (apply_overrides, config_digest, default_config,
                         load_config, parse_config)
from .errors import (CheckpointFormatError, ConfigError, DimensionError,
                     GradientError, StateError)
from .harness import (MetricsReport, TrainConfig, emit_report, evaluate,
                      run_stream, train_task)
from .model import ModelConfig, build_model
from .ortho import (counterexample_1d, counterexample_2d, counterexample_nd,
                    random_orthogonality_study)
from .selector import AttentionalSelector
from .tasks import TaskSpec, TaskStream, build_stream, generate_task

__version__ = "0.1.0"

__all__ = [
    "AdapterStack", "AttentionalSelector", "CheckpointFormatError",
    "ConfigError", "DimensionError", "GradientError", "LoraAdapter",
    "METHODS", "MethodSpec", "MetricsReport", "ModelConfig", "Optimizer",
    "StateError", "TaskSpec", "TaskStream", "Tensor", "TrainConfig",
    "apply_overrides", "backward", "build_model", "build_stream",
    "config_digest", "counterexample_1d", "counterexample_2d",
    "counterexample_nd", "default_config", "emit_report", "evaluate",
    "finite_diff_check", "generate_task", "load_checkpoint", "load_config",
    "make_driver", "new_adapter", "no_grad", "parse_config",
    "random_orthogonality_study", "run_stream", "save_checkpoint",
    "train_task",
]
