"""Minimal differentiable-network core: tensors, layers, losses, optimizers."""

from .tensor import Tensor, no_grad
from .layers import (
    LayerSpec,
    ParamSet,
    backprop,
    init_stack_params,
    layer_output_shape,
    run_stack,
    stack_output_shape,
)
from .losses import bce_loss, cross_entropy_loss
from .optim import AdamState, SgdState, adam_step, sgd_step
from .gradcheck import GradCheckReport, finite_difference_check, grad_check
from .checkpoint import load_tensors, save_tensors

__all__ = [
    "Tensor",
    "no_grad",
    "LayerSpec",
    "ParamSet",
    "backprop",
    "init_stack_params",
    "layer_output_shape",
    "run_stack",
    "stack_output_shape",
    "bce_loss",
    "cross_entropy_loss",
    "AdamState",
    "SgdState",
    "adam_step",
    "sgd_step",
    "GradCheckReport",
    "finite_difference_check",
    "grad_check",
    "load_tensors",
    "save_tensors",
]
