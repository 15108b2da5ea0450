"""Numerical core: autodiff tensors (float64, or float32 when given it), expm, gradient checks."""

from .gradcheck import GradReport, grad_check
from .linalg import expm, trace_expm
from .memory import available_mb, peak_rss_mb
from .optim import Adam
from .tensor import Params, Tensor, concat, glorot_uniform, no_grad
