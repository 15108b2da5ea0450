"""Adam optimizer over the autodiff engine's parameter tensors."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the standard moment decays and denominator floor


class Adam:
    """Standard Adam with bias correction; state keyed by parameter order."""

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self._t += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
