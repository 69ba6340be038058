"""Adam optimizer over a named parameter registry, and the shared training step."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensor import Tape, Tensor


class Adam:
    """Bias-corrected Adam with one moment pair per registered parameter.

    Every registered parameter must carry a populated ``grad`` when
    ``step`` runs; the step consumes and clears the gradients.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"adam step: parameter '{name}' has no gradient")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def train_step(tape: Tape, loss: Tensor, optimizer: Adam, epoch: int, index: int) -> float:
    """Backpropagate a finite loss and take one optimizer step.

    Returns the loss value. A non-finite loss raises before any
    parameter moves; ``epoch`` and ``index`` (the batch) name the step.
    """
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss at epoch {epoch}, batch {index}")
    tape.backward(loss)
    optimizer.step()
    return value
