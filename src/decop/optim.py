"""Adam optimizer over a named parameter registry, and the one training loop."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensor import Tape, Tensor


class Adam:
    """Bias-corrected Adam with one moment pair per registered parameter.

    Every registered parameter must carry a populated ``grad`` when
    ``step`` runs; the step consumes and clears the gradients.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4):
        self.params = dict(params)
        self.lr = lr
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


def train_epoch(batches, forward, optimizer: Adam, epoch: int) -> tuple[float, ...]:
    """One optimizer step per batch of a non-empty epoch; returns the means.

    ``forward(*batch)`` runs on a fresh tape and returns the loss tensor,
    then any other scalar tensors to average, in the order of the result.
    A non-finite loss raises before any parameter moves, naming the batch.
    """
    sums = 0.0
    for index, batch in enumerate(batches):
        with Tape() as tape:
            loss, *others = forward(*batch)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError(f"non-finite loss at epoch {epoch}, batch {index}")
        tape.backward(loss)
        optimizer.step()
        sums = sums + np.array([value] + [float(t.data) for t in others])
    return tuple(float(v) for v in sums / (index + 1))
