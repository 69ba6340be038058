"""Adam optimizer over a named parameter registry, and the one training loop."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensor import BLOCK, Tape, Tensor, _blocks


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
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:
                raise ContractError(f"adam: parameter '{name}' is not a C-contiguous array")
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros(p.shape) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in self.params.items()}

    def step(self) -> None:
        """One update, in place and block by block.

        Each element sees the operations of the plain expressions::

            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

        in that order, so the bits do not depend on the block size.
        """
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"adam step: parameter '{name}' has no gradient")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        # the two intermediates of a block, allocated when no activation is
        # live, so that they never add to a training step's peak memory
        largest = max((p.size for p in self.params.values()), default=0)
        scratch = np.empty((2, min(largest, BLOCK)))
        for name, p in self.params.items():
            g = p.grad.reshape(-1)
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            data = p.data.reshape(-1)
            for s in _blocks(p.size):
                gs, ms, vs = g[s], m[s], v[s]
                a, b = scratch[:, : s.stop - s.start]
                ms *= self.beta1
                np.multiply(1.0 - self.beta1, gs, out=a)
                ms += a
                vs *= self.beta2
                np.multiply(1.0 - self.beta2, gs, out=a)
                a *= gs
                vs += a
                np.divide(ms, bc1, out=a)
                a *= self.lr
                np.divide(vs, bc2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                data[s] -= a
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
