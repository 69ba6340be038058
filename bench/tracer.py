"""Per-layer spans recorded from outside decop.

A :class:`Tracer` replaces public functions of the decop modules with thin
wrappers that open a span on entry and close it on exit. Each span holds
its name, start, end, parent span, the optimizer step in progress and a
detail (input shapes for tensor ops, word counts for the RNG). Spans stay
in memory and are written out once the run ends.

What is wrapped, and from where the program reaches it:

* every public op function of ``decop.tensor``: callers reach them through
  the module (``T.affine``), so replacing the module attribute suffices;
* ``Tape.record``: each recorded backward closure is swapped for a timed
  one named after the op that recorded it (``tensor.<op>.bwd``);
* the layer functions listed in :meth:`Tracer.install`, patched in the
  modules that call them.

A span's self time is its duration minus the time covered by its child
spans. Tensor-op metrics use self time, so a composite op such as
``squared_error`` or ``dropout`` does not count the ops or RNG draws it
calls; the other layer metrics use inclusive time.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict

from decop import checkpoint, data, dcl, finetune, icm, ipn, pretrain
from decop import tensor as T
from decop.model import ModelState
from decop.optim import Adam
from decop.rng import Rng
from decop.tensor import Tape, Tensor

_clock = time.perf_counter

# tensor ops reported by name; every public op is traced and counts
# toward tensor.fwd_ms
REPORTED_OPS = (
    "affine", "dropout", "add", "narrow", "pad_axis", "concat_rows", "masked_fill_rows",
    "reshape", "mul", "sub", "div", "mean_axis", "sum_axis", "gelu", "sqrt", "clamp_min",
    "exp", "log",
)

# per timed step, inclusive span time
STEP_LAYERS = (
    "data.batch", "rng.bernoulli", "rng.uniform", "ipn.compute_stats", "ipn.normalize",
    "icm.views", "icm.contrastive", "dcl.block0.fwd", "dcl.block1.fwd", "model.encode",
    "optim.adam", "pretrain.batch_fwd",
)

# name -> unit, in report order
LAYER_UNITS = {
    "data.load_csv_ms": "ms",
    "data.sample_windows_ms": "ms",
    "data.batch_ms": "ms",
    "rng.bernoulli_ms": "ms",
    "rng.uniform_ms": "ms",
    "rng.permutation_ms": "ms",
    "rng.words_per_step": "count",
    "ipn.compute_stats_ms": "ms",
    "ipn.normalize_ms": "ms",
    "icm.views_ms": "ms",
    "icm.contrastive_ms": "ms",
    "dcl.block0.fwd_ms": "ms",
    "dcl.block1.fwd_ms": "ms",
    "model.encode_ms": "ms",
    "model.init_ms": "ms",
    "tensor.fwd_ms": "ms",
    "tensor.backward_ms": "ms",
    "tensor.tape_entries_per_step": "count",
    "tensor.alloc_mb_per_step": "MB",
    "tensor.affine.gflops": "GFLOP/s",
    **{
        f"tensor.{op}.{kind}": unit
        for op in REPORTED_OPS
        for kind, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"))
    },
    "optim.adam_ms": "ms",
    "pretrain.batch_fwd_ms": "ms",
    "pretrain.first_step_ms": "ms",
    "finetune.evaluate_ms": "ms",
    "finetune.first_step_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "trace.overhead_pct": "%",
}


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
        return False


def _shapes(args) -> tuple:
    return tuple(a.shape for a in args if isinstance(a, Tensor))


class Tracer:
    """In-memory span recorder; :meth:`install` wraps decop's layers."""

    def __init__(self):
        # [name, start, end, parent index or -1, step, detail]
        self.spans: list[list] = []
        self.step = 0
        self.counts: defaultdict[tuple[str, int], float] = defaultdict(float)
        self._stack: list[int] = []
        self._last_out: Tensor | None = None
        self._block_index: dict[int, int] = {}

    # -- recording ------------------------------------------------------------

    def _open(self, name: str, detail=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.step, detail])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn, detail=None):
        def traced(*args, **kwargs):
            index = self._open(name, detail(args) if detail else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _wrap_op(self, op: str, fn):
        name = f"tensor.{op}"

        def traced(*args, **kwargs):
            index = self._open(name, _shapes(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            # a composite op returns its last inner op's output: count once;
            # a view of an input (reshape) allocates nothing
            if out is not self._last_out and out.data.base is None:
                self.counts["alloc_bytes", self.step] += out.data.nbytes
            self._last_out = out
            return out

        return traced

    def _wrap_record(self, record):
        tracer = self

        def traced_record(tape, inputs, output, backward):
            # the op that is recording is the innermost open span
            name = tracer.spans[tracer._stack[-1]][0] + ".bwd" if tracer._stack else "tensor.bwd"
            shapes = tuple(t.shape for t in inputs)

            def timed_backward(g):
                index = tracer._open(name, shapes)
                try:
                    return backward(g)
                finally:
                    tracer._close(index)

            tracer.counts["tape_entries", tracer.step] += 1
            record(tape, inputs, output, timed_backward)

        return traced_record

    def _wrap_batches(self, batches):
        tracer = self

        def traced_batches(*args, **kwargs):
            it = batches(*args, **kwargs)
            while True:
                index = tracer._open("data.batch")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        return traced_batches

    def _wrap_block(self, block_forward):
        tracer = self

        def traced_block(z, block, *args, **kwargs):
            # blocks are numbered in the order the encoder first runs them
            number = tracer._block_index.setdefault(id(block), len(tracer._block_index))
            index = tracer._open(f"dcl.block{number}.fwd", _shapes((z,)))
            try:
                return block_forward(z, block, *args, **kwargs)
            finally:
                tracer._close(index)

        return traced_block

    def _wrap_step(self, step):
        tracer = self

        def traced_step(optimizer):
            index = tracer._open("optim.adam")
            try:
                step(optimizer)
            finally:
                tracer._close(index)
            tracer.step += 1

        return traced_step

    def install(self, patches: Patches) -> None:
        """Wrap the tensor ops and the layer functions the loops call."""
        for name, fn in inspect.getmembers(T, inspect.isfunction):
            if fn.__module__ == T.__name__ and not name.startswith("_"):
                patches.set(T, name, self._wrap_op(name, fn))
        patches.set(Tape, "record", self._wrap_record(Tape.record))
        patches.set(Tape, "backward", self.wrap("tensor.backward", Tape.backward))
        patches.set(Adam, "step", self._wrap_step(Adam.step))
        patches.set(ModelState, "__init__", self.wrap("model.init", ModelState.__init__))
        # detail: the word count n of words(self, n)
        patches.set(Rng, "words", self.wrap("rng.words", Rng.words, lambda args: args[1]))
        for method in ("bernoulli", "uniform", "permutation"):
            patches.set(Rng, method, self.wrap(f"rng.{method}", getattr(Rng, method)))
        patches.set(data, "load_csv", self.wrap("data.load_csv", data.load_csv))
        patches.set(ipn, "compute_stats", self.wrap("ipn.compute_stats", ipn.compute_stats))
        patches.set(ipn, "normalize", self.wrap("ipn.normalize", ipn.normalize))
        patches.set(icm, "generate_positive_views", self.wrap("icm.views", icm.generate_positive_views))
        patches.set(icm, "contrastive_loss", self.wrap("icm.contrastive", icm.contrastive_loss))
        patches.set(dcl, "block_forward", self._wrap_block(dcl.block_forward))
        patches.set(checkpoint, "save", self.wrap("checkpoint.save", checkpoint.save))
        patches.set(checkpoint, "load", self.wrap("checkpoint.load", checkpoint.load))
        for module in (pretrain, finetune):
            patches.set(module, "sample_windows", self.wrap("data.sample_windows", module.sample_windows))
            patches.set(module, "batches", self._wrap_batches(module.batches))
            patches.set(module, "encode_patches", self.wrap("model.encode", module.encode_patches))
        patches.set(pretrain, "pretrain_epoch", self.wrap("pretrain.epoch", pretrain.pretrain_epoch))
        patches.set(pretrain, "pretrain_batch", self.wrap("pretrain.batch_fwd", pretrain.pretrain_batch))
        patches.set(finetune, "finetune_epoch", self.wrap("finetune.epoch", finetune.finetune_epoch))
        for name in ("forecast_forward", "classify_forward"):
            patches.set(finetune, name, self.wrap("finetune.batch_fwd", getattr(finetune, name)))
        patches.set(finetune, "evaluate", self.wrap("finetune.evaluate", finetune.evaluate))

    # -- output ---------------------------------------------------------------

    def write_csv(self, path: str) -> None:
        """One line per span; times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent,step,detail\n")
            for i, (name, start, end, parent, step, detail) in enumerate(self.spans):
                text = "" if detail is None else str(detail).replace(",", ";").replace(" ", "")
                fh.write(
                    f"{i},{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},"
                    f"{parent},{step},{text}\n"
                )

    def layer_metrics(
        self,
        timed: set[int],
        step_ends: list[float],
        affine_macs_per_step: int,
        stage: str,
    ) -> dict[str, float]:
        """Per-layer numbers, without ``trace.overhead_pct``.

        Per-step metrics average over the ``timed`` steps, the same
        full-batch steps the end-to-end step timings use; per-epoch and
        set-up metrics average over calls.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        n_steps = max(len(timed), 1)
        inclusive: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        per_call: defaultdict[str, list[float]] = defaultdict(list)
        words = 0
        first_forward = None
        for i, (name, start, end, parent, step, detail) in enumerate(spans):
            duration = end - start
            if first_forward is None and step == 0 and name.endswith(".batch_fwd"):
                first_forward = start
            if step in timed:
                inclusive[name] += duration
                own[name] += duration - covered[i]
                calls[name] += 1
                if name == "rng.words":
                    words += detail
            if name == "data.sample_windows":
                if parent >= 0 and spans[parent][0].endswith(".epoch"):
                    per_call[name].append(duration)
            elif name in ("data.load_csv", "model.init", "checkpoint.save", "checkpoint.load",
                          "rng.permutation", "finetune.evaluate"):
                per_call[name].append(duration)

        def per_step(total: float) -> float:
            return total * 1e3 / n_steps

        def call_ms(name: str) -> float:
            values = per_call.get(name)
            return statistics.median(values) * 1e3 if values else 0.0

        out = {
            "data.load_csv_ms": call_ms("data.load_csv"),
            "data.sample_windows_ms": call_ms("data.sample_windows"),
            "rng.permutation_ms": call_ms("rng.permutation"),
            "rng.words_per_step": words / n_steps,
            "model.init_ms": call_ms("model.init"),
            "finetune.evaluate_ms": call_ms("finetune.evaluate"),
            "checkpoint.save_ms": call_ms("checkpoint.save"),
            "checkpoint.load_ms": call_ms("checkpoint.load"),
        }
        for name in STEP_LAYERS:
            out[f"{name}_ms"] = per_step(inclusive[name])
        ops = [n for n in own if n.startswith("tensor.") and n.count(".") == 1 and n != "tensor.backward"]
        out["tensor.fwd_ms"] = per_step(sum(own[n] for n in ops))
        out["tensor.backward_ms"] = per_step(inclusive["tensor.backward"])
        out["tensor.tape_entries_per_step"] = (
            sum(v for (key, step), v in self.counts.items() if key == "tape_entries" and step in timed)
            / n_steps
        )
        out["tensor.alloc_mb_per_step"] = (
            sum(v for (key, step), v in self.counts.items() if key == "alloc_bytes" and step in timed)
            / n_steps / 2**20
        )
        for op in REPORTED_OPS:
            out[f"tensor.{op}.fwd_ms"] = per_step(own[f"tensor.{op}"])
            out[f"tensor.{op}.bwd_ms"] = per_step(own[f"tensor.{op}.bwd"])
            out[f"tensor.{op}.calls"] = calls[f"tensor.{op}"] / n_steps
        affine_s = own["tensor.affine"] + own["tensor.affine.bwd"]
        # forward plus the two backward products, two FLOPs per MAC
        out["tensor.affine.gflops"] = (
            6.0 * affine_macs_per_step * len(timed) / affine_s / 1e9 if affine_s else 0.0
        )
        first_step = (step_ends[0] - first_forward) * 1e3 if step_ends and first_forward else 0.0
        out["pretrain.first_step_ms"] = first_step if stage == "pretrain" else 0.0
        out["finetune.first_step_ms"] = first_step if stage == "finetune" else 0.0
        return out
