"""Dependency-controlled self-supervised pretraining for time series.

Patch-level normalization with a learnable local/global blend,
frequency-filtered positive views, hierarchical windowed encoding, and
masked-reconstruction pretraining with an instance alignment loss, all
on a small reverse-mode autodiff core with fully reproducible streams.
"""

from .config import RunConfig, load_config, parse_config_text
from .data import Dataset, DatasetSpec, PatchSet, WindowSample, load_csv, patchify, unpatchify
from .dcl import DclBlock, DclConfig
from .finetune import Metrics, compute_metrics, run_finetuning
from .icm import FilterConfig, Spectrum, contrastive_loss, dft_forward, dft_inverse
from .ipn import NormStats, compute_stats, denormalize, normalize
from .model import ModelDims, ModelState
from .optim import Adam
from .pretrain import run_pretraining
from .rng import Rng
from .tensor import Tape, Tensor

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Dataset",
    "DatasetSpec",
    "DclBlock",
    "DclConfig",
    "FilterConfig",
    "Metrics",
    "ModelDims",
    "ModelState",
    "NormStats",
    "PatchSet",
    "Rng",
    "RunConfig",
    "Spectrum",
    "Tape",
    "Tensor",
    "WindowSample",
    "compute_metrics",
    "compute_stats",
    "contrastive_loss",
    "denormalize",
    "dft_forward",
    "dft_inverse",
    "load_config",
    "load_csv",
    "normalize",
    "parse_config_text",
    "patchify",
    "run_finetuning",
    "run_pretraining",
    "unpatchify",
]
