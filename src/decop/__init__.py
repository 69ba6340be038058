"""Dependency-controlled self-supervised pretraining for time series.

Patch-level normalization with a learnable local/global blend,
frequency-filtered positive views, hierarchical windowed encoding, and
masked-reconstruction pretraining with an instance alignment loss, all
on a small reverse-mode autodiff core with fully reproducible streams.
"""

__version__ = "0.1.0"
