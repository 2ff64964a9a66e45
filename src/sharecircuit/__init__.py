"""Threshold secret-sharing circuits synthesized from superconcentrator-like
graphs over a prime field, with connectivity and entropy verification."""

# The kernels (_kernels.py) are plain Python; benchmark records carry this
# name.
KERNEL_BACKEND = "pure"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
