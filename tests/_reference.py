"""Reference implementations that the tests compare the package against."""

from typing import Sequence

import numpy as np


def subsystem_transpose(M: np.ndarray, dims: Sequence[int], which: Sequence[int]) -> np.ndarray:
    """Transpose the chosen tensor factors of a multipartite operator."""
    dims = tuple(dims)
    n = len(dims)
    d = int(np.prod(dims))
    if M.shape != (d, d):
        raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
    tens = M.reshape(dims + dims)
    axes = list(range(2 * n))
    for i in which:
        if not 0 <= i < n:
            raise ValueError(f"subsystem index {i} out of range for {n} factors")
        axes[i], axes[i + n] = axes[i + n], axes[i]
    return tens.transpose(axes).reshape(d, d)
