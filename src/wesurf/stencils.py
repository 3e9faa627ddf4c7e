"""Finite-difference stencils on uniformly spaced 1-D/2-D sample arrays.

Weights come from Fornberg's recursion, so any derivative order / accuracy
combination is available from one code path.  Interior nodes use centered
stencils; the rows near each edge fall back to one-sided stencils of the
same formal accuracy, which keeps output arrays the same shape as the input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class StencilError(ValueError):
    """A stencil request or input the finite-difference layer cannot serve."""


def fixed_order_dot(w: np.ndarray, slabs: np.ndarray) -> np.ndarray:
    """sum_k w[k] * slabs[k], accumulated in the order k = 0, 1, ... .

    Elementwise numpy ops only: a BLAS product would let the loaded CPU
    kernel and the operand shape choose the summation order, and with it
    the bits of the result.
    """
    acc = w[0] * slabs[0]
    tmp = np.empty_like(acc)
    for k in range(1, len(w)):
        acc += np.multiply(w[k], slabs[k], out=tmp)
    return acc


def fd_weights(z: float, x: tuple[float, ...], m: int) -> np.ndarray:
    """Weights w such that sum(w * f(x)) approximates the m-th derivative at z.

    Fornberg's algorithm (Math. Comp. 51, 1988).  `x` are distinct sample
    locations; accuracy is len(x) - m for generic node placement.
    """
    n = len(x)
    if m >= n:
        raise StencilError(f"need more than {m} nodes for derivative order {m}")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c2 = 1.0
        mn = min(i, m)
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - (x[i - 1] - z) * c[i - 1, k]) / c2
                c[i, 0] = -c1 * (x[i - 1] - z) * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = ((x[i] - z) * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = (x[i] - z) * c[j, 0] / c3
        c1 = c2
    return c[:, m]


@lru_cache(maxsize=None)
def _stencil_table(order: int, accuracy: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(centered weights, edge weight matrix, halfwidth) for unit spacing.

    The edge matrix row k gives the one-sided stencil used at node k from the
    boundary (and, mirrored, at the opposite edge).  One-sided windows have
    order + accuracy nodes, matching the centered stencil's accuracy.
    """
    if order not in (1, 2):
        raise StencilError("derivative order must be 1 or 2")
    if accuracy not in (2, 4, 6):
        raise StencilError("accuracy must be 2, 4 or 6")
    width = accuracy + 1  # centered window, odd
    half = width // 2
    offsets = tuple(float(k) for k in range(-half, half + 1))
    center = fd_weights(0.0, offsets, order)
    edge_width = order + accuracy
    edge = np.zeros((half, edge_width))
    nodes = tuple(float(k) for k in range(edge_width))
    for k in range(half):
        edge[k] = fd_weights(float(k), nodes, order)
    return center, edge, half


def min_samples(order: int, accuracy: int) -> int:
    """Smallest axis length the (order, accuracy) stencil pair supports."""
    _, edge, half = _stencil_table(order, accuracy)
    return max(2 * half + 1, edge.shape[1])


def axis_derivative(arr: np.ndarray, h: float, axis: int, order: int = 1,
                    accuracy: int = 2) -> np.ndarray:
    """Differentiate `arr` along `axis` assuming uniform spacing `h`.

    Centered stencils on the interior, one-sided stencils of the same
    accuracy on the `half` rows nearest each edge.
    """
    if not np.all(np.isfinite(arr)):
        raise StencilError("non-finite input to finite-difference stencil")
    center, edge, half = _stencil_table(order, accuracy)
    n = arr.shape[axis]
    need = min_samples(order, accuracy)
    if n < need:
        raise StencilError(
            f"axis has {n} samples; order={order} accuracy={accuracy} needs >= {need}")
    work = np.moveaxis(arr, axis, 0)
    out = np.zeros_like(work)
    # interior: sum of shifted slabs
    for k, w in enumerate(center):
        if w != 0.0:
            out[half:n - half] += w * work[k:n - 2 * half + k]
    # edges: one-sided stencils
    ew = edge.shape[1]
    for k in range(half):
        out[k] = fixed_order_dot(edge[k], work[:ew])
        out[n - half + k] = fixed_order_dot(edge[half - 1 - k, ::-1], work[n - ew:])
    if order % 2 == 1:
        out[n - half:] = -out[n - half:]
    out /= h ** order
    return np.moveaxis(out, 0, axis)


def interior_mask(shape: tuple[int, int], accuracy: int, order: int = 1) -> np.ndarray:
    """Boolean mask of nodes whose stencils are fully centered on both axes."""
    _, _, half = _stencil_table(order, accuracy)
    mask = np.zeros(shape, dtype=bool)
    if shape[0] > 2 * half and shape[1] > 2 * half:
        mask[half:shape[0] - half, half:shape[1] - half] = True
    return mask
