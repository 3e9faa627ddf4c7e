"""Residual statistics shared by the PDE, geometry and soliton checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_RMS_SLACK = 1.0 + 4 * np.finfo(float).eps  # max_abs * _RMS_SLACK: 4 to 8 ulps above max_abs


@dataclass(frozen=True)
class ResidualReport:
    """max/mean/RMS of |residual| over the retained nodes of a grid check,
    and the count of nodes the mask dropped; `residual` is a read-only view
    of the array they were taken from."""

    max_abs: float
    mean_abs: float
    rms: float
    node_count: int
    worst_node: tuple[int, int]
    dropped_count: int = 0
    residual: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # NaN statistics pass through: the gates that read them fail closed.
        # The RMS of a constant residual can round 2 ulps above its max.
        if self.node_count > 0 and (self.rms > self.max_abs * _RMS_SLACK or self.rms < 0.0):
            raise ValueError("inconsistent residual statistics (need max >= rms >= 0)")


def kept_max(residual: np.ndarray, keep: np.ndarray) -> float:
    """max |residual| where keep is True; a NaN there is the result."""
    return float(np.max(np.abs(residual), where=keep, initial=-np.inf))


def residual_report(residual: np.ndarray, mask: np.ndarray | None = None) -> ResidualReport:
    """Build a ResidualReport from a 2-D residual array; mask selects the
    retained nodes (True = keep)."""
    view = residual.view()
    view.flags.writeable = False
    mag = np.abs(residual).astype(float, copy=False)  # a fresh float array: written below
    if mask is None:
        mask = np.ones(mag.shape, dtype=bool)
    kept = int(np.count_nonzero(mask))
    dropped = int(mask.size - kept)
    if not kept:
        return ResidualReport(np.nan, np.nan, np.nan, 0, (-1, -1), dropped, view)
    sel = mag[mask]
    max_abs, mean_abs = kept_max(mag, mask), float(sel.mean())
    mag[~mask] = -np.inf  # dropped nodes never win the argmax; the first NaN does
    worst = np.unravel_index(int(np.argmax(mag)), mag.shape)
    np.square(sel, out=sel)
    return ResidualReport(
        max_abs=max_abs,
        mean_abs=mean_abs,
        rms=float(np.sqrt(np.mean(sel))),
        node_count=kept,
        worst_node=(int(worst[0]), int(worst[1])),
        dropped_count=dropped,
        residual=view,
    )


__all__ = ["ResidualReport", "kept_max", "residual_report"]
