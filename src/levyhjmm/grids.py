"""Aligned space-time grids with dt = dx.

The fixed-point machinery reads r0(t+x), lambda(t-s+x) and every other
moving-frame quantity exactly at grid nodes; this only works because the
time and space steps are the same number.  A field on the grid is a matrix
over (t_i, x_j) whose row i is meaningful for x up to (n_w - i) cells: the
triangle t + x <= x_max + t_star is self-contained under the moving-frame
reads, everything beyond is NaN-poisoned.

On this grid a moving-frame read at t - s + x walks down a column of the
natural frame T = t + x, so every sum over s of G(s, t - s + x) is one
cumulative sum per natural-frame column (`SolveGrid.sum_along_t`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _cells(span: float, dt: float, what: str) -> int:
    n = int(round(span / dt))
    if n < 1 or abs(n * dt - span) > 1e-12 * max(1.0, span):
        raise ValueError(f"dt={dt} must divide {what}={span} (within 1e-12)")
    return n


def _nodes(dt: float, n: int) -> np.ndarray:
    """dt * (0, 1, ..., n), read-only, since a grid builds it once and shares it."""
    nodes = dt * np.arange(n + 1)
    nodes.flags.writeable = False
    return nodes


@dataclass(frozen=True)
class SolveGrid:
    """Uniform grid with dt = dx over t in [0, t_star], x in [0, x_max].

    Internally curves extend over the wide x-range [0, x_max + t_star]
    (n_w cells) so that the frame shift t - s + x never leaves the grid.
    """

    t_star: float
    dt: float
    x_max: float

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        _cells(self.t_star, self.dt, "t_star")
        _cells(self.x_max, self.dt, "x_max")

    @cached_property
    def n_t(self) -> int:
        return _cells(self.t_star, self.dt, "t_star")

    @cached_property
    def n_x(self) -> int:
        return _cells(self.x_max, self.dt, "x_max")

    @cached_property
    def n_w(self) -> int:
        return self.n_t + self.n_x

    @cached_property
    def t(self) -> np.ndarray:
        return _nodes(self.dt, self.n_t)

    @cached_property
    def x_wide(self) -> np.ndarray:
        return _nodes(self.dt, self.n_w)

    @cached_property
    def x(self) -> np.ndarray:
        return _nodes(self.dt, self.n_x)

    def row_width(self, i: int) -> int:
        """Last valid x-index of row i (inclusive)."""
        return self.n_w - i

    def empty_field(self) -> np.ndarray:
        """NaN-poisoned matrix; entries outside the triangle stay NaN."""
        return np.full((self.n_t + 1, self.n_w + 1), np.nan)

    @cached_property
    def _mask(self) -> np.ndarray:
        i = np.arange(self.n_t + 1)[:, None]
        j = np.arange(self.n_w + 1)[None, :]
        mask = i + j <= self.n_w
        mask.flags.writeable = False
        return mask

    def valid_mask(self) -> np.ndarray:
        """Read-only boolean matrix of the triangle t + x <= x_max + t_star."""
        return self._mask

    def nan_sup(self, field: np.ndarray) -> float:
        """Sup of |field| over the valid triangle."""
        return float(np.nanmax(np.abs(self.triangle(field))))

    @cached_property
    def _triangle_idx(self) -> np.ndarray:
        """Flat indices of the triangle, row-major."""
        return np.flatnonzero(self._mask)

    @cached_property
    def _remaps(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """For to_natural and to_moving: the flat index each entry is read
        from, and the mask of the entries that are filled instead (they read
        an arbitrary entry of their row first)."""
        i = np.arange(self.n_t + 1)[:, None]
        j = np.arange(self.n_w + 1)[None, :]
        row = i * (self.n_w + 1)
        natural = (row + np.maximum(j - i, 0)).ravel(), j < i
        moving = (row + np.minimum(i + j, self.n_w)).ravel(), ~self._mask
        return natural, moving

    # Fields may carry leading axes (a stack of paths); the helpers below act
    # on the last two axes and keep the leading ones.

    def triangle(self, field) -> np.ndarray:
        """The entries of field on the triangle, in row-major order, along one last axis."""
        field = np.asarray(field, dtype=float)
        flat = field.reshape(field.shape[:-2] + (field.shape[-2] * field.shape[-1],))
        return flat.take(self._triangle_idx, axis=-1)

    def from_triangle(self, values: np.ndarray) -> np.ndarray:
        """Inverse of `triangle`: the field, NaN beyond the triangle."""
        out = np.full(values.shape[:-1] + (self._mask.size,), np.nan)
        out[..., self._triangle_idx] = values
        return out.reshape(values.shape[:-1] + self._mask.shape)

    @cached_property
    def _natural_idx(self) -> np.ndarray:
        """Flat natural-frame index (i, i + j) of each triangle entry, in `triangle` order."""
        return self._triangle_idx + self._triangle_idx // (self.n_w + 1)

    def natural_from_triangle(self, values: np.ndarray) -> np.ndarray:
        """The natural-frame field of the `triangle` entries values: f[i, i + j]
        = values at (i, j), 0 for T < i."""
        rows, cols = self.n_t + 1, self.n_w + 1
        out = np.zeros(values.shape[:-1] + (rows * cols,))
        out[..., self._natural_idx] = values
        return out.reshape(values.shape[:-1] + (rows, cols))

    @staticmethod
    def _remap(field, remap, fill: float | None) -> np.ndarray:
        """field read at the flat indices of remap; fill None leaves the
        entries it would fill as read."""
        idx, filled = remap
        field = np.asarray(field, dtype=float)
        out = field.reshape(field.shape[:-2] + (idx.size,)).take(idx, axis=-1).reshape(field.shape)
        if fill is not None:
            np.copyto(out, fill, where=filled)
        return out

    def to_natural(self, field: np.ndarray, fill: float = np.nan) -> np.ndarray:
        """f[i, T] = field[i, T - i] for T >= i; `fill` elsewhere."""
        return self._remap(field, self._remaps[0], fill)

    def to_moving(self, field: np.ndarray) -> np.ndarray:
        """r[i, j] = field[i, i + j] on the triangle; NaN beyond it."""
        return self._remap(field, self._remaps[1], np.nan)

    def shifted(self, curve: np.ndarray) -> np.ndarray:
        """The curve read in the moving frame, curve(t_i + x_j), on the triangle."""
        return self.to_moving(np.broadcast_to(curve[: self.n_w + 1], (self.n_t + 1, self.n_w + 1)))

    def sum_along_t(self, G: np.ndarray, rule: str = "trapezoid") -> np.ndarray:
        """E[i, j] = sum_{k <= i} w_k G[k, i - k + j] over the triangle, NaN beyond.

        rule "trapezoid": w_0 = w_i = 1/2, 1 in between, E[0] = 0;
        rule "left": w_k = 1 for k < i, w_i = 0.  This is `cumsum_natural`
        between the two frame remaps.
        """
        return self.to_moving(self.cumsum_natural(self.to_natural(G, fill=0.0), rule))

    @staticmethod
    def cumsum_natural(Gn: np.ndarray, rule: str = "trapezoid") -> np.ndarray:
        """sum_along_t in the natural frame: En[i, T] = sum_{k <= i} w_k Gn[k, T]
        for Gn[i, T] = G[i, T - i], 0 for T < i.  Gn is scaled in place.

        The terms are summed in order of k, so E equals the row-by-row loop
        over k bit for bit, and nothing is subtracted, so an infinite term
        never turns into NaN.
        """
        if rule == "trapezoid":
            Gn[..., 0, :] *= 0.5
        elif rule != "left":
            raise ValueError(f"rule must be 'trapezoid' or 'left', got {rule!r}")
        En = np.zeros_like(Gn)
        np.cumsum(Gn[..., :-1, :], axis=-2, out=En[..., 1:, :])
        if rule == "trapezoid":
            En[..., 1:, :] += 0.5 * Gn[..., 1:, :]
        return En
