"""Aligned space-time grids with dt = dx.

The fixed-point machinery reads r0(t+x), lambda(t-s+x) and every other
moving-frame quantity exactly at grid nodes; this only works because the
time and space steps are the same number.  A field on the grid is a matrix
over (t_i, x_j) whose row i is meaningful for x up to (n_w - i) cells: the
triangle t + x <= x_max + t_star is self-contained under the moving-frame
reads, everything beyond is NaN-poisoned.

On this grid a moving-frame read at t - s + x walks down a column of the
natural frame T = t + x, so every sum over s of G(s, t - s + x) is one
cumulative sum per natural-frame column (`SolveGrid.sum_along_t`).  Row i
of the triangle and row i of the natural frame from T = i on hold the same
entries, so the triangle entries in row-major order (`SolveGrid.triangle`)
are the one hub between a field and the natural frame.
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

    # The index tables, each read by one gather.  The natural frame holds
    # Gn[i, T] = G[i, T - i] for T >= i.

    @cached_property
    def _triangle_idx(self) -> np.ndarray:
        """Flat field index of each triangle entry, row-major: `triangle` order."""
        return np.flatnonzero(self._mask)

    @cached_property
    def _natural_idx(self) -> np.ndarray:
        """The `triangle` position that each natural-frame node (i, T) reads:
        that of (i, T - i), or one past the last (a pad entry) for T < i."""
        tri = self._triangle_idx
        idx = np.full(self._mask.size, tri.size)
        idx[tri + tri // (self.n_w + 1)] = np.arange(tri.size)
        return idx.reshape(self._mask.shape)

    @cached_property
    def _moving_idx(self) -> np.ndarray:
        """The flat natural-frame index that each field node (i, j) reads:
        that of (i, i + j) on the triangle, that of (n_t, 0) beyond it."""
        i = np.arange(self.n_t + 1)[:, None]
        j = np.arange(self.n_w + 1)[None, :]
        return np.where(self._mask, i * (self.n_w + 2) + j, self.n_t * (self.n_w + 1))

    @cached_property
    def _column_idx(self) -> np.ndarray:
        """The x-index j of each triangle entry, in `triangle` order."""
        return self._triangle_idx % (self.n_w + 1)

    # Fields may carry leading axes (a stack of paths); the helpers below act
    # on the last two axes, or on the last axis of triangle entries, and keep
    # the leading ones.

    def triangle(self, field) -> np.ndarray:
        """The entries of field on the triangle, in row-major order, along one last axis."""
        field = np.asarray(field, dtype=float)
        flat = field.reshape(field.shape[:-2] + (field.shape[-2] * field.shape[-1],))
        return flat.take(self._triangle_idx, axis=-1)

    def curve_on_triangle(self, curve: np.ndarray) -> np.ndarray:
        """A curve on the wide x-grid read at each triangle entry (i, j), curve(x_j),
        in `triangle` order."""
        return curve.take(self._column_idx)

    def _moving(self, En: np.ndarray) -> np.ndarray:
        """The field E[i, j] = En[i, i + j] of the natural-frame En, NaN beyond
        the triangle: every node there reads En[n_t, 0], which lies below the
        diagonal (T = 0 < n_t), where no triangle node reads, and is set to NaN."""
        En[..., -1, 0] = np.nan
        return En.reshape(En.shape[:-2] + (-1,)).take(self._moving_idx, axis=-1)

    def shifted(self, curve: np.ndarray) -> np.ndarray:
        """The curve read in the moving frame, curve(t_i + x_j), on the triangle."""
        # in the natural frame the read is curve(T) in every row
        return self._moving(np.tile(np.asarray(curve[: self.n_w + 1], dtype=float), (self.n_t + 1, 1)))

    def sum_along_t(self, values: np.ndarray, rule: str = "trapezoid") -> np.ndarray:
        """The field E[i, j] = sum_{k <= i} w_k G[k, i - k + j] of the G whose
        `triangle` entries are values; NaN beyond the triangle.

        rule "trapezoid": w_0 = w_i = 1/2, 1 in between, E[0] = 0;
        rule "left": w_k = 1 for k < i, w_i = 0.  E is one cumulative sum
        down each column of the natural frame Gn[i, T] = G[i, T - i] (0 for
        T < i).  The terms are summed in order of k, so E equals the
        row-by-row loop over k bit for bit, and nothing is subtracted, so an
        infinite term never turns into NaN.
        """
        if rule not in ("trapezoid", "left"):
            raise ValueError(f"rule must be 'trapezoid' or 'left', got {rule!r}")
        lead = values.shape[:-1]
        # values, padded with the 0 that the nodes T < i read
        Gn = np.concatenate((values, np.zeros(lead + (1,))), axis=-1).take(self._natural_idx, axis=-1)
        if rule == "trapezoid":
            Gn[..., 0, :] *= 0.5
        En = np.zeros_like(Gn)
        np.cumsum(Gn[..., :-1, :], axis=-2, out=En[..., 1:, :])
        if rule == "trapezoid":
            Gn[..., 1:, :] *= 0.5
            En[..., 1:, :] += Gn[..., 1:, :]
        return self._moving(En)
