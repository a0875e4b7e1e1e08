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

    @property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(self.n_t + 1)

    @property
    def x_wide(self) -> np.ndarray:
        return self.dt * np.arange(self.n_w + 1)

    @property
    def x(self) -> np.ndarray:
        return self.dt * np.arange(self.n_x + 1)

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

    def nan_sup(self, field: np.ndarray):
        """Sup of |field| over the valid triangle: a float for one field, an
        array over the leading axes for a stack of fields."""
        sup = np.nanmax(np.abs(self.triangle(field)), axis=-1)
        return float(sup) if sup.ndim == 0 else sup

    @cached_property
    def _frames(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The triangle in the moving (i, j) and the natural (i, T = i + j)
        frame, each as a boolean mask and as flat indices; both frames list
        it in the same row-major order."""
        i = np.arange(self.n_t + 1)[:, None]
        T = np.arange(self.n_w + 1)[None, :]
        natural = T >= i
        natural.flags.writeable = False
        return (self._mask, np.flatnonzero(self._mask)), (natural, np.flatnonzero(natural))

    # Fields may carry leading axes (a stack of paths); the helpers below act
    # on the last two axes and keep the leading ones.

    @staticmethod
    def _gather(field, frame) -> np.ndarray:
        field = np.asarray(field, dtype=float)
        flat = field.reshape(field.shape[:-2] + (field.shape[-2] * field.shape[-1],))
        return flat.take(frame[1], axis=-1)

    @staticmethod
    def _scatter(values: np.ndarray, frame, fill: float) -> np.ndarray:
        mask, idx = frame
        out = np.full(values.shape[:-1] + mask.shape, fill)
        if values.size == idx.size:  # one field: a boolean assignment is fastest
            out.reshape(mask.shape)[mask] = values.reshape(-1)
        else:
            rows = out.reshape(-1, mask.size)
            rows[:, idx] = values.reshape(rows.shape[0], idx.size)
        return out

    def triangle(self, field) -> np.ndarray:
        """The entries of field on the triangle, in row-major order, along one last axis."""
        return self._gather(field, self._frames[0])

    def from_triangle(self, values: np.ndarray) -> np.ndarray:
        """Inverse of `triangle`: the field, NaN beyond the triangle."""
        return self._scatter(values, self._frames[0], np.nan)

    def to_natural(self, field: np.ndarray, fill: float = np.nan) -> np.ndarray:
        """f[i, T] = field[i, T - i] for T >= i; `fill` elsewhere."""
        moving, natural = self._frames
        return self._scatter(self._gather(field, moving), natural, fill)

    def to_moving(self, field: np.ndarray) -> np.ndarray:
        """r[i, j] = field[i, i + j] on the triangle; NaN beyond it."""
        moving, natural = self._frames
        return self._scatter(self._gather(field, natural), moving, np.nan)

    def shifted(self, curve: np.ndarray) -> np.ndarray:
        """The curve read in the moving frame, curve(t_i + x_j), on the triangle."""
        return self.to_moving(np.broadcast_to(curve[: self.n_w + 1], (self.n_t + 1, self.n_w + 1)))

    def sum_along_t(self, G: np.ndarray, rule: str = "trapezoid") -> np.ndarray:
        """E[i, j] = sum_{k <= i} w_k G[k, i - k + j] over the triangle, NaN beyond.

        rule "trapezoid": w_0 = w_i = 1/2, 1 in between, E[0] = 0;
        rule "left": w_k = 1 for k < i, w_i = 0.  The terms are summed in
        order of k, so E equals the row-by-row loop over k bit for bit, and
        nothing is subtracted, so an infinite term never turns into NaN.
        """
        Gn = self.to_natural(G, fill=0.0)
        if rule == "trapezoid":
            Gn[..., 0, :] *= 0.5
        elif rule != "left":
            raise ValueError(f"rule must be 'trapezoid' or 'left', got {rule!r}")
        En = np.zeros_like(Gn)
        np.cumsum(Gn[..., :-1, :], axis=-2, out=En[..., 1:, :])
        if rule == "trapezoid":
            En[..., 1:, :] += 0.5 * Gn[..., 1:, :]
        return self.to_moving(En)
