"""Aligned space-time grids with dt = dx.

The fixed-point machinery reads r0(t+x), lambda(t-s+x) and every other
moving-frame quantity exactly at grid nodes; this only works because the
time and space steps are the same number.  A field on the grid is a matrix
over (t_i, x_j) whose row i is meaningful for x up to (n_w - i) cells: the
triangle t + x <= x_max + t_star is self-contained under the moving-frame
reads, everything beyond is NaN-poisoned.

On this grid a moving-frame read at t - s + x walks down a column of the
natural frame T = t + x, so every sum over s of G(s, t - s + x) is one
cumulative sum per natural-frame column (`SolveGrid.sum_along_t`).  The
natural frame is a reshape: a field stored in rows of n_w + 2, one spare
entry per row, reads as the natural frame in rows of n_w + 1, with the
nodes T < i on the previous row's entries beyond the triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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
        for name in ("t_star", "dt", "x_max"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
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

    def node(self, t: float, last: int, error: str) -> int:
        """The i in [0, last] with |i dt - t| <= 1e-9 max(1, |t|), else (a non-finite t too) ValueError(error)."""
        if not math.isfinite(t):
            raise ValueError(error)
        i = round(t / self.dt)
        if abs(i * self.dt - t) > 1e-9 * max(1.0, abs(t)) or not 0 <= i <= last:
            raise ValueError(error)
        return i

    def crop(self, t_star: float, T_max: float) -> SolveGrid:
        """The sub-grid on the same dt whose triangle holds the nodes t <= t_star,
        t + x <= T_max: n_t = max(1, index of t_star), n_x = max(1, index of
        T_max - n_t), so its nodes are this grid's floats.  K is causal in t
        and in T = t + x, so each iterate of a solve on the crop is the whole
        grid's iterate there, bit for bit (the stop rules read the crop
        alone).  A crop that covers the grid is the grid itself.  t_star and
        T_max must be nodes (`node`) of the grid's t- and T-ranges, T_max >= t_star."""
        i_t = self.node(t_star, self.n_t, f"crop t_star={t_star} is not inside the grid on a node")
        i_T = self.node(T_max, self.n_w, f"crop T_max={T_max} is not inside the grid on a node")
        if i_T < i_t:
            raise ValueError(f"crop T_max={T_max} is before t_star={t_star}")
        n_t = max(1, i_t)
        n_x = max(1, i_T - n_t)
        if (n_t, n_x) == (self.n_t, self.n_x):
            return self
        return SolveGrid(t_star=n_t * self.dt, dt=self.dt, x_max=n_x * self.dt)

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

    @cached_property
    def off_mask(self) -> np.ndarray:
        """Read-only boolean matrix of the nodes beyond the triangle, ~valid_mask()."""
        off = ~self._mask
        off.flags.writeable = False
        return off

    def valid_mask(self) -> np.ndarray:
        """Read-only boolean matrix of the triangle t + x <= x_max + t_star."""
        return self._mask

    def nan_sup(self, field: np.ndarray) -> float:
        """Sup of |field| over the valid triangle."""
        return float(np.nanmax(np.abs(self.triangle(field))))

    # Fields may carry leading axes (a stack of paths); the helpers below act
    # on the last two axes and keep the leading ones.

    def triangle(self, field) -> np.ndarray:
        """The entries of field on the triangle, in row-major order, along one last axis."""
        return np.asarray(field, dtype=float)[..., self._mask]

    def shifted(self, curve: np.ndarray) -> np.ndarray:
        """The curve read in the moving frame, curve(t_i + x_j), on the triangle,
        NaN beyond it: a read-only view of the curve padded with n_t NaNs."""
        padded = np.concatenate((curve[: self.n_w + 1], np.full(self.n_t, np.nan)))
        return sliding_window_view(padded, self.n_w + 1)

    def _natural(self, padded: np.ndarray) -> np.ndarray:
        """The natural frame Gn[i, T] = G[i, T - i] of a field G stored in rows
        of n_w + 2: read in rows of n_w + 1, node (i, T) lies at flat offset
        i (n_w + 1) + T = i (n_w + 2) + (T - i), and for T < i it lands on row
        i - 1's spare entries beyond the triangle."""
        lead = padded.shape[:-2]
        n = (self.n_t + 1) * (self.n_w + 1)
        return padded.reshape(lead + (-1,))[..., :n].reshape(lead + self._mask.shape)

    def padded_pair(self, lead: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
        """Two zeroed buffers of shape lead + (n_t + 1, n_w + 2), `sum_along_t`'s
        work; leading slices of a stack's pair serve any shorter stack."""
        shape = lead + (self.n_t + 1, self.n_w + 2)
        return np.zeros(shape), np.zeros(shape)

    def sum_along_t(self, G: np.ndarray, rule: str = "trapezoid", work=None) -> np.ndarray:
        """The field E[i, j] = sum_{k <= i} w_k G[k, i - k + j] of the field G
        (broadcast to the field's shape, so a curve on the wide x-grid is the
        field that repeats it in every row); NaN beyond the triangle, and G is
        never read there.

        rule "trapezoid": w_0 = w_i = 1/2, 1 in between, E[0] = 0;
        rule "left": w_k = 1 for k < i, w_i = 0.  E is one cumulative sum
        down each column of the natural frame (`_natural`, 0 for T < i).  The
        terms are summed in order of k, so E equals the row-by-row loop over
        k bit for bit, and nothing is subtracted, so an infinite term never
        turns into NaN.

        work: the two padded buffers (`padded_pair`, sliced to G's stack) to
        use in place of fresh ones; E is then a view of the second.  They
        may be reused from call to call, whatever was done to E: the first
        is only written with G on the triangle and halved (its zeros beyond
        the triangle stay zeros), and every entry of the second that E reads
        is written here.
        """
        if rule not in ("trapezoid", "left"):
            raise ValueError(f"rule must be 'trapezoid' or 'left', got {rule!r}")
        Gp, Ep = self.padded_pair(G.shape[:-2]) if work is None else work
        np.copyto(Gp[..., :-1], G, where=self._mask)
        Gn = self._natural(Gp)
        if rule == "trapezoid":
            Gn[..., 0, :] *= 0.5
        En = self._natural(Ep)
        En[..., 0, :] = 0.0
        np.cumsum(Gn[..., :-1, :], axis=-2, out=En[..., 1:, :])
        if rule == "trapezoid":
            Gn[..., 1:, :] *= 0.5
            En[..., 1:, :] += Gn[..., 1:, :]
        E = Ep[..., :-1]
        np.copyto(E, np.nan, where=self.off_mask)
        return E
