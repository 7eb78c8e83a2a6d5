"""Real-space simulation grid and its centered Fourier dual.

A grid is a cubic cell of volume ``cell_volume`` sampled with
``points_per_axis`` points per axis. Integer axis indices run over a
window centered on zero: for odd m the window is [-(m-1)/2, (m-1)/2],
which makes the index set exactly symmetric (k_{-p} = -k_p); even m is
also accepted, with the standard FFT window [-m/2, m/2-1], for classical
baselines that ask for power-of-two grids. Either window is the FFT
window 0..m-1 rotated (``np.fft.ifftshift`` maps it there). An operator
diagonal in momentum, such as the kinetic propagator, is circulant on
each axis and so acts on the centered window as on the FFT window: only
its momentum table is read in FFT-bin order.

Positions are r_p = p * L / m and frequencies k_p = 2*pi*p / L with
L = cell_volume**(1/dim), componentwise over the same index window.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import ValidationError


def register_qubits(n_orbitals: int) -> int:
    """Qubits per register holding labels 0..n_orbitals-1 (at least one)."""
    return max(1, math.ceil(math.log2(n_orbitals)))


@dataclass(frozen=True)
class GridSpec:
    """Cubic simulation grid in ``dim`` dimensions."""

    dim: int
    points_per_axis: int
    cell_volume: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValidationError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.points_per_axis < 1:
            raise ValidationError("points_per_axis must be positive")
        if not (self.cell_volume > 0 and math.isfinite(self.cell_volume)):
            raise ValidationError("cell_volume must be positive and finite")

    @property
    def total_points(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def length(self) -> float:
        """Edge length L of the cell."""
        return self.cell_volume ** (1.0 / self.dim)

    @property
    def spacing(self) -> float:
        """Grid spacing delta = L / points_per_axis."""
        return self.length / self.points_per_axis

    @property
    def qubits_per_register(self) -> int:
        return register_qubits(self.total_points)

    @cached_property
    def axis_window(self) -> np.ndarray:
        """Centered integer indices for one axis, ascending: from -(m-1)/2
        for odd m, from -m/2 for even m."""
        m = self.points_per_axis
        return np.arange(-(m // 2), m - m // 2, dtype=np.int64)

    @cached_property
    def index_points(self) -> np.ndarray:
        """Integer lattice points p for every flat grid index, shape (N, dim).

        Flat index order is row-major over the axes, axis 0 most significant.
        """
        axes = [self.axis_window] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @cached_property
    def positions(self) -> np.ndarray:
        """Real-space points r_p, shape (N, dim)."""
        return self.index_points * (self.length / self.points_per_axis)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Dual frequencies k_p, shape (N, dim)."""
        return self.index_points * (2.0 * np.pi / self.length)

    def flat_index(self, point) -> int:
        """Flat grid index of an integer lattice point."""
        m = self.points_per_axis
        lo = int(self.axis_window[0])
        idx = 0
        for comp in np.atleast_1d(np.asarray(point, dtype=np.int64)):
            t = int(comp) - lo
            if not 0 <= t < m:
                raise ValidationError(f"lattice point {point} outside grid window")
            idx = idx * m + t
        return idx
