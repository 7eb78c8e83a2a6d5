"""Grid geometry and the centered Fourier transform."""

import numpy as np
import pytest

from fqlab.errors import ValidationError
from fqlab.grids import GridSpec

from conftest import centered_dft_matrix, flat_index, grid_dft_matrix


class TestGridSpec:
    def test_derived_quantities(self):
        grid = GridSpec(dim=3, points_per_axis=3, cell_volume=27.0)
        assert grid.total_points == 27
        assert grid.length == pytest.approx(3.0)
        assert grid.spacing == pytest.approx(1.0)
        assert grid.qubits_per_register == 5

    def test_odd_window_is_symmetric(self):
        grid = GridSpec(dim=1, points_per_axis=7, cell_volume=7.0)
        assert list(grid.axis_window) == [-3, -2, -1, 0, 1, 2, 3]
        freqs = grid.frequencies[:, 0]
        assert np.allclose(np.sort(freqs), -np.sort(-freqs)[::-1])

    def test_frequency_negation_symmetry(self):
        grid = GridSpec(dim=2, points_per_axis=5, cell_volume=9.0)
        for point in grid.index_points:
            k_plus = grid.frequencies[flat_index(grid, point)]
            k_minus = grid.frequencies[flat_index(grid, -point)]
            assert np.allclose(k_plus, -k_minus, atol=1e-14)

    def test_even_window_accepted_for_baselines(self):
        grid = GridSpec(dim=1, points_per_axis=16, cell_volume=16.0)
        assert list(grid.axis_window[:2]) == [-8, -7]
        assert grid.total_points == 16

    def test_flat_index_roundtrip(self):
        grid = GridSpec(dim=3, points_per_axis=3, cell_volume=8.0)
        for flat, point in enumerate(grid.index_points):
            assert flat_index(grid, point) == flat

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(dim=4, points_per_axis=3, cell_volume=1.0)
        with pytest.raises(ValidationError):
            GridSpec(dim=1, points_per_axis=0, cell_volume=1.0)
        with pytest.raises(ValidationError):
            GridSpec(dim=1, points_per_axis=3, cell_volume=-2.0)


def centered(transform, x, axes=None):
    """``transform`` (an n-D FFT) in the centered window: the input rotated
    to the FFT window and the output back."""
    return np.fft.fftshift(transform(np.fft.ifftshift(x, axes), axes=axes,
                                     norm="ortho"), axes)


class TestCenteredDft:
    @pytest.mark.parametrize("m", [3, 4, 5, 8, 9])
    def test_matrix_is_unitary(self, m):
        d = centered_dft_matrix(m)
        assert np.max(np.abs(d.conj().T @ d - np.eye(m))) < 1e-12

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_fft_path_matches_matrix(self, m, rng):
        x = rng.normal(size=m) + 1j * rng.normal(size=m)
        d = centered_dft_matrix(m)
        assert np.max(np.abs(centered(np.fft.fftn, x) - d @ x)) < 1e-12
        assert np.max(np.abs(centered(np.fft.ifftn, x)
                             - d.conj().T @ x)) < 1e-12
        # all axes at once, odd and even lengths mixed
        shape = (m, m + 1, 2)
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        full = np.array([[1.0 + 0j]])
        for size in shape:
            full = np.kron(full, centered_dft_matrix(size))
        assert np.max(np.abs(centered(np.fft.fftn, y).ravel()
                             - full @ y.ravel())) < 1e-12
        assert np.max(np.abs(centered(np.fft.ifftn, y).ravel()
                             - full.conj().T @ y.ravel())) < 1e-12

    def test_roundtrip_identity(self, rng):
        x = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        back = centered(np.fft.ifftn, centered(np.fft.fftn, x, (1,)), (1,))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_grid_matrix_is_kron_of_axes(self):
        grid = GridSpec(dim=2, points_per_axis=3, cell_volume=4.0)
        axis = centered_dft_matrix(3)
        assert np.allclose(grid_dft_matrix(grid), np.kron(axis, axis))
