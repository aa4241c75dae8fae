"""Tests for Radon points and approximate centerpoints."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometric import approx_centerpoint, centerpoint_depth, radon_point


class TestRadonPoint:
    def test_inside_convex_hull_2d(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = rng.normal(size=(4, 2))
            r = radon_point(pts)
            # Radon point lies in the hull of all 4 points; check via LP-free
            # test: it is a convex combination (solve least squares on the
            # simplex is overkill — check it is within the bounding box and
            # within max distance of the centroid)
            assert (r >= pts.min(axis=0) - 1e-9).all()
            assert (r <= pts.max(axis=0) + 1e-9).all()

    def test_square_diagonal_intersection(self):
        # Radon point of a square's corners is its centre
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(radon_point(pts), [0.5, 0.5])

    def test_3d_shape(self):
        rng = np.random.default_rng(1)
        r = radon_point(rng.normal(size=(5, 3)))
        assert r.shape == (3,)
        assert np.isfinite(r).all()

    def test_degenerate_coincident_points(self):
        pts = np.ones((5, 3))
        assert np.allclose(radon_point(pts), 1.0)

    def test_shape_validation(self):
        with pytest.raises(GeometryError):
            radon_point(np.zeros((4, 3)))


class TestApproxCenterpoint:
    def test_depth_on_uniform_square(self):
        rng = np.random.default_rng(2)
        pts = rng.random((2000, 2))
        cp = approx_centerpoint(pts, seed=3)
        # true centerpoint depth >= 1/3 in 2D; approximation should be deep
        assert centerpoint_depth(pts, cp, seed=4) > 0.2

    def test_depth_on_sphere_points_3d(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(3000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cp = approx_centerpoint(pts, seed=6)
        assert np.linalg.norm(cp) < 0.5  # symmetric cloud: near the origin
        assert centerpoint_depth(pts, cp, seed=7) > 0.15

    def test_tiny_input_returns_mean(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(approx_centerpoint(pts), [0.5, 0.0])

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            approx_centerpoint(np.zeros((0, 2)))

    @pytest.mark.parametrize("sample_size", [0, -5])
    def test_sample_size_below_one_raises(self, sample_size):
        pts = np.random.default_rng(13).random((50, 3))
        with pytest.raises(GeometryError, match="sample_size"):
            approx_centerpoint(pts, seed=1, sample_size=sample_size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [3, 50])
    def test_non_finite_points_raise(self, bad, n):
        pts = np.random.default_rng(14).random((n, 2))
        pts[n // 2, 1] = bad
        with pytest.raises(GeometryError, match="finite"):
            approx_centerpoint(pts, seed=1)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        pts = rng.random((500, 2))
        assert np.allclose(
            approx_centerpoint(pts, seed=9), approx_centerpoint(pts, seed=9)
        )

    def test_sampling_path(self):
        rng = np.random.default_rng(10)
        pts = rng.random((5000, 2))
        cp = approx_centerpoint(pts, seed=11, sample_size=300)
        assert centerpoint_depth(pts, cp, seed=12) > 0.15
