"""Bit-exactness of the stacked Radon reduction.

:func:`repro.geometric.centerpoint.approx_centerpoint` reduces each pass
with one stacked SVD; :mod:`tests.oracles.geometric` keeps the
per-tuple loop it replaced.  Every comparison is ``np.array_equal``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometric import approx_centerpoint, radon_point
from repro.geometric.centerpoint import _radon_points
from tests.oracles.geometric import (
    _approx_centerpoint_reference,
    _radon_point_reference,
)

#: first coordinate of a tuple's first point that makes the patched SVD
#: return an all-positive (resp. all-negative) null vector
_ALL_POS, _NO_POS = 7.25, -7.25


def _tuples(rng, m, d):
    """Random tuples across scales, with coincident and collinear ones."""
    g = d + 2
    t = rng.normal(size=(m, g, d)) * rng.choice([1e-6, 1.0, 1e5], size=(m, 1, 1))
    t[::5] = t[::5, :1]                            # all points coincide
    t[1::7, :, 1:] = 0.0                           # collinear on axis 0
    t[2::9, 1] = t[2::9, 0]                        # one repeated point
    return t


def _assert_rows_match(batched, tuples):
    for got, tup in zip(batched, tuples):
        want = _radon_point_reference(tup)
        assert np.array_equal(got, want), (tup, got, want)


class TestStackedRadon:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_equals_per_tuple(self, d, seed):
        tuples = _tuples(np.random.default_rng(seed), 120, d)
        _assert_rows_match(_radon_points(tuples), tuples)

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_tuple_case_equals_reference(self, d):
        for tup in _tuples(np.random.default_rng(40 + d), 30, d):
            assert np.array_equal(radon_point(tup), _radon_point_reference(tup))

    @pytest.mark.parametrize("d", [2, 3])
    def test_fallback_tuples(self, d, monkeypatch):
        """Tuples whose null vector is all positive or has no positive
        entry fall back to their centroid in both implementations; the
        rest of the batch is unaffected."""
        real_svd = np.linalg.svd
        g = d + 2
        forced = {_ALL_POS: np.linspace(0.1, 0.5, g),
                  _NO_POS: -np.linspace(0.1, 0.5, g)}

        def svd(a, *args, **kw):
            u, s, vh = real_svd(a, *args, **kw)
            vh = vh.copy()
            tag = np.asarray(a)[..., 1, 0]
            for value, lam in forced.items():
                vh[..., -1, :] = np.where((tag == value)[..., None], lam,
                                          vh[..., -1, :])
            return u, s, vh

        monkeypatch.setattr(np.linalg, "svd", svd)
        tuples = _tuples(np.random.default_rng(50 + d), 40, d)
        tuples[3::4, 0, 0] = _ALL_POS
        tuples[5::8, 0, 0] = _NO_POS
        batched = _radon_points(tuples)
        _assert_rows_match(batched, tuples)
        fell_back = np.isin(tuples[:, 0, 0], list(forced))
        assert fell_back.sum() >= 10
        for got, tup in zip(batched[fell_back], tuples[fell_back]):
            assert np.array_equal(got, tup.mean(axis=0))


class TestApproxCenterpointExact:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [5, 6, 7, 11, 50, 257, 999, 1000, 1001, 2000])
    def test_equals_per_tuple_loop(self, n, d):
        pts = np.random.default_rng(n * 10 + d).normal(size=(n, d))
        for seed in range(3):
            got = approx_centerpoint(pts, seed=seed)
            want = _approx_centerpoint_reference(pts, seed=seed)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("sample_size", [1, 7, 300])
    def test_equals_per_tuple_loop_when_sampling(self, sample_size):
        pts = np.random.default_rng(3).random((1500, 3))
        pts[::3] = pts[0]  # many coincident points
        got = approx_centerpoint(pts, seed=4, sample_size=sample_size)
        want = _approx_centerpoint_reference(pts, seed=4, sample_size=sample_size)
        assert np.array_equal(got, want)
