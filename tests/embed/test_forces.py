"""Tests for force laws, Barnes–Hut and the fixed-lattice approximation."""

import numpy as np
import pytest

from repro.embed import (
    Box,
    attractive_forces,
    beta_force_field,
    lattice_stats,
    repulsive_forces_bh,
    repulsive_forces_exact,
    repulsive_forces_lattice,
    spring_energy,
)
from repro.errors import EmbeddingError
from repro.graph import CSRGraph
from repro.graph.generators import path_graph


class TestAttractive:
    def test_two_vertices_pull_together(self):
        g = path_graph(2).graph
        pos = np.array([[0.0, 0.0], [3.0, 0.0]])
        f = attractive_forces(g, pos, k=1.0)
        # |F| = d^2/K = 9, directed toward the neighbour
        assert np.allclose(f, [[9.0, 0.0], [-9.0, 0.0]])

    def test_k_scales_inverse(self):
        g = path_graph(2).graph
        pos = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert np.allclose(
            attractive_forces(g, pos, k=2.0), attractive_forces(g, pos, k=1.0) / 2
        )

    def test_edge_weights_scale(self):
        g = CSRGraph.from_edges(2, np.array([[0, 1]]), np.array([5.0]))
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(attractive_forces(g, pos), [[5.0, 0.0], [-5.0, 0.0]])

    def test_isolated_vertices_zero(self):
        g = CSRGraph.empty(3)
        f = attractive_forces(g, np.random.default_rng(0).random((3, 2)))
        assert np.allclose(f, 0)

    def test_shape_validation(self):
        g = path_graph(3).graph
        with pytest.raises(EmbeddingError):
            attractive_forces(g, np.zeros((2, 2)))
        with pytest.raises(EmbeddingError):
            attractive_forces(g, np.zeros((3, 2)), k=0)


class TestRepulsiveExact:
    def test_two_points_push_apart(self):
        pos = np.array([[0.0, 0.0], [2.0, 0.0]])
        f = repulsive_forces_exact(pos, c=1.0, k=1.0)
        # |F| = CK^2/d = 0.5, away from the other point
        assert np.allclose(f, [[-0.5, 0.0], [0.5, 0.0]])

    def test_net_force_zero(self):
        rng = np.random.default_rng(1)
        pos = rng.random((50, 2))
        f = repulsive_forces_exact(pos)
        assert np.allclose(f.sum(axis=0), 0, atol=1e-9)

    def test_masses_scale(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        f1 = repulsive_forces_exact(pos, np.array([1.0, 1.0]), c=1.0)
        f2 = repulsive_forces_exact(pos, np.array([2.0, 3.0]), c=1.0)
        assert np.allclose(f2, 6 * f1)

    def test_empty(self):
        assert repulsive_forces_exact(np.zeros((0, 2))).shape == (0, 2)

    def test_coincident_points_finite(self):
        f = repulsive_forces_exact(np.zeros((3, 2)))
        assert np.isfinite(f).all()

    def test_bad_shape(self):
        with pytest.raises(EmbeddingError, match=r"pos must be \(n, 2\)"):
            repulsive_forces_exact(np.zeros((4, 3)))

    def test_masses_length_mismatch(self):
        with pytest.raises(EmbeddingError, match=r"masses must be \(4,\)"):
            repulsive_forces_exact(np.zeros((4, 2)), np.ones(3))


class TestBarnesHut:
    def relative_error(self, n, seed, clustered=False):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 2)) * 10
        if clustered:
            pos[: n // 2] *= 0.1
        masses = rng.random(n) + 0.5
        exact = repulsive_forces_exact(pos, masses)
        approx = repulsive_forces_bh(pos, masses, leaf_target=2.0)
        num = np.linalg.norm(approx - exact, axis=1)
        den = np.linalg.norm(exact, axis=1) + 1e-12
        return num / den

    @pytest.mark.parametrize("n,seed", [(500, 0), (1200, 1)])
    def test_accuracy_uniform(self, n, seed):
        err = self.relative_error(n, seed)
        assert np.median(err) < 0.10
        assert err.mean() < 0.2

    def test_accuracy_clustered(self):
        err = self.relative_error(800, 2, clustered=True)
        assert np.median(err) < 0.15

    def test_small_input_exact(self):
        rng = np.random.default_rng(3)
        pos = rng.random((50, 2))
        assert np.allclose(
            repulsive_forces_bh(pos), repulsive_forces_exact(pos)
        )

    def test_momentum_nearly_conserved(self):
        rng = np.random.default_rng(4)
        pos = rng.random((600, 2))
        f = repulsive_forces_bh(pos)
        scale = np.abs(f).sum()
        assert np.abs(f.sum(axis=0)).max() < 0.05 * scale

    def test_bad_shape(self):
        with pytest.raises(EmbeddingError):
            repulsive_forces_bh(np.zeros((4, 3)))

    @pytest.mark.parametrize("n", [50, 300], ids=["exact-fallback", "tree"])
    def test_masses_length_mismatch(self, n):
        pos = np.random.default_rng(6).random((n, 2))
        with pytest.raises(EmbeddingError, match=rf"masses must be \({n},\)"):
            repulsive_forces_bh(pos, np.ones(n + 1))


class TestLattice:
    def test_stats_mass_conserved(self):
        rng = np.random.default_rng(5)
        pos = rng.random((300, 2))
        masses = rng.random(300) + 0.5
        st = lattice_stats(pos, masses, Box.of_points(pos), 8)
        assert st.mass.sum() == pytest.approx(masses.sum())

    def test_stats_com_weighted(self):
        pos = np.array([[0.1, 0.1], [0.3, 0.1]])
        masses = np.array([1.0, 3.0])
        st = lattice_stats(pos, masses, Box.unit(), 2)
        assert np.allclose(st.com[0], [0.25, 0.1])

    def test_field_zero_on_empty_cells(self):
        pos = np.array([[0.1, 0.1]])
        st = lattice_stats(pos, np.ones(1), Box.unit(), 4)
        field = beta_force_field(st)
        assert np.allclose(field[st.mass == 0], 0)

    def test_converges_to_exact_with_fine_lattice(self):
        rng = np.random.default_rng(6)
        pos = rng.random((400, 2)) * 5
        masses = np.ones(400)
        box = Box.of_points(pos)
        exact = repulsive_forces_exact(pos, masses)
        errs = []
        for s in (2, 8, 32):
            approx = repulsive_forces_lattice(pos, masses, box=box, s=s)
            errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert errs[2] < errs[0]
        assert errs[2] < 0.5  # coarse but directionally useful

    def test_external_stats_reused(self):
        rng = np.random.default_rng(7)
        pos = rng.random((100, 2))
        box = Box.unit()
        st = lattice_stats(pos, np.ones(100), box, 4)
        f1 = repulsive_forces_lattice(pos, box=box, s=4, stats=st)
        f2 = repulsive_forces_lattice(pos, box=box, s=4)
        assert np.allclose(f1, f2)

    def test_stats_side_mismatch(self):
        pos = np.zeros((2, 2))
        st = lattice_stats(pos, np.ones(2), Box.unit(), 4)
        with pytest.raises(EmbeddingError):
            repulsive_forces_lattice(pos, box=Box.unit(), s=8, stats=st)

    def test_single_cell_is_pure_com_repulsion(self):
        pos = np.array([[0.2, 0.5], [0.8, 0.5]])
        f = repulsive_forces_lattice(pos, box=Box.unit(), s=1, c=1.0, k=1.0)
        # each is repelled from the midpoint: left goes more left
        assert f[0, 0] < 0 < f[1, 0]


class TestEnergy:
    def test_energy_decreases_when_spring_relaxes(self):
        g = path_graph(2).graph
        stretched = spring_energy(g, np.array([[0.0, 0.0], [5.0, 0.0]]))
        relaxed = spring_energy(g, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert relaxed < stretched
