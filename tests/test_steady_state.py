"""Steady-state MSE closed forms against the brute-force Riccati iteration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotseq import steady_state as ss

lam_st = st.floats(min_value=1e-3, max_value=1e3)
a_st = st.floats(min_value=0.05, max_value=0.99999)
rho_st = st.floats(min_value=1e-3, max_value=1e4)
g_st = st.sampled_from([1, 2, 4, 8, 16, 32])


def cell_by_cell(lam, a, rho, g, tol):
    """The Riccati iteration one cell at a time on Python floats, from the
    oracle's a**(2g) (same expression, same input shapes).  Returns the
    values and each cell's iteration count."""
    a2g = np.asarray(a, dtype=float) ** (2.0 * np.asarray(g, dtype=float))
    lam, a2g, rho = np.broadcast_arrays(np.asarray(lam, dtype=float), a2g,
                                        np.asarray(rho, dtype=float))
    values, counts = np.empty(lam.shape), np.empty(lam.shape, dtype=int)
    for idx in np.ndindex(lam.shape):
        x, k, r = float(lam[idx]), float(a2g[idx]), float(rho[idx])
        drift = (1.0 - k) * x
        for n in itertools.count(1):
            z = k * x + drift
            x_next = z / (r * z + 1.0)
            if abs(x_next - x) < tol:
                break
            x = x_next
        values[idx], counts[idx] = x_next, n
    return values, counts


# the whole grid starts with more live cells than the oracle's switch to
# per-cell iteration, its corner with fewer
WHOLE, CORNER = np.s_[...], np.s_[:1, :2, :2]


def oracle_grid():
    """4 x 4 x 5 x 2 (a, lam, rho, g) cells, most settling within a few hundred steps."""
    return np.meshgrid([0.3, 0.9, 0.99, 0.999], [0.05, 1.0, 20.0, 300.0],
                       [0.2, 3.0, 50.0, 900.0, 1e4], [1.0, 2.0], indexing="ij")


class TestMinSsMse:
    def test_memoryless_limit_is_one_shot_mmse(self):
        lam, rho = 2.0, 5.0
        assert ss.min_ss_mse(lam, 0.0, rho, 3) == pytest.approx(lam / (1 + lam * rho), rel=1e-14)

    def test_zero_power_returns_full_variance(self):
        assert ss.min_ss_mse(0.7, 0.9, 0.0, 4) == pytest.approx(0.7, rel=1e-14)

    def test_frozen_fixed_point(self):
        # closed form at 30 decimal digits for a=0.99, lam=1, rho=10, g=2
        assert ss.min_ss_mse(1.0, 0.99, 10.0, 2) == pytest.approx(
            0.045343466338532958, abs=1e-15
        )
        val, _ = ss.riccati_iterate_oracle(1.0, 0.99, 10.0, 2, tol=1e-13)
        assert abs(val - 0.045343466338532958) < 1e-9

    def test_static_channel_analytic_limit(self):
        assert ss.min_ss_mse(1.0, 1.0, 10.0, 2) == 0.0
        assert ss.min_ss_mse(1.0, 1.0, 0.0, 2) == 1.0  # never observed

    @given(lam=lam_st, a=a_st, rho=rho_st, g=g_st)
    @settings(max_examples=150, deadline=None)
    def test_fixed_point_property(self, lam, a, rho, g):
        x = ss.min_ss_mse(lam, a, rho, g)
        a2g = a ** (2 * g)
        z = a2g * x + (1 - a2g) * lam
        assert z / (rho * z + 1) == pytest.approx(x, rel=1e-12, abs=1e-300)

    @given(lam=lam_st, a=a_st, rho=rho_st, g=g_st)
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_channel_power(self, lam, a, rho, g):
        x = ss.min_ss_mse(lam, a, rho, g)
        assert 0 < x <= lam * (1 + 1e-12)

    @given(lam=lam_st, a=a_st, g=g_st)
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_power(self, lam, a, g):
        vals = [ss.min_ss_mse(lam, a, rho, g) for rho in (0.1, 1.0, 10.0, 100.0)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    @given(lam=lam_st, rho=rho_st, g=g_st)
    @settings(max_examples=60, deadline=None)
    def test_decreasing_in_correlation(self, lam, rho, g):
        vals = [ss.min_ss_mse(lam, a, rho, g) for a in (0.1, 0.5, 0.9, 0.99)]
        assert all(x >= y * (1 - 1e-12) for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [(np.nan, 0.9, 1.0, 1), (1.0, np.nan, 1.0, 1),
                                     (1.0, 0.9, np.nan, 1), (1.0, 0.9, 1.0, np.nan),
                                     (np.array([1.0, np.nan]), 0.9, 1.0, 1)])
    def test_nan_rejected(self, bad):
        with pytest.raises(ValueError):
            ss.min_ss_mse(*bad)

    @pytest.mark.parametrize("lam", [np.inf, np.array([1.0, np.inf])])
    def test_infinite_eigenvalue_rejected(self, lam):
        # the closed form reads inf / inf = nan there
        with pytest.raises(ValueError, match="eigenvalue"):
            ss.min_ss_mse(lam, 0.9, 1.0, 1)


class TestMaxSsMse:
    def test_every_block_training_collapses_envelope(self):
        floor = ss.min_ss_mse(1.0, 0.9, 2.0, 1)
        assert ss.max_ss_mse(floor, 1.0, 0.9, 1) == pytest.approx(floor, rel=1e-14)

    def test_static_channel_collapses_envelope(self):
        assert ss.max_ss_mse(0.3, 1.0, 1.0, 7) == pytest.approx(0.3, rel=1e-14)

    @pytest.mark.parametrize("bad, name", [
        ((-0.1, 1.0, 0.9, 2), "lam_floor"), ((np.inf, 1.0, 0.9, 2), "lam_floor"),
        ((np.nan, 1.0, 0.9, 2), "lam_floor"), ((0.5, 0.0, 0.9, 2), "lam"),
        ((0.5, np.inf, 0.9, 2), "lam"), ((0.5, np.nan, 0.9, 2), "lam"),
        ((0.5, 1.0, 1.5, 2), "a"), ((0.5, 1.0, -0.1, 2), "a"), ((0.5, 1.0, np.nan, 2), "a"),
        ((0.5, 1.0, 0.9, 0), "g"), ((0.5, 1.0, 0.9, np.nan), "g"),
        ((np.array([0.5, np.nan]), 1.0, 0.9, 2), "lam_floor")])
    def test_out_of_range_input_rejected(self, bad, name):
        # a = 1.5 once aged the floor to a negative ceiling, -0.125
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            ss.max_ss_mse(*bad)

    def test_long_interval_approaches_channel_power(self):
        floor = ss.min_ss_mse(2.0, 0.7, 5.0, 1)
        assert ss.max_ss_mse(floor, 2.0, 0.7, 4096) == pytest.approx(2.0, rel=1e-9)

    @given(lam=lam_st, a=a_st, rho=rho_st)
    @settings(max_examples=150, deadline=None)
    def test_interval_monotonicity(self, lam, a, rho):
        # sounding less often can only raise both envelopes
        divisors = [1, 2, 4, 8, 16, 32]
        floors = [ss.min_ss_mse(lam, a, rho, g) for g in divisors]
        ceils = [ss.max_ss_mse(f, lam, a, g) for f, g in zip(floors, divisors)]
        for x, y in zip(floors, floors[1:]):
            assert x <= y * (1 + 1e-12)
        for x, y in zip(ceils, ceils[1:]):
            assert x <= y * (1 + 1e-12)


class TestProfile:
    def test_untrained_modes_keep_channel_power(self):
        lam = np.array([3.0, 2.0, 1.0])
        prof = ss.profile(lam, 0.9, 5.0, np.array([0, 0, 0]))
        assert np.allclose(prof.lambda_lower, lam)
        assert np.allclose(prof.lambda_upper, lam)
        assert prof.n_d == 0

    def test_per_entry_scalar_agreement(self):
        lam = np.array([4.0, 2.0, 1.0, 0.5])
        g = np.array([1, 2, 4, 0])
        prof = ss.profile(lam, 0.95, 3.0, g)
        for i in range(3):
            lo = ss.min_ss_mse(lam[i], 0.95, 3.0, g[i])
            assert prof.lambda_lower[i] == pytest.approx(lo, rel=1e-13)
            assert prof.lambda_upper[i] == pytest.approx(
                ss.max_ss_mse(lo, lam[i], 0.95, g[i]), rel=1e-13
            )
        assert prof.lambda_lower[3] == lam[3]

    def test_norm_ordering(self):
        lam = np.geomspace(1.0, 0.01, 8)
        g = np.array([1, 1, 2, 2, 4, 4, 0, 0])
        prof = ss.profile(lam, 0.98, 10.0, g)
        assert prof.lambda_lower.sum() <= prof.upper_sum() <= lam.sum() + 1e-12

    def test_batch_equals_one_cell_profiles(self):
        # cells of unequal rank, untrained modes anywhere, a in {0, 1},
        # rho = 0 and a cell with nothing trained: each cell's envelopes
        # have the bits of its one-cell profile
        rng = np.random.default_rng(11)
        cells = []
        for _ in range(40):
            r = int(rng.integers(1, 12))
            lam = np.sort(rng.uniform(0.05, 3.0, size=r))[::-1]
            g = rng.choice([0, 1, 2, 4, 9, 27], size=r)
            a = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
            cells.append((lam, a, float(rng.choice([0.0, rng.uniform(0.1, 30.0)])), g))
        cells.append((np.array([2.0, 1.0]), 0.9, 3.0, np.zeros(2, dtype=int)))
        got = ss.profiles(*zip(*cells))
        assert len(got) == len(cells)
        for prof, cell in zip(got, cells):
            want = ss.profile(*cell)
            for field in ("lam", "lambda_lower", "lambda_upper", "g"):
                assert getattr(prof, field).tobytes() == getattr(want, field).tobytes()
            assert (prof.a, prof.rho, prof.n_d) == (want.a, want.rho, want.n_d)
        assert ss.profiles([], [], [], []) == []

    def test_unit_interval_collapses(self):
        lam = np.array([1.0, 0.5])
        prof = ss.profile(lam, 0.9, 2.0, np.array([1, 1]))
        assert np.allclose(prof.lambda_lower, prof.lambda_upper)


class TestRiccatiOracle:
    def test_matches_closed_form_broadly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lam = float(rng.uniform(0.01, 50.0))
            a = float(rng.uniform(0.1, 0.9999))
            rho = float(rng.uniform(0.01, 200.0))
            g = int(rng.choice([1, 2, 4, 8]))
            val, _ = ss.riccati_iterate_oracle(lam, a, rho, g, tol=1e-14)
            assert abs(val - ss.min_ss_mse(lam, a, rho, g)) < 1e-10

    def test_monotone_decreasing_iterates(self):
        lam, a, rho, g = 1.0, 0.95, 4.0, 2
        a2g = a ** (2 * g)
        x = lam
        prev = np.inf
        for _ in range(200):
            z = a2g * x + (1 - a2g) * lam
            x = z / (rho * z + 1)
            assert x <= prev + 1e-15
            prev = x

    def test_memoryless_converges_in_one_step(self):
        val, iters = ss.riccati_iterate_oracle(1.0, 0.0, 5.0, 3, tol=1e-12)
        assert iters <= 2
        assert val == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_max_iter_enforced(self):
        with pytest.raises(RuntimeError, match="converge"):
            ss.riccati_iterate_oracle(1.0, 0.99999, 10.0, 1, tol=1e-15, max_iter=10)

    def test_vectorized_grid(self):
        lam = np.array([0.1, 1.0, 10.0])
        vals, _ = ss.riccati_iterate_oracle(lam, 0.9, 2.0, 1, tol=1e-14)
        for i in range(3):
            assert vals[i] == pytest.approx(ss.min_ss_mse(lam[i], 0.9, 2.0, 1), abs=1e-11)

    def test_scalar_input_equals_float_loop(self):
        val, iters = ss.riccati_iterate_oracle(1.0, 0.99, 10.0, 2, tol=1e-13)
        want, counts = cell_by_cell(1.0, 0.99, 10.0, 2, tol=1e-13)
        assert type(val) is float
        assert val.hex() == float(want).hex() and iters == counts

    def test_broadcast_shapes_equal_float_loop(self):
        lam = np.array([[0.1], [2.0], [40.0]])
        a = np.array([0.5, 0.95, 0.995, 0.9995])
        g = np.array([1.0, 4.0])[:, None, None]
        vals, iters = ss.riccati_iterate_oracle(lam, a, 7.0, g, tol=1e-13)
        want, counts = cell_by_cell(lam, a, 7.0, g, tol=1e-13)
        assert vals.shape == (2, 3, 4) and vals.size <= ss._TAIL_CELLS
        assert vals.tobytes() == want.tobytes() and iters == counts.max()

    @pytest.mark.parametrize("cells", [WHOLE, CORNER])
    def test_grid_equals_float_loop_either_side_of_the_switch(self, cells):
        aa, ll, rr, gg = (x[cells] for x in oracle_grid())
        assert (aa.size > ss._TAIL_CELLS) == (cells is WHOLE)
        vals, iters = ss.riccati_iterate_oracle(ll, aa, rr, gg, tol=1e-13)
        want, counts = cell_by_cell(ll, aa, rr, gg, tol=1e-13)
        assert vals.tobytes() == want.tobytes() and iters == counts.max()

    @pytest.mark.parametrize("cells", [WHOLE, CORNER])
    def test_max_iter_met_exactly_or_missed_by_one(self, cells):
        aa, ll, rr, gg = (x[cells] for x in oracle_grid())
        _, counts = cell_by_cell(ll, aa, rr, gg, tol=1e-13)
        slowest = int(counts.max())
        _, iters = ss.riccati_iterate_oracle(ll, aa, rr, gg, tol=1e-13, max_iter=slowest)
        assert iters == slowest
        with pytest.raises(RuntimeError, match="converge"):
            ss.riccati_iterate_oracle(ll, aa, rr, gg, tol=1e-13, max_iter=slowest - 1)

    def test_max_iter_hit_while_too_many_cells_move_for_the_tail(self):
        aa, ll, rr, gg = oracle_grid()
        _, counts = cell_by_cell(ll, aa, rr, gg, tol=1e-13)
        # more than _TAIL_CELLS cells are still moving after max_iter steps
        max_iter = int(np.sort(counts, axis=None)[::-1][ss._TAIL_CELLS]) - 1
        with pytest.raises(RuntimeError, match="converge"):
            ss.riccati_iterate_oracle(ll, aa, rr, gg, tol=1e-13, max_iter=max_iter)

    @pytest.mark.parametrize("cells", [WHOLE, CORNER])
    def test_nan_cell_never_converges(self, cells):
        aa, ll, rr, gg = (x[cells].copy() for x in oracle_grid())
        ll.flat[1] = np.nan
        with pytest.raises(RuntimeError, match="converge"):
            ss.riccati_iterate_oracle(ll, aa, rr, gg, tol=1e-13, max_iter=5000)

    @pytest.mark.parametrize("kwargs, name", [({"tol": np.nan}, "tol"), ({"tol": np.inf}, "tol"),
                                              ({"tol": 0.0}, "tol"), ({"max_iter": 0}, "max_iter")])
    def test_bad_settings_fail_fast(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            ss.riccati_iterate_oracle(1.0, 0.9, 2.0, 1, **kwargs)
