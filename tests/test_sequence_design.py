"""Design-problem solvers and the index-matrix construction."""

import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotseq import cli
from pilotseq import sequence_design as sd
from pilotseq import simulate as sim
from pilotseq import steady_state as ss


def frame(g_len=4, m_p=3, m=8, n_d_max=16, rho=2.0):
    return sd.FrameParams(g_len=g_len, m_p=m_p, m=m, n_d_max=n_d_max, rho=rho)


def spectrum(r, decay=0.6, top=2.0):
    return top * decay ** np.arange(r)


@st.composite
def random_assignment(draw):
    """A feasible (frame, assignment) pair: nondecreasing divisors of a
    power-of-two frame with the exact block budget."""
    s = draw(st.integers(min_value=2, max_value=5))
    g_len = 2**s
    m_p = draw(st.integers(min_value=1, max_value=3))
    divisors = sd.divisor_set(g_len)
    budget = g_len * m_p
    counts = []
    for d in divisors[:-1]:
        max_c = budget // (g_len // d)
        c = draw(st.integers(min_value=0, max_value=max_c))
        counts.append(c)
        budget -= c * (g_len // d)
    counts.append(budget)  # the divisor G costs one block per use
    g = tuple(
        itertools.chain.from_iterable([d] * c for d, c in zip(divisors, counts))
    )
    fr = frame(g_len=g_len, m_p=m_p, m=g_len * m_p + m_p + 1, n_d_max=len(g))
    return fr, sd.IntervalAssignment(g=g, n_d=len(g), objective=0.0)


class TestDivisorSet:
    def test_power_of_two(self):
        assert sd.divisor_set(8) == [1, 2, 4, 8]

    def test_trivial_frame(self):
        assert sd.divisor_set(1) == [1]

    def test_prime_power_three(self):
        assert sd.divisor_set(9) == [1, 3, 9]


class TestValidateAssignment:
    def test_reference_configuration_passes(self):
        asn = sd.IntervalAssignment(g=(1, 2, 2, 2, 4, 4), n_d=6, objective=0.0)
        assert sd.validate_assignment(asn, frame()) == []

    def test_non_divisor_flagged(self):
        asn = sd.IntervalAssignment(g=(1, 3), n_d=2, objective=0.0)
        problems = sd.validate_assignment(asn, frame(m_p=1, n_d_max=4))
        assert any("does not divide" in p for p in problems)

    def test_budget_mismatch_flagged(self):
        asn = sd.IntervalAssignment(g=(1, 2), n_d=2, objective=0.0)
        problems = sd.validate_assignment(asn, frame(m_p=2, n_d_max=4))
        assert any("budget" in p for p in problems)

    def test_unsorted_flagged(self):
        asn = sd.IntervalAssignment(g=(2, 1, 2, 2, 4, 4), n_d=6, objective=0.0)
        assert any("nondecreasing" in p for p in sd.validate_assignment(asn, frame()))


def brute_force_optimum(lam, a, rho, fr):
    """Unrestricted reference: every interval tuple (any order) over every
    admissible n_d, eigenvalues assigned positionally."""
    divisors = sd.divisor_set(fr.g_len)
    best = np.inf
    hi = min(fr.g_len * fr.m_p, fr.n_d_max, len(lam))
    for n_d in range(fr.m_p, hi + 1):
        for combo in itertools.product(divisors, repeat=n_d):
            if sum(fr.g_len // g for g in combo) != fr.g_len * fr.m_p:
                continue
            lower = ss.min_ss_mse(lam[:n_d], a, rho, np.array(combo, dtype=float))
            upper = ss.max_ss_mse(lower, lam[:n_d], a, np.array(combo, dtype=float))
            obj = upper.sum() + lam[n_d:].sum()
            best = min(best, obj)
    return best


def enumerated_optimum(lam, a, rho, fr):
    """Enumeration oracle: every nondecreasing interval vector with the exact
    block budget, as multiplicities of each divisor, scored by
    ``sd._objective`` and ranked by (objective, n_d, g)."""
    lam = np.asarray(lam, dtype=float)
    lo, hi = sd._feasible_n_d_range(lam, fr)
    divisors = sd.divisor_set(fr.g_len)
    cost = [fr.g_len // d for d in divisors]  # blocks consumed per use
    best = None

    def recurse(idx, counts, remaining, total):
        nonlocal best
        if total > hi:
            return
        if idx == len(divisors) - 1:
            c, rem = divmod(remaining, cost[idx])
            if rem != 0 or not lo <= total + c <= hi:
                return
            g = tuple(int(x) for x in np.repeat(divisors, counts + [c]))
            key = (sd._objective(lam, a, rho, np.asarray(g)), len(g), g)
            if best is None or key < best:
                best = key
            return
        for c in range(remaining // cost[idx] + 1):
            recurse(idx + 1, counts + [c], remaining - c * cost[idx], total + c)

    recurse(0, [], fr.g_len * fr.m_p, 0)
    if best is None:
        raise ValueError("no feasible interval vector under the given frame")
    obj, n_d, g = best
    return sd.IntervalAssignment(g=g, n_d=n_d, objective=obj)


class TestExhaustiveSearch:
    def test_unique_feasible_point(self):
        # N_d = M_p forces g = 1 on every sounded mode
        lam = spectrum(4)
        fr = frame(g_len=4, m_p=2, m=6, n_d_max=2)
        asn = sd.exhaustive_search(lam, 0.9, 2.0, fr)
        assert asn.g == (1, 1)
        assert asn.n_d == 2

    def test_zero_power_takes_fewest_modes_without_search(self, monkeypatch):
        # at rho = 0 every design ties at sum(lam): the tie-break's fewest
        # modes, M_p at interval 1, comes back from a single scoring
        calls = []
        objectives = sd._objectives

        def scored(lams, a, rho, gs):
            calls.append(list(gs))
            return objectives(lams, a, rho, gs)

        monkeypatch.setattr(sd, "_objectives", scored)
        lam = np.linspace(2.0, 0.1, 64)
        fr = frame(g_len=32, m_p=2, m=5, n_d_max=64, rho=0.0)
        asn = sd.exhaustive_search(lam, 0.99, 0.0, fr)
        assert (asn.g, asn.n_d) == ((1, 1), 2)
        assert asn.objective == pytest.approx(lam.sum(), rel=1e-12)
        assert calls == [[(1, 1)]]

    def test_reference_point_is_feasible(self):
        lam = spectrum(8)
        fr = frame(g_len=4, m_p=3, m=8, n_d_max=8)
        asn = sd.IntervalAssignment(g=(1, 2, 2, 2, 4, 4), n_d=6, objective=0.0)
        assert sd.validate_assignment(asn, fr, rank=8) == []

    def test_matches_unrestricted_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            r = int(rng.integers(3, 7))
            lam = np.sort(rng.uniform(0.05, 3.0, size=r))[::-1]
            a = float(rng.uniform(0.5, 0.995))
            rho = float(rng.uniform(0.5, 20.0))
            fr = frame(g_len=int(rng.choice([4, 8])), m_p=int(rng.integers(1, 3)),
                       m=40, n_d_max=int(rng.integers(2, 8)))
            try:
                asn = sd.exhaustive_search(lam, a, rho, fr)
            except ValueError:
                continue  # infeasible draw
            ref = brute_force_optimum(lam, a, rho, fr)
            assert asn.objective == pytest.approx(ref, rel=1e-12)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            sd.exhaustive_search(spectrum(2), 0.9, 1.0, frame(m_p=3, n_d_max=2))

    def test_ties_prefer_fewer_modes(self):
        # without training power no design improves on the flat spectrum's
        # full power, so every design ties and the fewest modes win
        lam = np.full(8, 1.0)
        fr = frame(g_len=4, m_p=2, m=6, n_d_max=8)
        asn = sd.exhaustive_search(lam, 0.9, 0.0, fr)
        assert asn == enumerated_optimum(lam, 0.9, 0.0, fr)
        assert asn.g == (1, 1)
        assert asn.objective == 8.0

    def test_ties_prefer_smallest_intervals(self):
        # a static flat channel is pinned down by any sounding, so the two
        # four-mode designs tie and the lexicographically smaller g wins
        lam = np.full(8, 1.0)
        fr = frame(g_len=8, m_p=2, m=6, n_d_max=4)
        asn = sd.exhaustive_search(lam, 1.0, 3.0, fr)
        assert asn == enumerated_optimum(lam, 1.0, 3.0, fr)
        assert asn.g == (1, 2, 4, 4)
        assert asn.objective == 4.0

    @pytest.mark.parametrize("g_len", [4, 8, 9, 16, 27, 32])
    def test_matches_enumeration_oracle(self, g_len):
        rng = np.random.default_rng(g_len)
        feasible = 0
        for _ in range(12):
            r = int(rng.integers(2, 11))
            lam = np.sort(rng.uniform(0.05, 3.0, size=r))[::-1]
            if rng.random() < 0.5:  # repeated eigenvalues
                lam = np.sort(rng.choice([0.25, 1.0, 2.5], size=r))[::-1]
            a = float(rng.uniform(0.5, 0.9999))
            rho = float(rng.uniform(0.1, 30.0))
            fr = frame(g_len=g_len, m_p=int(rng.integers(1, 5)), m=200,
                       n_d_max=int(rng.integers(1, 11)))
            try:
                expected = enumerated_optimum(lam, a, rho, fr)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    sd.exhaustive_search(lam, a, rho, fr)
                continue
            got = sd.exhaustive_search(lam, a, rho, fr)
            assert got == expected
            assert all(type(x) is int for x in got.g)
            feasible += 1
        assert feasible >= 4

    def test_wide_frame_is_fast_and_beats_greedy(self):
        lam = spectrum(128, decay=0.97)
        fr = frame(g_len=128, m_p=2, m=300, n_d_max=128, rho=5.0)
        t0 = time.perf_counter()
        asn = sd.exhaustive_search(lam, 0.99, 5.0, fr)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5
        assert sd.validate_assignment(asn, fr, rank=128) == []
        assert asn.objective <= sd.min_max_design(lam, 0.99, 5.0, fr).objective


class TestCeilingTable:
    @pytest.mark.parametrize("g_len", [27, 81, 128])
    @pytest.mark.parametrize("a, rho", [(0.0, 3.0), (1.0, 3.0), (0.97, 0.0), (0.5, 0.2),
                                        (0.9999, 40.0), (1.0, 0.0)])
    def test_entries_equal_scalar_calls(self, g_len, a, rho):
        lam = spectrum(24, decay=0.8)
        divisors = sd.divisor_set(g_len)
        table = sd._ceiling_table(lam, a, rho, divisors)
        want = np.array([[ss.max_ss_mse(ss.min_ss_mse(x, a, rho, d), x, a, d) for d in divisors]
                         for x in lam])
        assert table.shape == (24, len(divisors))
        assert table.tobytes() == want.tobytes()


def random_cell(rng):
    """A seeded random (lam, a, rho) cell: a rank of 1 to 10, repeated
    eigenvalues in about a third of the draws, a in {0, 1} or inside, rho = 0
    in about a third."""
    r = int(rng.integers(1, 11))
    lam = np.sort(rng.uniform(0.05, 3.0, size=r))[::-1]
    if rng.random() < 0.35:
        lam = np.sort(rng.choice([0.25, 1.0, 2.5], size=r))[::-1]
    a = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0), rng.uniform(0.9, 0.9999)]))
    rho = float(rng.choice([0.0, rng.uniform(0.1, 30.0), rng.uniform(0.1, 30.0)]))
    return lam, a, rho


class TestDesignCells:
    """The batched designer is the one-cell designers' batch: each cell's
    design, objective bits included, does not depend on its batch."""

    @pytest.mark.parametrize("designer", sd.DESIGNERS)
    @pytest.mark.parametrize("g_len", [4, 8, 9, 16, 27, 32])
    def test_batch_equals_one_cell_calls(self, designer, g_len, monkeypatch):
        one_cell = sd.min_max_design if designer == "min_max" else sd.exhaustive_search
        tables, ceiling_table = [], sd._ceiling_table

        def recorded(lam, a, rho, divisors):
            tables.append((lam, a, rho, divisors, ceiling_table(lam, a, rho, divisors)))
            return tables[-1][-1]

        rng = np.random.default_rng([g_len, len(designer)])
        kept = []
        for m_p in (1, 2, 3, 4):
            fr = frame(g_len=g_len, m_p=m_p, m=200, n_d_max=int(rng.integers(m_p, 11)))
            cells, want = [], []
            while len(cells) < 10:
                cell = random_cell(rng)
                try:
                    want.append(one_cell(*cell, fr))
                except ValueError:
                    continue  # infeasible
                cells.append(cell)
            monkeypatch.setattr(sd, "_ceiling_table", recorded)
            got = sd.design_cells(designer, *zip(*cells), fr)
            monkeypatch.undo()
            assert got == want
            assert [x.objective.hex() for x in got] == [x.objective.hex() for x in want]
            # the one table holds every cell's candidate modes, each entry
            # with the bits of the scalar call
            lam_t, a_t, rho_t, divisors, table = tables.pop()
            assert not tables
            assert len(lam_t) == sum(min(g_len * m_p, fr.n_d_max, len(lam)) for lam, _, _ in cells)
            entries = [ss.max_ss_mse(ss.min_ss_mse(x, a, rho, d), x, a, d)
                       for x, a, rho in zip(lam_t.tolist(), a_t.tolist(), rho_t.tolist())
                       for d in divisors]
            assert table.ravel().tolist() == entries
            kept += cells
        ranks = {len(lam) for lam, _, _ in kept}
        assert len(ranks) > 1
        assert any(len(set(lam.tolist())) < len(lam) for lam, _, _ in kept)
        assert {0.0, 1.0} <= {a for _, a, _ in kept}
        assert 0.0 in {rho for _, _, rho in kept}

    @pytest.mark.parametrize("g_len", [5, 7, 9, 25, 27, 49])
    def test_min_max_designs_every_feasible_cell(self, g_len, monkeypatch):
        # at an odd prime-power G the greedy can strand blocks no move fits;
        # such a cell takes the exhaustive walk's candidates, so every cell
        # the exhaustive search accepts gets a valid min-max design no
        # better than the exact one
        rng = np.random.default_rng([g_len, 27])
        walks, exhaustive_walk = [], sd._exhaustive_walk
        monkeypatch.setattr(sd, "_exhaustive_walk",
                            lambda *args: walks.append(1) or exhaustive_walk(*args))
        designed = 0
        for m_p in (1, 2, 3):
            fr = frame(g_len=g_len, m_p=m_p, m=200, n_d_max=int(rng.integers(m_p, 11)))
            cells, exact = [], []
            for _ in range(40):
                cell = random_cell(rng)
                try:
                    exact.append(sd.exhaustive_search(*cell, fr))
                except ValueError:
                    continue  # infeasible
                cells.append(cell)
            walks.clear()
            got = sd.design_cells("min_max", *zip(*cells), fr)
            designed += len(walks)  # the cells whose greedy reached a dead end
            for (lam, _, _), asn, best in zip(cells, got, exact):
                assert sd.validate_assignment(asn, fr, rank=len(lam)) == []
                assert asn.objective >= best.objective
        assert designed > 0  # the draw reaches the dead end

    @pytest.mark.parametrize("designer", sd.DESIGNERS)
    def test_closed_form_calls_do_not_grow_with_cells(self, designer, monkeypatch):
        calls, min_ss_mse = [], ss.min_ss_mse
        monkeypatch.setattr(sd, "min_ss_mse", lambda *args: calls.append(1) or min_ss_mse(*args))
        fr = frame(g_len=16, m_p=2, m=40, n_d_max=8)
        rng = np.random.default_rng(3)
        cells = [(spectrum(int(rng.integers(2, 10)), decay=float(rng.uniform(0.3, 0.9))),
                  float(rng.uniform(0.5, 0.999)), float(rng.uniform(0.5, 20.0)))
                 for _ in range(9)]
        counts = []
        for batch in (cells[:1], cells):
            calls.clear()
            sd.design_cells(designer, *zip(*batch), fr)
            counts.append(len(calls))
        assert counts == [len(sd.divisor_set(16)) + 1] * 2

    @pytest.mark.parametrize("designer", sd.DESIGNERS)
    def test_first_failing_cell_names_the_error(self, designer):
        one_cell = sd.min_max_design if designer == "min_max" else sd.exhaustive_search
        fr = frame(g_len=8, m_p=3, m=40, n_d_max=8)
        ok = (spectrum(6), 0.9, 2.0)
        short, shorter = (spectrum(2), 0.9, 2.0), (spectrum(1), 0.9, 2.0)
        unsorted = (spectrum(6)[::-1].copy(), 0.9, 2.0)
        for cells, first in (([ok, short, shorter, unsorted], short),
                             ([ok, shorter, short], shorter),
                             ([unsorted, ok, short], unsorted)):
            with pytest.raises(ValueError) as alone:
                one_cell(*first, fr)
            with pytest.raises(ValueError, match=re.escape(str(alone.value))):
                sd.design_cells(designer, *zip(*cells), fr)

    def test_unknown_designer_rejected(self):
        with pytest.raises(ValueError, match="unknown designer"):
            sd.design_cells("greedy", [spectrum(4)], [0.9], [1.0], frame())


def greedy_by_scalar_calls(lam, a, rho, fr):
    """The min-max greedy's interval vector, each ceiling from one scalar
    min_ss_mse / max_ss_mse call per round."""
    divisors = sd.divisor_set(fr.g_len)
    n_cand = min(fr.g_len * fr.m_p, fr.n_d_max, len(lam))
    g, ceiling = [fr.g_len + 1] * n_cand, [float(x) for x in lam[:n_cand]]
    active, n_blk = list(range(n_cand)), fr.g_len * fr.m_p
    while n_blk > 0:
        i = max(active, key=lambda j: (ceiling[j], -j))
        smaller = [d for d in divisors if d < g[i]]
        if not smaller:
            active.remove(i)
            continue
        freed = fr.g_len // g[i] if g[i] <= fr.g_len else 0
        need = fr.g_len // smaller[-1]
        if n_blk + freed < need:
            active.remove(i)
            continue
        n_blk, g[i] = n_blk + freed - need, smaller[-1]
        ceiling[i] = ss.max_ss_mse(ss.min_ss_mse(lam[i], a, rho, g[i]), lam[i], a, g[i])
    return tuple(sorted(x for x in g if x <= fr.g_len))


class TestMinMaxDesign:
    def test_table_rounds_equal_scalar_call_rounds(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            r = int(rng.integers(4, 40))
            lam = np.sort(rng.uniform(1e-3, 5.0, size=r))[::-1]
            fr = frame(g_len=int(rng.choice([4, 8, 9, 16, 27, 32])), m_p=int(rng.integers(1, 4)),
                       m=200, n_d_max=int(rng.integers(3, 40)))
            a, rho = float(rng.uniform(0.3, 0.9999)), float(rng.uniform(0.1, 100.0))
            assert sd.min_max_design(lam, a, rho, fr).g == greedy_by_scalar_calls(lam, a, rho, fr)

    def test_tight_cap_forces_every_block_training(self):
        lam = spectrum(6)
        fr = frame(g_len=8, m_p=2, m=6, n_d_max=2)
        asn = sd.min_max_design(lam, 0.95, 5.0, fr)
        assert asn.g == (1, 1)

    def test_flat_spectrum_spreads_evenly(self):
        lam = np.full(8, 1.0)
        fr = frame(g_len=8, m_p=2, m=6, n_d_max=4)
        asn = sd.min_max_design(lam, 0.95, 5.0, fr)
        assert asn.g == (2, 2, 2, 2)

    def test_all_outputs_validate(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            r = int(rng.integers(4, 30))
            lam = np.sort(rng.uniform(1e-3, 5.0, size=r))[::-1]
            fr = frame(
                g_len=int(rng.choice([4, 8, 16, 32])),
                m_p=int(rng.integers(1, 4)),
                m=200,
                n_d_max=int(rng.integers(1, 40)),
            )
            a = float(rng.uniform(0.3, 0.9999))
            rho = float(rng.uniform(0.1, 100.0))
            try:
                asn = sd.min_max_design(lam, a, rho, fr)
            except ValueError:
                continue
            assert sd.validate_assignment(asn, fr, rank=r) == []

    def test_never_beats_exhaustive_and_stays_close_when_fading_is_slow(self):
        # the greedy never improves on the exhaustive optimum; in the
        # slow-fading regime it targets, the typical loss is well under 5%
        rng = np.random.default_rng(21)
        gaps = []
        for _ in range(40):
            r = int(rng.integers(3, 7))
            lam = np.sort(rng.uniform(0.05, 3.0, size=r))[::-1]
            a = float(rng.uniform(0.95, 0.9999))
            rho = float(rng.uniform(0.5, 20.0))
            fr = frame(g_len=int(rng.choice([4, 8])), m_p=int(rng.integers(1, 3)),
                       m=40, n_d_max=int(rng.integers(2, 8)))
            try:
                exact = sd.exhaustive_search(lam, a, rho, fr)
            except ValueError:
                continue
            greedy = sd.min_max_design(lam, a, rho, fr)
            assert greedy.objective >= exact.objective - 1e-12
            gaps.append(greedy.objective / exact.objective - 1.0)
        assert gaps and float(np.mean(gaps)) < 0.05


def per_index_scan_violations(c, g, frame):
    """The invariant checker as one ``np.nonzero(c == i)`` scan per index,
    the oracle of ``sd.sequence_invariant_violations``'s one walk."""
    problems = []
    g_len, m_p = c.shape
    if g_len != frame.g_len or m_p != frame.m_p:
        problems.append(f"shape {c.shape} != ({frame.g_len}, {frame.m_p})")
        return problems
    n_d = len(g)
    values = set(int(v) for v in c.ravel())
    if values != set(range(1, n_d + 1)):
        problems.append(f"entries cover {sorted(values)} instead of 1..{n_d}")
        return problems
    for row in c:
        if len(set(int(v) for v in row)) != m_p:
            problems.append(f"row {row} repeats an index")
    for i in range(1, n_d + 1):
        rows, cols = np.nonzero(c == i)
        expected = frame.g_len // g[i - 1]
        if len(rows) != expected:
            problems.append(f"index {i} appears {len(rows)} times, expected {expected}")
            continue
        if len(set(cols.tolist())) != 1:
            problems.append(f"index {i} appears in multiple columns {sorted(set(cols.tolist()))}")
        if len(rows) > 1:
            steps = np.diff(np.sort(rows))
            if not np.all(steps == g[i - 1]):
                problems.append(f"index {i} rows {sorted(rows.tolist())} not {g[i-1]}-periodic")
    return problems


def corruptions(c, rng):
    """Copies of a valid index matrix c, each broken one way: one entry
    overwritten by another index, by 0 or by n_d + 1, two entries or two
    rows swapped, a row dropped."""
    n_d, (g_len, m_p) = int(c.max()), c.shape
    out = []
    for value in (int(rng.integers(1, n_d + 1)), 0, n_d + 1):
        bad = c.copy()
        bad[rng.integers(g_len), rng.integers(m_p)] = value
        out.append(bad)
    bad = c.copy().ravel()
    i, j = rng.choice(bad.size, size=2, replace=False)
    bad[[i, j]] = bad[[j, i]]
    out.append(bad.reshape(c.shape))
    bad = c.copy()
    q, p = rng.integers(g_len, size=2)
    bad[[q, p]] = bad[[p, q]]
    out += [bad, c[1:]]
    return out


class TestConstruction:
    def test_reference_matrix_shape_and_content(self):
        asn = sd.IntervalAssignment(g=(1, 2, 2, 2, 4, 4), n_d=6, objective=0.0)
        seq = sd.construct_sequence_matrix(asn, frame())
        assert seq.c.shape == (4, 3)
        assert sd.sequence_invariant_violations(seq.c, seq.g, frame()) == []

    def test_published_example_matrix_satisfies_invariants(self):
        # the reference G=4, M_p=3 layout: columns carry {1}, {2,3}, {4,5,6}
        c = np.array([[1, 1, 1, 1], [2, 3, 2, 3], [4, 5, 4, 6]]).T
        g = (1, 2, 2, 2, 4, 4)
        assert sd.sequence_invariant_violations(c, g, frame()) == []

    def test_unit_intervals_repeat_one_row(self):
        asn = sd.IntervalAssignment(g=(1, 1, 1), n_d=3, objective=0.0)
        seq = sd.construct_sequence_matrix(asn, frame(g_len=4, m_p=3))
        assert np.all(seq.c == np.array([1, 2, 3]))

    def test_row_accessor_periodic(self):
        # a plan keeps one period, the matrix rows; the schedule its stack
        # sounds over any horizon repeats them, row ell mod G at block ell
        asn = sd.IntervalAssignment(g=(1, 2, 2, 2, 4, 4), n_d=6, objective=0.0)
        seq = sd.construct_sequence_matrix(asn, frame())
        stack = sim.TrackerStack.of([[sim.Tracker("diag", 3, np.ones(6), 0.9, 1.0,
                                                  sched=seq.c - 1)]])
        stack.posteriors(4 * 7 + 1)
        sched = stack.window_sched[:, 0, 0]
        assert np.array_equal(sched[1], sched[5])
        assert np.array_equal(sched[0], sched[4 * 7])
        for ell, idx in enumerate(sched):
            assert np.array_equal(idx, seq.c[ell % 4] - 1)

    def test_invalid_assignment_rejected(self):
        asn = sd.IntervalAssignment(g=(1, 2), n_d=2, objective=0.0)
        with pytest.raises(ValueError, match="invalid assignment"):
            sd.construct_sequence_matrix(asn, frame(m_p=2, n_d_max=4))

    @given(random_assignment())
    @settings(max_examples=120, deadline=None)
    def test_random_assignments_construct(self, fr_asn):
        fr, asn = fr_asn
        seq = sd.construct_sequence_matrix(asn, fr)
        assert sd.sequence_invariant_violations(seq.c, seq.g, fr) == []
        # resource accounting: every slot of C is consumed exactly once
        assert sum(fr.g_len // gi for gi in asn.g) == fr.g_len * fr.m_p


    def test_one_walk_checker_equals_per_index_scan(self):
        # random valid matrices and their corruptions: the same violation
        # strings in the same order, every kind of string among them
        rng = np.random.default_rng(3)
        kinds = ("shape", "entries cover", "repeats an index", "times, expected",
                 "multiple columns", "-periodic")
        seen = set()
        for _ in range(150):
            g_len, m_p = int(rng.choice([4, 8, 16, 32])), int(rng.integers(1, 4))
            asn = cli.random_valid_assignment(rng, g_len, m_p)
            fr = frame(g_len=g_len, m_p=m_p, m=g_len * m_p + m_p + 1, n_d_max=asn.n_d)
            if sd.validate_assignment(asn, fr):
                continue
            c = sd.construct_sequence_matrix(asn, fr).c
            for matrix in [c, *corruptions(c, rng)]:
                got = sd.sequence_invariant_violations(matrix, asn.g, fr)
                assert got == per_index_scan_violations(matrix, asn.g, fr), matrix
                seen.update(kind for kind in kinds for problem in got if kind in problem)
        assert seen == set(kinds), seen


class TestExpansion:
    """Block ell sounds sqrt(rho) times the basis columns that row ell mod G
    of the index matrix names."""

    @staticmethod
    def training(seq, basis, rho, blocks):
        return [np.sqrt(rho) * basis[:, seq.c[ell % len(seq.c)] - 1] for ell in range(blocks)]

    def test_power_and_orthogonality(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8)))
        asn = sd.IntervalAssignment(g=(1, 2, 2, 2, 4, 4), n_d=6, objective=0.0)
        seq = sd.construct_sequence_matrix(asn, frame())
        rho = 3.0
        signals = self.training(seq, q, rho, 4)
        assert len(signals) == 4
        for s in signals:
            assert np.linalg.norm(s) ** 2 == pytest.approx(rho * 3, rel=1e-12)
            assert np.allclose(s.conj().T @ s, rho * np.eye(3), atol=1e-12)

    def test_dft_columns_keep_property(self):
        n = 32
        grid = np.arange(n)
        f = np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n)
        asn = sd.IntervalAssignment(g=(1, 2, 2, 2, 4, 4), n_d=6, objective=0.0)
        seq = sd.construct_sequence_matrix(asn, frame())
        for s in self.training(seq, f[:, :8], 2.0, 4):
            assert np.allclose(s.conj().T @ s, 2.0 * np.eye(3), atol=1e-12)

    def test_out_of_range_index_rejected(self):
        # a tracker whose sounding basis is narrower than the matrix's n_d
        asn = sd.IntervalAssignment(g=(1, 2, 2, 2, 4, 4), n_d=6, objective=0.0)
        seq = sd.construct_sequence_matrix(asn, frame())
        tracker = sim.Tracker("full", 3, np.ones(5), 0.9, 1.0,
                              sched=seq.c - 1, s_u=np.eye(5))
        with pytest.raises(IndexError, match="sounding basis"):
            sim.TrackerStack.of([[tracker]])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        asn = sd.IntervalAssignment(g=(1, 2, 2, 2, 4, 4), n_d=6, objective=0.0)
        fr = frame()
        seq = sd.construct_sequence_matrix(asn, fr)
        path = tmp_path / "design.csv"
        sd.save_sequence_csv(path, seq, fr)
        text = path.read_text()
        assert text.startswith("# G=4 Mp=3 nd=6 g=1,2,2,2,4,4\n")
        loaded = sd.load_sequence_csv(path)
        assert np.array_equal(loaded.c, seq.c)
        assert loaded.g == seq.g
        assert loaded.n_d == seq.n_d

    def test_one_indexed_entries(self, tmp_path):
        asn = sd.IntervalAssignment(g=(1, 1), n_d=2, objective=0.0)
        fr = frame(g_len=2, m_p=2, m=5, n_d_max=2)
        seq = sd.construct_sequence_matrix(asn, fr)
        assert seq.c.min() == 1


class TestFrameParams:
    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError, match="prime power"):
            sd.FrameParams(g_len=6, m_p=1, m=4, n_d_max=4, rho=1.0)

    def test_prime_powers_accepted(self):
        for g_len in (1, 2, 3, 4, 8, 9, 16, 25, 27, 32):
            sd.FrameParams(g_len=g_len, m_p=1, m=4, n_d_max=4, rho=1.0)

    def test_block_must_exceed_training(self):
        with pytest.raises(ValueError, match="exceed"):
            sd.FrameParams(g_len=4, m_p=3, m=3, n_d_max=4, rho=1.0)
