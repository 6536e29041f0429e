"""Periodic training-sequence design under a per-frame resource budget.

Selects how many covariance eigenmodes to sound (n_d), the per-mode
sounding interval vector g (each entry dividing the frame length G, with
sum of 1/g_i equal to the pilot count M_p), and materializes the choice as
a G x M_p index matrix C whose row ell names the eigenvectors transmitted
during block ell's training period.
"""

from __future__ import annotations

import heapq
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .steady_state import max_ss_mse, min_ss_mse


@dataclass(frozen=True)
class FrameParams:
    """Frame-level training parameters.

    g_len: frame length in blocks (must be a prime power so the row-wise
    allocation of Proposition-style constructions always completes).
    m_p: training symbols per block.  m: total symbols per block.
    n_d_max: cap on distinct sounding directions (RF-chain budget).
    rho: per-symbol training power.
    """

    g_len: int
    m_p: int
    m: int
    n_d_max: int
    rho: float

    def __post_init__(self):
        for name in ("g_len", "m_p", "m", "n_d_max"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.rho, (int, float, np.number)) or not np.isfinite(self.rho):
            raise ValueError(f"rho must be a finite number, got {self.rho!r}")
        if self.g_len < 1 or not is_prime_power(self.g_len):
            raise ValueError(f"frame length {self.g_len} is not a prime power")
        if self.m_p < 1:
            raise ValueError("m_p must be >= 1")
        if self.m <= self.m_p:
            raise ValueError("block length m must exceed m_p")
        if self.n_d_max < 1:
            raise ValueError("n_d_max must be >= 1")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")


def is_prime_power(n: int) -> bool:
    if n == 1:
        return True
    for p in range(2, n + 1):
        if p * p > n:
            return True  # n itself is prime
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False


def divisor_set(g_len: int) -> list[int]:
    """Ascending divisors of the frame length."""
    if g_len < 1:
        raise ValueError("frame length must be >= 1")
    return [d for d in range(1, g_len + 1) if g_len % d == 0]


@dataclass(frozen=True)
class IntervalAssignment:
    """A feasible point of the design problem: nondecreasing intervals for
    the n_d strongest eigenmodes plus the achieved upper-envelope objective."""

    g: tuple
    n_d: int
    objective: float

    def g_padded(self, rank: int) -> np.ndarray:
        """Per-mode interval vector over all rank modes (0 = untrained)."""
        out = np.zeros(rank, dtype=int)
        out[: self.n_d] = self.g
        return out


def validate_assignment(asn: IntervalAssignment, frame: FrameParams, rank: int | None = None):
    """Structural checks; returns a list of violation strings (empty = ok)."""
    problems = []
    divisors = set(divisor_set(frame.g_len))
    if asn.n_d != len(asn.g):
        problems.append(f"n_d = {asn.n_d} but g has {len(asn.g)} entries")
    for gi in asn.g:
        if gi not in divisors:
            problems.append(f"interval {gi} does not divide G = {frame.g_len}")
    if list(asn.g) != sorted(asn.g):
        problems.append("g is not nondecreasing")
    # exact resource accounting: sum(1/g_i) = M_p via integer block counts
    if all(gi in divisors for gi in asn.g):
        used = sum(frame.g_len // gi for gi in asn.g)
        if used != frame.g_len * frame.m_p:
            problems.append(
                f"block budget mismatch: sum G/g_i = {used}, "
                f"need G*M_p = {frame.g_len * frame.m_p}"
            )
    n_d_cap = min(frame.g_len * frame.m_p, frame.n_d_max)
    if rank is not None:
        n_d_cap = min(n_d_cap, rank)
    if not (frame.m_p <= asn.n_d <= n_d_cap):
        problems.append(f"n_d = {asn.n_d} outside [{frame.m_p}, {n_d_cap}]")
    return problems


DESIGNERS = ("min_max", "exhaustive")


def _flat(rows, a, rho) -> tuple:
    """The rows laid end to end, each entry beside its own row's a and rho,
    and the rows' lengths.  The closed forms run on such 1-D arrays, and
    every entry gets the bits of a one-row call."""
    sizes = [len(row) for row in rows]
    return np.concatenate(rows), np.repeat(a, sizes), np.repeat(rho, sizes), sizes


def _split(flat: np.ndarray, sizes) -> list:
    """Each row's contiguous slice of ``_flat``'s layout."""
    ends = itertools.accumulate(sizes)
    return [flat[end - size: end] for size, end in zip(sizes, ends)]


def _objectives(lams, a, rho, gs) -> list[float]:
    """l1 norms of the upper steady-state envelopes of R designs, untrained
    modes padded: design j sounds the first len(gs[j]) modes of lams[j] at
    intervals gs[j] under a[j] and rho[j].  One min_ss_mse and one
    max_ss_mse call over every design's entries, and one sum per design
    over its own, so each value has the bits of the one-design call."""
    lam_t, a_t, rho_t, sizes = _flat([lam[: len(g)] for lam, g in zip(lams, gs)], a, rho)
    g_t = np.concatenate(gs)
    upper = max_ss_mse(min_ss_mse(lam_t, a_t, rho_t, g_t), lam_t, a_t, g_t)
    return [float(np.sum(row) + np.sum(lam[len(row):]))
            for row, lam in zip(_split(upper, sizes), lams)]


def _objective(lam: np.ndarray, a: float, rho: float, g: np.ndarray) -> float:
    """l1 norm of the upper steady-state envelope, untrained modes padded."""
    return _objectives([np.asarray(lam, dtype=float)], [a], [rho], [g])[0]


def _ceiling_table(lam: np.ndarray, a, rho, divisors) -> np.ndarray:
    """(..., mode, divisor) table of steady-state ceilings max_ss_mse(
    min_ss_mse(lam_i, a, rho, d), lam_i, a, d); ``a`` and ``rho`` are
    scalars or arrays of ``lam``'s shape, so the modes of many cells laid
    end to end (``_flat``) tabulate at once.  One array call per divisor, with
    d a scalar, so every entry has the bits of the scalar call (a grid that
    broadcasts d along a second axis may differ from it in the last bit)."""
    table = np.empty(np.shape(lam) + (len(divisors),))
    for k, d in enumerate(divisors):
        table[..., k] = max_ss_mse(min_ss_mse(lam, a, rho, d), lam, a, d)
    return table


def _feasible_n_d_range(lam, frame: FrameParams) -> tuple[int, int]:
    lam = np.asarray(lam)
    if lam.size and np.any(np.diff(lam) > 1e-9 * max(float(lam[0]), 1e-300)):
        raise ValueError("eigenvalue spectrum must be sorted descending")
    rank = len(lam)
    hi = min(frame.g_len * frame.m_p, frame.n_d_max, rank)
    lo = frame.m_p
    if lo > hi:
        raise ValueError(
            f"infeasible design: need M_p <= n_d <= min(G*M_p, N_d, r) "
            f"but M_p = {lo} and the cap is {hi}"
        )
    return lo, hi


def design_cells(designer: str, lams, a, rho, frame: FrameParams) -> list[IntervalAssignment]:
    """Design C cells that share the frame's G, M_p and N_d: cell c has its
    own descending spectrum lams[c], fading coefficient a[c] and training
    power rho[c] (``frame.rho`` is not read).  ``designer`` is ``min_max``
    (``min_max_design``) or ``exhaustive`` (``exhaustive_search``); each of
    those is the one-cell call of this one.

    Every cell is checked first, in cell order, so an infeasible cell
    raises the one-cell message of the first failing cell.  One
    ``_ceiling_table`` call then tabulates every cell's candidate modes,
    each cell walks its own slice of the table, and one ``_objectives``
    call scores every cell's candidates.  Each entry and objective has the
    bits of the one-cell call, so a cell's design does not depend on its
    batch.  A min-max cell whose greedy reaches a dead end takes the
    exhaustive walk's candidates instead.
    """
    if designer not in DESIGNERS:
        raise ValueError(f"unknown designer {designer!r}; choose among {DESIGNERS}")
    lams = [np.asarray(lam, dtype=float) for lam in lams]
    a = np.asarray(a, dtype=float)
    rho = np.asarray(rho, dtype=float)
    ranges = [_feasible_n_d_range(lam, frame) for lam in lams]
    if not lams:
        return []
    divisors = divisor_set(frame.g_len)
    caps = [hi for _, hi in ranges]
    lam_t, a_t, rho_t, _ = _flat([lam[:hi] for lam, hi in zip(lams, caps)], a, rho)
    tables = _split(_ceiling_table(lam_t, a_t, rho_t, divisors), caps)

    def exhaustive(c):  # cell c's candidates of the exhaustive search
        (lo, hi), lam = ranges[c], lams[c]
        return ([(1,) * frame.m_p] if rho[c] == 0
                else _exhaustive_walk(tables[c] - lam[:hi, None], lam, lo, frame, divisors))

    if designer == "min_max":
        walks = (_min_max_walk(t.tolist(), lam, frame, divisors) for t, lam in zip(tables, lams))
        candidates = [exhaustive(c) if g is None else [g] for c, g in enumerate(walks)]
    else:
        candidates = [exhaustive(c) for c in range(len(lams))]
    cells = [c for c, found in enumerate(candidates) for _ in found]
    flat = [g for found in candidates for g in found]
    scores = iter(_objectives([lams[c] for c in cells], a[cells], rho[cells], flat))
    out = []
    for lam, found in zip(lams, candidates):
        obj, n_d, g = min((next(scores), len(g), g) for g in found)
        asn = IntervalAssignment(g=g, n_d=n_d, objective=obj)
        if designer == "min_max":
            problems = validate_assignment(asn, frame, rank=len(lam))
            if problems:
                raise RuntimeError("min-max design produced an invalid assignment: "
                                   + "; ".join(problems))
        out.append(asn)
    return out


def exhaustive_search(lam, a: float, rho: float, frame: FrameParams) -> IntervalAssignment:
    """Global minimizer of the upper-envelope objective over ordered designs
    (the one-cell ``design_cells``; the search is ``_exhaustive_walk``)."""
    return design_cells("exhaustive", [lam], [a], [rho], frame)[0]


def _exhaustive_walk(excess, lam, lo: int, frame: FrameParams, divisors) -> list:
    """Candidate designs of the exhaustive search, from the (mode, divisor)
    ceiling excess table of its hi candidate modes, the strongest of lam.

    The objective is sum(lam) + sum_{i < n_d} f_i(g_i) with the ceiling
    excess f_i(d) = max_ss_mse(lam_i, d) - lam_i, and a design pairs a
    nondecreasing g with the descending lam by position.  A dynamic program
    over (mode i, smallest divisor index k still allowed, blocks b left)
    fills the table value[i, k, b] of best completions, vectorized over b,
    in O(n_d * |D| * G * M_p) with D the divisors of G.  Sounding may stop
    only with the budget spent exactly (b = 0) and M_p <= i <= the cap.

    The table fixes the optimum only up to its own float sums, so the walk
    returns every design reached by a depth-first walk that follows every
    branch whose partial sum plus table value stays within ``slack`` of the
    optimum; ``design_cells`` re-scores each with ``_objectives`` and keeps
    the best, ties broken toward fewer sounded modes, then lexicographically
    smallest g.  At rho = 0 every design ties at sum(lam), so
    ``design_cells`` takes the fewest modes, M_p of them at interval 1,
    without the walk.
    """
    hi, n_div = excess.shape
    budget = frame.g_len * frame.m_p
    cost = [frame.g_len // d for d in divisors]  # blocks consumed per use

    # value[i, n_div] is the stop column: modes i.. stay untrained; value[i, k]
    # is the least over k' >= k of that column and of mode i taking divisor
    # k' (excess plus the best completion of the blocks left), one suffix
    # minimum over k per mode
    value = np.full((hi + 1, n_div + 1, budget + 1), np.inf)
    for i in range(hi, -1, -1):
        if i >= lo:
            value[i, n_div, 0] = 0.0
        if i < hi:
            for k, c in enumerate(cost):
                np.add(excess[i, k], value[i + 1, k, : budget + 1 - c], out=value[i, k, c:])
        value[i] = np.minimum.accumulate(value[i, ::-1], axis=0)[::-1]
    optimum = value[0, 0, budget]
    if not np.isfinite(optimum):
        raise ValueError("no feasible interval vector under the given frame")

    # the table's backward sums, the walk's forward partial sums and
    # _objectives' np.sum each add at most len(lam) + 1 terms bounded by
    # lam_i, so two of them differ by under 2 (len(lam) + 1) eps sum(lam);
    # the slack covers that gap for both the winner and the table's optimum,
    # plus few-ulp differences between the grid's and _objectives' envelopes
    slack = 16.0 * (len(lam) + 2) * np.finfo(float).eps * float(np.sum(lam))
    limit = optimum + slack
    found = []
    stack = [(0, 0, budget, 0.0, ())]
    while stack:
        i, k, b, partial, g = stack.pop()
        if b == 0:
            found.append(g)
            continue
        for kk in range(k, n_div):
            c = cost[kk]
            if c > b:
                continue
            s = partial + excess[i, kk]
            if s + value[i + 1, kk, b - c] <= limit:
                stack.append((i + 1, kk, b - c, s, g + (divisors[kk],)))
    return found


def min_max_design(lam, a: float, rho: float, frame: FrameParams) -> IntervalAssignment:
    """Greedy design that repeatedly shortens the interval of the mode with
    the worst steady-state ceiling (the one-cell ``design_cells``; the
    greedy is ``_min_max_walk``)."""
    return design_cells("min_max", [lam], [a], [rho], frame)[0]


def _min_max_walk(table: list, lam, frame: FrameParams, divisors) -> tuple:
    """The min-max greedy's ascending interval vector, from the (mode,
    divisor) ceiling table, as lists, of its candidate modes, the strongest
    of lam.

    State per mode: the index of its current interval among the divisors
    of G (one past the last marks "not yet sounded") and its upper
    envelope.  Each round pops the candidate with the largest ceiling (ties
    to the stronger mode) off a heap and tries the largest divisor strictly
    below its interval; the move is taken, and the mode pushed back at its
    new ceiling, when the freed plus remaining block budget covers it,
    otherwise the mode stays out.  Runs in O(G * M_p) rounds, each reading
    the table instead of calling the closed forms.

    Returns None at a dead end, every candidate out with blocks left (G =
    9, two modes at g = 3 leave 3 blocks, and g = 1 costs 9).
    """
    n_div, n_cand = len(divisors), len(table)
    k = [n_div] * n_cand
    active = [(-x, i) for i, x in enumerate(lam[:n_cand].tolist())]  # a heap: worst ceiling first
    heapq.heapify(active)
    n_blk = frame.g_len * frame.m_p

    while n_blk > 0:
        if not active:
            return None  # a dead end: no candidate's next move fits the blocks left
        _, i = heapq.heappop(active)  # the largest ceiling, ties to the stronger mode
        if k[i] == 0:
            continue  # already at g = 1; nothing tighter exists
        k_star = k[i] - 1
        freed = frame.g_len // divisors[k[i]] if k[i] < n_div else 0
        need = frame.g_len // divisors[k_star]
        if n_blk + freed >= need:
            n_blk = n_blk + freed - need
            k[i] = k_star
            heapq.heappush(active, (-table[i][k_star], i))

    chosen = [i for i in range(n_cand) if k[i] < n_div]
    if chosen != list(range(len(chosen))):
        # allocation always proceeds from the strongest ceiling downward,
        # so the allocated set is a prefix of the candidate list
        raise RuntimeError("min-max design allocated a non-prefix mode set")
    return tuple(sorted(divisors[k[i]] for i in chosen))


@dataclass(frozen=True)
class SequenceMatrix:
    """G x M_p matrix of 1-based eigenmode indices; row ell lists the modes
    sounded during block ell's training period."""

    c: np.ndarray
    g: tuple  # the interval vector the matrix realizes
    n_d: int


def sequence_invariant_violations(c: np.ndarray, g, frame: FrameParams):
    """Check the structural invariants of an index matrix against g.

    Returns a list of violation strings: rows must hold M_p distinct
    entries; index i must appear exactly G/g_i times inside one fixed
    column, at rows forming an arithmetic progression of step g_i; and the
    entries must cover exactly 1..n_d.  One row-major walk over the matrix's
    Python values collects every entry's cells.
    """
    problems = []
    g_len, m_p = c.shape
    if g_len != frame.g_len or m_p != frame.m_p:
        problems.append(f"shape {c.shape} != ({frame.g_len}, {frame.m_p})")
        return problems
    n_d = len(g)
    cells = c.tolist()
    values = {int(v) for row in cells for v in row}
    if values != set(range(1, n_d + 1)):
        problems.append(f"entries cover {sorted(values)} instead of 1..{n_d}")
        return problems
    rows_of, cols_of = {}, {}  # each entry's rows, ascending, and columns
    for q, row in enumerate(cells):
        if len({int(v) for v in row}) != m_p:
            problems.append(f"row {c[q]} repeats an index")
        for j, v in enumerate(row):
            if v in rows_of:
                rows_of[v].append(q)
                cols_of[v].add(j)
            else:
                rows_of[v], cols_of[v] = [q], {j}
    for i, g_i in enumerate(g, start=1):
        rows = rows_of.get(i, [])
        expected = frame.g_len // g_i
        if len(rows) != expected:
            problems.append(f"index {i} appears {len(rows)} times, expected {expected}")
            continue
        if len(cols_of[i]) != 1:
            problems.append(f"index {i} appears in multiple columns {sorted(cols_of[i])}")
        if any(q_next - q != g_i for q, q_next in zip(rows, rows[1:])):
            problems.append(f"index {i} rows {rows} not {g_i}-periodic")
    return problems


def construct_sequence_matrix(asn: IntervalAssignment, frame: FrameParams) -> SequenceMatrix:
    """Row-wise iterative allocation of mode indices into the index matrix.

    Walks the rows keeping a fresh-index counter; at each row the first
    still-empty column and its right neighbours receive consecutive new
    indices, each replicated down its column at the stride given by its
    interval.  Completion for every feasible ordered assignment is
    guaranteed by the prime-power frame length.  The walk runs on Python
    ints, 0 marking an empty entry.
    """
    problems = validate_assignment(asn, frame)
    if problems:
        raise ValueError("invalid assignment: " + "; ".join(problems))
    g_len, m_p = frame.g_len, frame.m_p
    cells = [[0] * m_p for _ in range(g_len)]
    next_index = 1
    for q, row in enumerate(cells):
        if 0 not in row:
            continue
        j_first = row.index(0)
        if any(row[j_first:]):
            raise RuntimeError(
                "construction met a determined entry right of the first empty "
                "column; assignment should not have passed validation"
            )
        for j in range(j_first, m_p):
            idx = next_index + (j - j_first)
            if idx > asn.n_d:
                raise RuntimeError("construction ran out of mode indices")
            stride = asn.g[idx - 1]
            rows = range(q, g_len, stride)
            if len(rows) != g_len // stride or any(cells[p][j] for p in rows):
                raise RuntimeError(
                    f"column {j} cannot host index {idx} at stride {stride}"
                )
            for p in rows:
                cells[p][j] = idx
        next_index += m_p - j_first
    if any(0 in row for row in cells) or next_index != asn.n_d + 1:
        raise RuntimeError("construction terminated with undetermined entries")
    c = np.array(cells, dtype=int)
    problems = sequence_invariant_violations(c, asn.g, frame)
    if problems:
        raise RuntimeError("constructed matrix violates invariants: " + "; ".join(problems))
    return SequenceMatrix(c=c, g=asn.g, n_d=asn.n_d)


def save_sequence_csv(path, seq: SequenceMatrix, frame: FrameParams) -> None:
    """Plain-text serialization: one header line, then G rows of M_p
    1-based integer indices."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sequence_csv_text(seq, frame))


def sequence_csv_text(seq: SequenceMatrix, frame: FrameParams) -> str:
    buf = io.StringIO()
    g_list = ",".join(str(x) for x in seq.g)
    buf.write(f"# G={frame.g_len} Mp={frame.m_p} nd={seq.n_d} g={g_list}\n")
    for row in seq.c:
        buf.write(",".join(str(int(v)) for v in row) + "\n")
    return buf.getvalue()


def load_sequence_csv(path) -> SequenceMatrix:
    """Inverse of save_sequence_csv."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError("missing header line")
        fields = dict(kv.split("=", 1) for kv in header[2:].split())
        g = tuple(int(x) for x in fields["g"].split(","))
        rows = [
            [int(v) for v in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    c = np.asarray(rows, dtype=int)
    return SequenceMatrix(c=c, g=g, n_d=int(fields["nd"]))
