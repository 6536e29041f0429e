"""Periodic training-sequence design under a per-frame resource budget.

Selects how many covariance eigenmodes to sound (n_d), the per-mode
sounding interval vector g (each entry dividing the frame length G, with
sum of 1/g_i equal to the pilot count M_p), and materializes the choice as
a G x M_p index matrix C whose row ell names the eigenvectors transmitted
during block ell's training period.
"""

from __future__ import annotations

import io
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


def _objective(lam: np.ndarray, a: float, rho: float, g: np.ndarray) -> float:
    """l1 norm of the upper steady-state envelope, untrained modes padded."""
    n_d = len(g)
    lower = min_ss_mse(lam[:n_d], a, rho, g)
    upper = max_ss_mse(lower, lam[:n_d], a, g)
    return float(np.sum(upper) + np.sum(lam[n_d:]))


def _ceiling_table(lam: np.ndarray, a: float, rho: float, divisors) -> np.ndarray:
    """(mode, divisor) table of steady-state ceilings max_ss_mse(min_ss_mse(
    lam_i, a, rho, d), lam_i, a, d).  One array call per divisor, with d a
    scalar, so every entry has the bits of the scalar call (a grid that
    broadcasts d along a second axis may differ from it in the last bit)."""
    table = np.empty((len(lam), len(divisors)))
    for k, d in enumerate(divisors):
        table[:, k] = max_ss_mse(min_ss_mse(lam, a, rho, d), lam, a, d)
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


def exhaustive_search(lam, a: float, rho: float, frame: FrameParams) -> IntervalAssignment:
    """Global minimizer of the upper-envelope objective over ordered designs.

    The objective is sum(lam) + sum_{i < n_d} f_i(g_i) with the ceiling
    excess f_i(d) = max_ss_mse(lam_i, d) - lam_i, and a design pairs a
    nondecreasing g with the descending lam by position.  A dynamic program
    over (mode i, smallest divisor index k still allowed, blocks b left)
    fills the table value[i, k, b] of best completions, vectorized over b,
    in O(n_d * |D| * G * M_p) with D the divisors of G.  Sounding may stop
    only with the budget spent exactly (b = 0) and M_p <= i <= the cap.

    The table fixes the optimum only up to its own float sums, so the
    result comes from a depth-first walk that follows every branch whose
    partial sum plus table value stays within ``slack`` of the optimum, and
    re-scores each complete design with ``_objective``.  Ties break toward
    fewer sounded modes, then lexicographically smallest g.  At rho = 0
    every design ties at sum(lam), so the answer is the fewest modes: M_p
    of them at interval 1.
    """
    lam = np.asarray(lam, dtype=float)
    lo, hi = _feasible_n_d_range(lam, frame)
    if rho == 0:
        return IntervalAssignment((1,) * frame.m_p, frame.m_p,
                                  _objective(lam, a, rho, np.ones(frame.m_p, dtype=int)))
    divisors = divisor_set(frame.g_len)
    n_div = len(divisors)
    budget = frame.g_len * frame.m_p
    cost = [frame.g_len // d for d in divisors]  # blocks consumed per use

    excess = _ceiling_table(lam[:hi], a, rho, divisors) - lam[:hi, None]

    # value[i, n_div] is the stop column: modes i.. stay untrained
    value = np.full((hi + 1, n_div + 1, budget + 1), np.inf)
    for i in range(hi, -1, -1):
        if i >= lo:
            value[i, n_div, 0] = 0.0
        for k in range(n_div - 1, -1, -1):
            value[i, k] = value[i, k + 1]
            if i < hi:
                c = cost[k]
                np.minimum(value[i, k, c:], excess[i, k] + value[i + 1, k, : budget + 1 - c],
                           out=value[i, k, c:])
    optimum = value[0, 0, budget]
    if not np.isfinite(optimum):
        raise ValueError("no feasible interval vector under the given frame")

    # the table's backward sums, the walk's forward partial sums and
    # _objective's np.sum each add at most len(lam) + 1 terms bounded by
    # lam_i, so two of them differ by under 2 (len(lam) + 1) eps sum(lam);
    # the slack covers that gap for both the winner and the table's optimum,
    # plus few-ulp differences between the grid's and _objective's envelopes
    slack = 16.0 * (len(lam) + 2) * np.finfo(float).eps * float(np.sum(lam))
    limit = optimum + slack
    best = None
    stack = [(0, 0, budget, 0.0, ())]
    while stack:
        i, k, b, partial, g = stack.pop()
        if b == 0:
            key = (_objective(lam, a, rho, np.asarray(g)), len(g), g)
            if best is None or key < best:
                best = key
            continue
        for kk in range(k, n_div):
            c = cost[kk]
            if c > b:
                continue
            s = partial + excess[i, kk]
            if s + value[i + 1, kk, b - c] <= limit:
                stack.append((i + 1, kk, b - c, s, g + (divisors[kk],)))
    obj, n_d, g = best
    return IntervalAssignment(g=g, n_d=n_d, objective=obj)


def min_max_design(lam, a: float, rho: float, frame: FrameParams) -> IntervalAssignment:
    """Greedy design that repeatedly shortens the interval of the mode with
    the worst steady-state ceiling.

    State per mode: the index of its current interval among the divisors
    of G (one past the last marks "not yet sounded") and its upper
    envelope.  Each round picks the candidate with the largest ceiling and
    the largest divisor strictly below its interval; the move is taken when
    the freed plus remaining block budget covers it, otherwise the mode is
    frozen out.  Runs in O(G * M_p) rounds, each reading the ceiling table
    that ``_ceiling_table`` builds once per design.
    """
    lam = np.asarray(lam, dtype=float)
    lo, hi = _feasible_n_d_range(lam, frame)
    divisors = divisor_set(frame.g_len)
    n_div = len(divisors)
    n_cand = hi  # candidate modes: the hi strongest (never exceeds rank)
    table = _ceiling_table(lam[:n_cand], a, rho, divisors).tolist()

    k = [n_div] * n_cand
    ceiling = lam[:n_cand].tolist()
    active = list(range(n_cand))
    n_blk = frame.g_len * frame.m_p

    while n_blk > 0:
        if not active:
            raise RuntimeError(
                "min-max design exhausted its candidates with blocks left; "
                "this cannot happen when N_d >= M_p"
            )
        i = max(active, key=lambda j: (ceiling[j], -j))
        if k[i] == 0:
            active.remove(i)  # already at g = 1; nothing tighter exists
            continue
        k_star = k[i] - 1
        freed = frame.g_len // divisors[k[i]] if k[i] < n_div else 0
        need = frame.g_len // divisors[k_star]
        if n_blk + freed >= need:
            n_blk = n_blk + freed - need
            k[i] = k_star
            ceiling[i] = table[i][k_star]
        else:
            active.remove(i)

    chosen = np.flatnonzero(np.array(k) < n_div)
    g_out = np.array([divisors[k[i]] for i in chosen], dtype=int)
    order = np.argsort(g_out, kind="stable")
    g_sorted = g_out[order]
    if not np.array_equal(chosen, np.arange(len(chosen))):
        # allocation always proceeds from the strongest ceiling downward,
        # so the allocated set is a prefix of the candidate list
        raise RuntimeError("min-max design allocated a non-prefix mode set")
    asn = IntervalAssignment(
        g=tuple(int(x) for x in g_sorted),
        n_d=len(chosen),
        objective=_objective(lam, a, rho, g_sorted),
    )
    problems = validate_assignment(asn, frame, rank=len(lam))
    if problems:
        raise RuntimeError("min-max design produced an invalid assignment: " + "; ".join(problems))
    return asn


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
