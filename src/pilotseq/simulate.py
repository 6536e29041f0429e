"""Link-level Monte Carlo engine for training + estimation + beamforming.

The engine works in the channel covariance eigenbasis: the true channel,
every estimator state and every SINR functional are exact there, and the
dimension drops from the antenna count to the numerical covariance rank.

Scheme kinds
------------
diag     matched tracker sounding true covariance eigenvectors (the
         designed sequences, mp_fixed, nd_fixed)
full     arbitrary fixed training columns through the full-matrix Kalman
         recursion: the orthogonal / random baselines, and the hybrid
         variants whose sounding directions are the designed DFT columns
         while the tracker keeps the true covariance knowledge
perfect  genie channel knowledge

Every scheme plan is a ``Tracker``, a description holding one period of
its schedule; the ``TrackerStack`` of its kind owns its state and does its
arithmetic: one stack holds every (operating point, scheme) row of a kind
for all users.  Its covariance recursion (``posteriors``) is resumable:
each call advances it one window of blocks from where it stopped, keeping
that window's schedule and gains only.  ``MonteCarloRows.posteriors``
reduces a window's posteriors at once to its NMSE and deterministic SINR,
and the Monte Carlo pass advances it one slab at a time, so a run holds
over the horizon only what it returns.  The diag rows of all users advance as
one flat vector of per-mode variances; a user's full rows advance as one
(K, r, r) stack of error covariances, updated in place by a rank-M_p
Hermitian update without per-block re-symmetrization: it agrees with the
symmetrized ``kalman`` oracle to rounding, and each row's outputs equal
its own one-row recursion bit for bit.  A single-user run is the one-user
case of the multiuser run, and a run at one operating point is the
one-point case of an SNR sweep: one run path, one result table per point.

Monte Carlo runs a whole sweep in one slab-major pass: per slab of blocks
the recursion advances once, then every chunk of runs steps the slab's
blocks.  Its K = P S output rows are
the (operating point, scheme) pairs in (point, scheme) order.  Its E
estimate rows, ordered by tracker kind (diag, then full, then perfect), are
the noisy output rows, each owning its estimate, and one row per perfect
scheme, which every point's row of that scheme reads: perfect knowledge is
the channel itself, whatever the rho.  One map takes each output row to its
estimate row.  The kernel keeps a chunk of runs in stacked arrays
zero-padded to the largest user rank r, channels (U, runs, r), evolved with
the scene's own AR(1) coefficients and spectra, and estimates (E, U, runs,
r), so each kind's estimates are a contiguous block of rows.  Per block it
evolves the channel once, makes one stacked step per tracker kind
(``TrackerStack.step``, the only estimate update) and takes the
realized-SINR terms of every estimate row and user.  What is elementwise
over blocks runs outside the per-block loops: the channel draws and their
scaling once per slab, and once per group of blocks each output row's SINR
at its rho, the spectral efficiency and their sums over the runs; the
full-kind recursion likewise reduces its posteriors once per group.

Determinism: every Monte Carlo run owns spawned RNG streams (one per user
channel, then one per scheme and user, whatever the number of points; the
rows of a scheme at every point read its one noise stream), runs are
processed in fixed-size chunks, and each block's chunk partial sums are
reduced in run-index order, so results are byte-identical from run to run,
and each point of a sweep equals its one-point run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import multiuser as mu
from .channel_model import (
    ArrayGeometry,
    ChannelStatistics,
    OneRingGeometry,
    _dft_matrix,
    axis_covariances,
    dft_approximation_upa,
    eigendecompose,
    path_loss,
    temporal_coefficient,
)
from .config import DESIGNED_SCHEMES, MU_SCHEMES, SCHEME_KINDS, ExperimentConfig
from .sequence_design import (
    FrameParams,
    IntervalAssignment,
    SequenceMatrix,
    construct_sequence_matrix,
    design_cells,
)
from .steady_state import profiles as ss_profiles

CHUNK_RUNS = 32  # runs per Monte Carlo chunk, the unit of buffering and of the reduction
SLAB = 256  # blocks per recursion window and per draw of innovations and pilot noise
GROUP_BYTES = 64 * 1024  # per-block buffer a group of blocks fills before one reduction
SIM_RANK_TOL = 1e-12  # relative eigenvalue floor of the simulation space
TAIL_FRAMES = 2  # trailing frames averaged into the steady-state summaries


@dataclass
class ChannelScene:
    """Simulation-ready channel description for one user."""

    a: float
    u_sim: np.ndarray  # n_t x r_sim eigenvectors (loose truncation)
    lam_sim: np.ndarray  # r_sim, descending
    r_design: int  # modes above the design-grade rank threshold
    gamma: float
    axes: tuple  # per-axis covariances (R_H, R_V); R_V = [[1]] for a ULA

    @property
    def r_sim(self) -> int:
        return len(self.lam_sim)

    def trace(self) -> float:
        return float(self.lam_sim.sum())

    @cached_property
    def covariance(self) -> np.ndarray:
        """n_t x n_t covariance U diag(lam) U^H rebuilt from the eigensystem;
        exact to truncation.  Read-only, since every caller shares it."""
        r_h = (self.u_sim * self.lam_sim) @ self.u_sim.conj().T
        r_h.flags.writeable = False
        return r_h


def build_scene(
    array: ArrayGeometry,
    ring: OneRingGeometry,
    block_len: int,
    rank_tol: float = 1e-6,
) -> ChannelScene:
    """Eigensystem at a loose tolerance (simulation space) plus the design
    rank at the user-facing tolerance, from the eigensystems of the two axis
    factors: the n_t x n_t covariance is not formed (it is
    ``ChannelScene.covariance``, and ``upa_covariance(*scene.axes)``)."""
    a = temporal_coefficient(ring, block_len)
    axes = axis_covariances(array, ring)
    u, lam, _ = eigendecompose(axes[0], min(SIM_RANK_TOL, rank_tol), r_vertical=axes[1])
    r_design = int(np.count_nonzero(lam > rank_tol * lam[0]))
    return ChannelScene(a=a, u_sim=u, lam_sim=lam, r_design=r_design,
                        gamma=path_loss(ring), axes=axes)


@dataclass
class Tracker:
    """One scheme's Kalman tracker of one user's channel in its
    eigencoordinates: a description, whose arithmetic and state belong to
    the ``TrackerStack`` it is stacked in.

    A diag tracker sounds covariance eigenvectors, so its error covariance
    stays diagonal and is carried as per-mode variances; a full tracker
    sounds the columns ``s_u`` and carries the whole matrix; a perfect
    tracker knows the channel and runs no recursion.  Block ell sounds row
    ell mod L of ``sched``.  A scheme's plan also carries its design.
    """

    kind: str  # diag | full | perfect
    m_p: int
    lam: np.ndarray  # channel spectrum, the prior error variances
    a: float
    rho: float
    sched: np.ndarray | None = None  # (L, m_p) one period of 0-based mode/column indices
    s_u: np.ndarray | None = None  # (r, n_cols) training columns in U coords (full)
    design: IntervalAssignment | None = None  # periodic eigenmode design the bound reads
    seq: SequenceMatrix | None = None


@dataclass
class TrackerStack:
    """The trackers of one kind in K rows for U users, advanced as one.

    A row is one (operating point, scheme) pair of a run, or one perfect
    scheme at every point (see ``MonteCarloRows``); a user's rows
    share its spectrum and AR(1) coefficient, and all rows the number of
    pilots m_p.  ``sched`` (L, K, U, m_p) holds each tracker's period,
    zero-padded to the longest, and ``period`` (K, U) their lengths: mode
    indices (diag) or indices into ``cols`` (r, n) (full), every full
    tracker's conjugated training columns conj(sqrt(rho) s_u) side by side,
    zero-padded to the largest rank r.  perfect: no state.

    The stack does all tracker arithmetic and owns its state.
    ``posteriors(blocks)`` advances the covariance recursion of every row
    and user by ``blocks`` blocks from where it stopped, keeping the
    recursion's state between calls, and stores the schedule and gains of
    those blocks only, its ``window``: ``window_sched`` (blocks, K, U,
    m_p), and gains (blocks, K, U, m_p) real for diag and (K, U, blocks, r,
    m_p) for full.  ``step`` moves the estimates of a Monte Carlo batch
    through them.  One call over the whole horizon is the one-window case,
    and a lone tracker is the one-row stack.
    """

    kind: str
    a: np.ndarray  # (U, 1, 1) the users' AR(1) coefficients
    lams: list  # per user, its channel spectrum
    rho: np.ndarray  # (K,) each row's data power
    sched: np.ndarray | None = None
    period: np.ndarray | None = None
    cols: np.ndarray | None = None
    window: range = range(0)  # the blocks of the last ``posteriors`` call
    window_sched: np.ndarray | None = None  # the schedule of the blocks in ``window``
    gains: np.ndarray | None = None  # the gains of the blocks in ``window``
    # the recursion's priors at block window.stop: diag, the (K, U, r)
    # per-mode variances; full, each user's (K, r_u, r_u) error covariances
    state: object = None

    @classmethod
    def of(cls, rows) -> TrackerStack:
        """Stack rows[k][u], user u's tracker in row k, all of one kind.

        Checks that a user's rows share lam and a, and that all rows share
        m_p (a ``ValueError`` names the field that differs), and that every
        schedule index lies in its sounding basis (an ``IndexError``).
        """
        first = rows[0]
        kind = first[0].kind
        stack = cls(kind, np.array([t.a for t in first])[:, None, None], [t.lam for t in first],
                    np.array([row[0].rho for row in rows]))
        if kind != "perfect":
            stack.period = np.array([[len(t.sched) for t in row] for row in rows])
            stack.sched = np.zeros((stack.period.max(), len(rows), len(first), first[0].m_p),
                                   dtype=first[0].sched.dtype)
            if kind == "full":
                stack.cols = np.zeros((max(map(len, stack.lams)),
                                       sum(t.s_u.shape[1] for row in rows for t in row)),
                                      dtype=complex)
        offset = 0
        for k, row in enumerate(rows):
            for u, tracker in enumerate(row):
                for field, same in (("lam", np.array_equal(tracker.lam, first[u].lam)),
                                    ("a", tracker.a == first[u].a),
                                    ("m_p", tracker.m_p == first[0].m_p)):
                    if not same:
                        raise ValueError(f"stacked trackers must share {field}, but row {k} "
                                         f"of user {u} differs")
                if kind == "perfect":
                    continue
                r = len(tracker.lam)
                n_cols = r if kind == "diag" else tracker.s_u.shape[1]
                if tracker.sched.size and not (0 <= tracker.sched.min()
                                               <= tracker.sched.max() < n_cols):
                    raise IndexError("schedule index outside the sounding basis")
                stack.sched[:len(tracker.sched), k, u] = tracker.sched + offset
                if kind == "full":
                    stack.cols[:r, offset:offset + n_cols] = (np.sqrt(tracker.rho)
                                                              * tracker.s_u).conj()
                    offset += n_cols
        return stack

    @cached_property
    def sqrt_rho(self) -> np.ndarray:
        """(K, 1, 1, 1) each row's sqrt(rho)."""
        return np.sqrt(self.rho)[:, None, None, None]

    @cached_property
    def _grid(self) -> tuple:
        """Row and user index arrays that broadcast against (K, U, m_p)."""
        n_rows, n_users = self.period.shape
        return np.arange(n_rows)[:, None, None], np.arange(n_users)[None, :, None]

    def step(self, hats: np.ndarray, c: np.ndarray, noise: np.ndarray | None, ell: int) -> None:
        """Batched estimate update in place of every row and user: hats (K,
        U, runs, r) holds the estimates after block ell - 1 (the zero prior
        at block 0) of channels c (U, runs, r) in eigencoordinates; they are
        predicted one block ahead and conditioned on block ell's pilots y =
        S^H h + w, with w = noise (K, U, runs, m_p), through the schedule
        and gains stored for block ell, which must lie in the recursion's
        ``window`` (else an ``IndexError``).  Perfect rows copy the channel.

        Every row and user goes through the arithmetic of a one-tracker
        update in the same memory layout, so the stack changes no bit.
        """
        if self.kind == "perfect":
            hats[...] = c
            return
        if ell not in self.window:
            raise IndexError(f"block {ell} lies outside the gains window "
                             f"[{self.window.start}, {self.window.stop})")
        if ell:
            hats *= self.a
        i = ell - self.window.start
        sqrt_rho, idx = self.sqrt_rho, self.window_sched[i]
        if self.kind == "diag":
            k, u = self._grid  # the advanced indices go first: (K, U, m_p, runs)
            y = sqrt_rho * c[u, :, idx] + noise.swapaxes(-1, -2)
            chat = hats[k, u, :, idx]
            hats[k, u, :, idx] = chat + self.gains[i][..., None] * (y - sqrt_rho * chat)
        else:
            s_conj = np.ascontiguousarray(self.cols[:, idx].transpose(1, 2, 0, 3))
            y = c @ s_conj + noise
            hats += (y - hats @ s_conj) @ self.gains[:, :, i].swapaxes(-1, -2)

    def posteriors(self, blocks: int) -> tuple:
        """The covariance recursion of every row and user over the next
        ``blocks`` blocks, from where the last call stopped (block 0 at
        first).

        Gathers those blocks' schedule from the periods into
        ``window_sched``, stores their gains in ``gains`` and returns every
        row's and user's posteriors reduced per block: tr P and the
        self-error term Re tr(P (Lambda - P)) = lam . diag P - ||P||_F^2,
        (K, U, blocks) each, and diag P, (K, U, blocks, r) zero-padded to
        the largest rank r.  Every reduction sums the user's own r_u modes, never the
        padding.  Perfect knowledge leaves no error: P = 0.  The state
        carried between calls is the recursion's own, so any split of the
        horizon into windows gives the bits of one call.
        """
        start = self.window.stop
        self.window = range(start, start + blocks)
        if self.sched is not None:  # block ell sounds row ell mod L of its period
            rows = np.arange(start, start + blocks)[:, None, None, None] % self.period[..., None]
            self.window_sched = np.take_along_axis(self.sched, rows, axis=0)
        n_rows, n_users = len(self.rho), len(self.lams)
        err, self_err = np.empty((2, n_rows, n_users, blocks))
        diag = np.zeros((n_rows, n_users, blocks, max(map(len, self.lams))))
        if self.kind == "full":
            if self.state is None:  # the priors lam at block 0
                self.state = [np.zeros((n_rows, len(lam), len(lam)), dtype=complex)
                              for lam in self.lams]
                for p, lam in zip(self.state, self.lams):
                    p.reshape(n_rows, -1)[:, :: len(lam) + 1] += lam
            self.gains = np.zeros((*diag.shape, self.sched.shape[-1]), dtype=complex)
            for u in range(n_users):
                self._full_posteriors(u, err[:, u], self_err[:, u], diag[:, u])
            return err, self_err, diag
        if self.kind == "diag":
            if self.state is None:  # the priors lam at block 0
                self.state = self._lam.copy()
            self._diag_posteriors(diag)
        for u, lam in enumerate(self.lams):
            diag_u = diag[:, u, :, :len(lam)]
            err[:, u], self_err[:, u] = mu.error_terms(lam, diag_u, diag_u)
        return err, self_err, diag

    @cached_property
    def _lam(self) -> np.ndarray:
        """(K, U, r) every row's and user's spectrum, zero-padded to the largest rank r."""
        lam = np.zeros((len(self.rho), len(self.lams), max(map(len, self.lams))))
        for u, lam_u in enumerate(self.lams):
            lam[:, u, :len(lam_u)] = lam_u
        return lam

    def _diag_posteriors(self, diags: np.ndarray) -> None:
        """Eigenmode sounding keeps every mode's recursion separate, so all
        rows and users advance as one flat vector of per-mode error
        variances, zero-padded to the largest rank r, that the stack keeps
        between windows: per block, the sounded modes' posteriors p / (1 +
        rho p) and gains sqrt(rho) p / (1 + rho p), then the AR(1)
        prediction a^2 p + (1 - a^2) lam of every mode.
        Writes the window's posteriors into ``diags`` (K, U, blocks, r)."""
        n_rows, n_users, blocks, r_max = diags.shape
        p = self.state
        a2 = (self.a * self.a)[:, :, 0]  # (U, 1)
        innovation, a2 = ((1.0 - a2) * self._lam).ravel(), np.broadcast_to(a2, p.shape).ravel()
        # flat indices of every row's and user's sounded modes in the window,
        # and the matching per-element rho and sqrt(rho)
        idx = self.window_sched + r_max * np.arange(n_rows * n_users).reshape(n_rows, -1, 1)
        m_p = idx.shape[-1]
        rho = np.repeat(self.rho, n_users * m_p)
        self.gains = np.zeros((blocks, n_rows, n_users, m_p))
        sqrt_rho, gains = np.sqrt(rho), self.gains.reshape(blocks, -1)
        flat = p.reshape(-1)  # a view of p
        for ell, i in enumerate(idx.reshape(blocks, -1)):
            pred = flat.take(i)
            den = 1.0 + rho * pred
            np.divide(sqrt_rho * pred, den, out=gains[ell])
            flat.put(i, pred / den)
            diags[:, :, ell] = p
            flat *= a2
            flat += innovation

    def _full_posteriors(self, u: int, err, self_err, diags) -> None:
        """The covariance recursion of user u's rows over the window, run as
        one, reduced as ``posteriors`` returns it into err and self_err (K,
        blocks) and diags (K, blocks, r), that user's slices.

        Their error covariances advance together as one (K, r, r) stack
        updated in place, kept between windows.  Per block, with S the
        block's columns sqrt(rho) s_u, conjugated back out of ``cols``, and
        I the m_p x m_p identity:

            P S, its conjugate transpose (P S)^H and the Gram matrix
            G = (P S)^H S + I; K^H = solve(G, (P S)^H); P -= K (P S)^H;
            ||P||_F^2 as one real dot of P's float64 view with itself;
            P *= a^2 and the innovation (1 - a^2) lam added to the diagonal.

        That is five passes over the stack.  P is not re-symmetrized: the
        rank-m_p update keeps it Hermitian to rounding, and the aging factor
        a^2 < 1 damps what rounding leaves, so the reduced outputs stay
        within 1e-9 relative of the per-block symmetrized ``kalman`` oracle
        over thousands of blocks.  Every slice of the stack makes the same
        BLAS, LAPACK and dot calls as a one-row run, so a row's outputs and
        gains do not depend on its stack, bit for bit.

        K^H's conjugate is solved straight into the block's gains.  The loop
        keeps only what the next block needs: each block copies diag P and
        ||P||_F^2 into buffers of at most GROUP_BYTES, and each group of
        blocks is reduced at once, with the per-block ops' arithmetic.
        """
        lam = self.lams[u]
        a2 = self.a[u, 0, 0] * self.a[u, 0, 0]
        innovation = (1.0 - a2) * lam
        n, m_p = len(self.rho), self.sched.shape[-1]
        r = len(lam)
        cols = self.cols[:r]
        p = self.state[u]
        p_flat = p.view(float).reshape(n, 2 * r * r)  # ||P||_F^2 is its real dot with itself
        d = p.reshape(n, r * r)[:, :: r + 1]  # a writable view of every diagonal
        s = np.empty((n, r, m_p), dtype=complex)
        ps_h, update = np.empty((n, m_p, r), dtype=complex), np.empty_like(p)
        eye = np.eye(m_p)
        group = _group_blocks(16 * n * r, len(self.window))
        d_group, fro = np.empty((group, n, r), dtype=complex), np.empty((group, n))
        for ell, idx in enumerate(self.window_sched[:, :, u]):
            np.conjugate(cols[:, idx].transpose(1, 0, 2), out=s)
            ps = p @ s
            np.conjugate(ps.swapaxes(1, 2), out=ps_h)
            gram = ps_h @ s
            gram += eye
            k = self.gains[:, u, ell, :r]
            np.conjugate(np.linalg.solve(gram, ps_h).swapaxes(1, 2), out=k)
            np.matmul(k, ps_h, out=update)
            p -= update
            i = ell % group
            d_group[i] = d
            np.vecdot(p_flat, p_flat, out=fro[i])
            p *= a2
            d += innovation
            if i == group - 1 or ell == len(self.window) - 1:  # reduce the group's blocks
                blocks = slice(ell - i, ell + 1)
                err[:, blocks] = d_group[:i + 1].sum(axis=-1).real.T
                self_err[:, blocks] = (np.sum(d_group[:i + 1] * lam, axis=-1).real
                                       - fro[:i + 1]).T
                diags[:, blocks, :r] = d_group[:i + 1].real.swapaxes(0, 1)


def _group_blocks(block_bytes: int, blocks: int) -> int:
    """Blocks per group: as many as fit GROUP_BYTES at block_bytes per
    block, at least one and at most ``blocks``."""
    return max(1, min(blocks, GROUP_BYTES // block_bytes))


def _round_robin_cycle(n_cols: int, m_p: int) -> np.ndarray:
    """Cycle columns m_p at a time, wrapping over n_cols."""
    if n_cols < m_p:
        raise ValueError(
            f"cannot sound {m_p} distinct columns per block from a "
            f"{n_cols}-column basis"
        )
    length = n_cols // np.gcd(n_cols, m_p)
    flat = (np.arange(length * m_p)) % n_cols
    return flat.reshape(length, m_p)


def _multiuser_scene(scenes, frame: FrameParams) -> mu.MultiuserScene:
    """The rho-free multiuser scene of per-user channel scenes."""
    return mu.MultiuserScene(
        users=[mu.UserLink(stats=ChannelStatistics(a=s.a, r_h=s.covariance, u=s.u_sim,
                                                   lam=s.lam_sim, rank=s.r_sim)) for s in scenes],
        m=frame.m, m_p=frame.m_p)


def build_single_user_plans(
    scene: ChannelScene,
    frame: FrameParams,
    horizon: int,
    schemes,
    rng_scene: np.random.Generator,
) -> tuple:
    """Instantiate every requested scheme and run its covariance recursion
    over ``horizon`` blocks.  Returns (plans, nmse): the plans and their
    NMSE traces, (S, horizon).

    schemes: iterable of names among min_max, exhaustive, min_max_dft,
    exhaustive_dft, mp_fixed, nd_fixed, orthogonal, random, perfect_csit.
    """
    plans = [_scheme_plan(scene, frame, name, rng_scene) for name in schemes]
    rows = MonteCarloRows.of([[[plan] for plan in plans]], _multiuser_scene([scene], frame))
    nmse, _ = rows.posteriors(horizon)
    return plans, nmse[0]


def _scheme_plan(scene, frame, name, rng_scene, designed=None) -> Tracker:
    """One scheme's plan for one user, before its covariance recursion; its
    kind comes from ``SCHEME_KINDS``, and the branches build its training.
    A designed scheme takes the cell's ``design_sweep`` entry as
    ``designed``, or designs the cell alone without it."""
    if name not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme {name!r}")
    kind, lam = SCHEME_KINDS[name], scene.lam_sim
    a, rho, m_p = scene.a, frame.rho, frame.m_p
    n_t = scene.u_sim.shape[0]
    s_u, cycle, design, seq = None, None, None, None
    if name in DESIGNED_SCHEMES:
        design, seq, cols = designed or design_sweep([scene], [frame], name)[0][0]
        cycle = seq.c - 1
        if kind == "full":  # the hybrid tracker keeps the true covariance knowledge
            s_u, design = scene.u_sim.conj().T @ cols, None
    elif name == "mp_fixed":
        cycle = np.arange(m_p)[None, :]
        design = IntervalAssignment(g=(1,) * m_p, n_d=m_p, objective=0.0)
    elif name == "nd_fixed":
        n_sel = min(frame.n_d_max, scene.r_sim)
        cycle = _round_robin_cycle(n_sel, m_p)
        if n_sel == frame.g_len * m_p:
            design = IntervalAssignment(g=(frame.g_len,) * n_sel, n_d=n_sel, objective=0.0)
    elif name in ("orthogonal", "random"):
        # orthogonal: the N_t-point unitary DFT; random: a fixed set of
        # N_t isotropic unit vectors drawn from the scene generator
        if name == "orthogonal":
            cols = _dft_matrix(n_t)
        else:
            cols = (rng_scene.standard_normal((n_t, n_t))
                    + 1j * rng_scene.standard_normal((n_t, n_t)))
            cols /= np.linalg.norm(cols, axis=0, keepdims=True)
        s_u = scene.u_sim.conj().T @ cols
        cycle = _round_robin_cycle(n_t, m_p)
    return Tracker(kind=kind, m_p=m_p, lam=lam, a=a, rho=rho, s_u=s_u, sched=cycle,
                   design=design, seq=seq)


def design_sweep(scenes: list, frames: list, name: str) -> list:
    """Design step of a designed scheme for every (point, user) cell of a
    sweep whose frames differ only in rho; ``designs[p][u]`` is user u's
    (assignment, index matrix, sounding columns) at point p.

    ``name`` is a designer (``min_max``, ``exhaustive``), sounding the
    scene's design-grade covariance eigenvectors (columns None), or its
    hybrid variant (suffix ``_dft``), which sounds the DFT surrogate basis
    (the analog pre-beamformer) and is designed on the DFT-projected
    spectrum.  One ``design_cells`` call designs all P x U cells, and each
    distinct interval vector's index matrix is constructed once and shared.
    """
    frame = _shared_frame(frames)
    designer = name.removesuffix("_dft")
    if name == designer:
        spectra = [(s.lam_sim[: s.r_design], None) for s in scenes]
    else:
        bases = [dft_approximation_upa(*s.axes, s.r_design) for s in scenes]
        spectra = [(basis.lambda_tilde, basis.f_tilde) for basis in bases]
    asns = iter(design_cells(designer, [lam for _ in frames for lam, _ in spectra],
                             [s.a for _ in frames for s in scenes],
                             [f.rho for f in frames for _ in scenes], frame))
    seqs = {}  # interval vector -> its index matrix
    designs = []
    for _ in frames:
        point = []
        for _, cols in spectra:
            asn = next(asns)
            if asn.g not in seqs:
                seqs[asn.g] = construct_sequence_matrix(asn, frame)
            point.append((asn, seqs[asn.g], cols))
        designs.append(point)
    return designs


def _shared_frame(frames: list) -> FrameParams:
    """The first of frames that may differ only in rho."""
    if any(dataclasses.replace(f, rho=frames[0].rho) != frames[0] for f in frames):
        raise ValueError("the operating points of a sweep may differ only in rho")
    return frames[0]


# -- Monte Carlo ----------------------------------------------------------


def _draw_complex(gen, buf, part_sd, scratch):
    """Fill buf with circular complex normals (z_re + 1j z_im) / sqrt(2),
    the parts drawn in turn from gen, times the per-part scale part_sd
    unless it is None: each mode's scale twice, once for its real and once
    for its imaginary part (``np.repeat(sd, 2)``).  The float64 view of buf
    takes the draws and the scaling runs in place on float64 views; a
    strided buf (a user below the largest rank) is drawn into the contiguous
    ``scratch`` first.  numpy divides a complex number by a real one by
    multiplying both parts by the reciprocal, so scaling the parts by
    1/sqrt(2) gives the bits of the complex division (signed zeros aside)."""
    z = buf if buf.flags.c_contiguous else scratch[:buf.size].reshape(buf.shape)
    parts = z.view(float)
    gen.standard_normal(out=parts)
    np.multiply(parts, 1.0 / np.sqrt(2.0), out=parts)
    if part_sd is not None:
        np.multiply(parts, part_sd, out=buf.view(float))


def _cross_pairs(cross):
    """The off-diagonal user pairs (u, v), u != v, of a (U, U, r, r) cross
    tensor in row-major order: their users u as the index array us, their
    flat slots u U + v in a (U U, ...) stack of pair slots, their (U(U - 1),
    r, r) stack cross[us, vs], and the (V, 1, U) mask that is 1.0 at v !=
    u and 0.0 at v = u."""
    off = 1.0 - np.eye(len(cross))
    us, vs = np.nonzero(off)
    return us, us * len(cross) + vs, cross[us, vs], off[:, None, :]


def _realized_sinr(c, hats, rho, est, pairs):
    """Worst-case-noise matched-filter SINR of every output row and user
    over a batch: channels c (U, runs, r) and estimates hats (E, U, runs, r)
    in each user's eigencoordinates, zero-padded to the largest rank r, the
    estimate row est (K,) of each of the K output rows, each output row's
    data power rho (K, 1, 1) or one for all, and pairs, ``_cross_pairs`` of
    the cross products X_uv = U_u^H U_v into user u's coordinates.  Returns
    (K, U, runs): ``_sinr_tail`` of ``_sinr_terms``.

    With n_u = ||h_hat_u||^2 and d_uv = h_u^H X_uv h_hat_v, user u's
    noise-plus-interference is sigma_u = U n_u / rho + (|d_uu - n_u|^2 +
    n_u sum_{v != u} |d_uv|^2 / n_v), where an interferer estimating nothing
    (n_v = 0) adds nothing.  The bracket, the self-error plus the
    interference, depends on the estimate row only, so it is taken once per
    estimate row and reduced over v before each output row adds it to its
    own noise term.
    """
    nrm2 = np.empty(hats.shape[:-1])
    terms = np.empty_like(nrm2, dtype=_terms_dtype(hats.shape[1]))
    _sinr_terms(c, hats, pairs, nrm2, terms)
    return _sinr_tail(nrm2, terms, rho, est, hats.shape[1])


def _terms_dtype(n_users: int) -> type:
    """The dtype of ``_sinr_terms``' terms: complex d_uu for one user, else
    the real bracket."""
    return complex if n_users == 1 else float


def _sinr_terms(c, hats, pairs, nrm2, terms) -> None:
    """The part of ``_realized_sinr`` that reads the block's channels and
    estimates, written into nrm2 and terms (E, U, runs): n_u, and for one
    user its d_uu = np.vecdot(c, hats), else the bracket |d_uu - n_u|^2 +
    n_u sum_{v != u} |d_uv|^2 / n_v.

    One user has no pair, and the rest of its bracket is elementwise, left
    to ``_sinr_tail``.  With more users, d_uv is taken as (X_uv^H h_u)^H
    h_hat_v, X_uu = I: slot v = u of the pair tensor holds conj(h_u) and
    slot u U + v (v != u) the channel-side projection, one stacked matmul,
    a (runs, r) by (r, r) gemm per off-diagonal pair whatever the row
    count; each estimate row's dots, the self term's among them, are then
    one (U x r) gemv per (row, v, run), so a row's bits do not depend on
    the rows beside it.
    """
    n_users = hats.shape[1]
    flat = hats.view(float)
    np.vecdot(flat, flat, out=nrm2)
    if n_users == 1:  # a lone user has no pair
        np.vecdot(c, hats, out=terms)  # h_u^H h_hat_u
        return
    us, slots, x, off = pairs
    proj = np.empty((n_users * n_users, *c.shape[1:]), dtype=complex)
    c_conj = np.conjugate(c, out=proj[::n_users + 1])  # slots u U + u: X_uu = I
    proj[slots] = np.matmul(c_conj[us], x)
    proj = proj.reshape(n_users, *c.shape).transpose(1, 2, 0, 3)  # (V, runs, U, r)
    dot = (proj @ hats[..., None])[..., 0]  # d_uv at (E, V, runs, U)
    err = np.diagonal(dot, axis1=1, axis2=3).transpose(0, 2, 1) - nrm2
    power = dot.real * dot.real + dot.imag * dot.imag
    inv = np.divide(1.0, nrm2, out=np.zeros_like(nrm2), where=nrm2 > 0)
    power *= inv[..., None]
    power *= off  # v = u is no interferer
    np.multiply(err.real, err.real, out=terms)
    terms += err.imag * err.imag
    terms += nrm2 * power.sum(axis=1).transpose(0, 2, 1)


def _sinr_tail(nrm2, terms, rho, est, n_users):
    """The rest of ``_realized_sinr``, elementwise over any leading axes of
    ``_sinr_terms``' nrm2 and terms (..., E, U, runs): one user's bracket
    |d_uu - n_u|^2, then each output row's estimate row's terms, est (K,),
    at its own rho.  Returns (..., K, U, runs)."""
    if n_users == 1:
        err = terms - nrm2  # h_u^H h_hat_u - ||h_hat_u||^2
        terms = err.real * err.real + err.imag * err.imag
    norm = nrm2[..., est, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # rho = 0 gives sigma = inf
        sigma = n_users * norm / rho + terms[..., est, :, :]
        return np.where(norm > 0, norm ** 2 / sigma, 0.0)


@dataclass
class MonteCarloRows:
    """The Monte Carlo kernel's rows for the users of one multiuser scene:
    every (operating point, scheme) pair of a run is an output row, in
    (point, scheme) order.  The estimates live in estimate rows, ordered by
    tracker kind (diag, then full, then perfect), each kind's one
    contiguous block stepped by one ``TrackerStack``: a noisy row owns its
    estimate, while perfect knowledge is the channel itself at every point,
    so the perfect stack holds one estimate row per perfect scheme, read by
    that scheme's output row at every point.  ``est`` maps each output row
    to its estimate row."""

    plans: list  # plans[p][s][u], user u's plan of scheme s at point p
    scene: mu.MultiuserScene  # the users' channels, which Monte Carlo draws and evolves
    stacks: list  # (stack, its estimate rows as a slice, the scheme of each noisy row) per kind
    est: np.ndarray  # (P S,) the estimate row of each output row

    @classmethod
    def of(cls, plans, scene: mu.MultiuserScene) -> MonteCarloRows:
        """The rows of plans[p][s][u] for the users of ``scene``."""
        # each output row's estimate key: (p, s), or (0, s) for a perfect
        # scheme, whose every point's row reads its first point's estimate row
        keys = [(0 if row[0].kind == "perfect" else p, s)
                for p, point in enumerate(plans) for s, row in enumerate(point)]
        stacks, index = [], {}  # index: each key's estimate row
        for kind in ("diag", "full", "perfect"):
            stack_rows = list(dict.fromkeys(k for k in keys if plans[k[0]][k[1]][0].kind == kind))
            if not stack_rows:
                continue
            start = len(index)
            index.update({key: start + i for i, key in enumerate(stack_rows)})
            schemes = None if kind == "perfect" else np.array([s for _, s in stack_rows])
            stacks.append((TrackerStack.of([plans[p][s] for p, s in stack_rows]),
                           slice(start, len(index)), schemes))
        return cls(plans, scene, stacks, np.array([index[key] for key in keys]))

    @property
    def n_est(self) -> int:
        """The number of estimate rows."""
        return self.stacks[-1][1].stop

    @cached_property
    def rho(self) -> np.ndarray:
        return np.array([row[0].rho for point in self.plans for row in point])[:, None, None]

    @cached_property
    def pairs(self) -> tuple:
        """The scene's off-diagonal pair stack, ``_cross_pairs`` of its cross tensor."""
        return _cross_pairs(self.scene.cross)

    def posteriors(self, blocks: int) -> tuple:
        """Advances every stack's covariance recursion by ``blocks`` blocks
        and returns their NMSE, (P, S, blocks), the mean over users of tr
        P / sum(lam) summed in ascending u, and deterministic SINR, (P, S,
        blocks, U), one ``sinr_equivalent`` call at each output row's rho.
        Each kind's diag P is reduced to its leakage, user v's r_v modes at
        a time, before the next kind's recursion runs, and only the reduced
        terms of an estimate row are copied to the output rows that read
        it.  Both outputs are elementwise over blocks, so any split of the
        horizon into windows gives the bits of one call."""
        shape = (len(self.plans), len(self.plans[0]), blocks)
        err, self_err = np.empty((2, len(self.est), blocks, self.scene.n_users))
        leak = np.empty((*err.shape, self.scene.n_users))
        for stack, block, _ in self.stacks:
            outputs = (block.start <= self.est) & (self.est < block.stop)
            own = self.est[outputs] - block.start  # the output rows' rows of the stack
            err_k, self_err_k, diag = stack.posteriors(blocks)
            err[outputs] = err_k[own].swapaxes(1, 2)
            self_err[outputs] = self_err_k[own].swapaxes(1, 2)
            for v, lam in enumerate(stack.lams):
                leak[outputs, :, v] = mu.user_leakage(self.scene, v, diag[:, v, :, :len(lam)])[own]
            del diag  # free it before the next kind's recursion runs
        lam_sum = np.array([user.stats.lam.sum() for user in self.scene.users])
        det = mu.sinr_equivalent(lam_sum, err, self_err, leak, self.rho)
        nmse = np.ascontiguousarray(np.moveaxis(err / lam_sum, -1, 0)).mean(axis=0)
        return nmse.reshape(shape), det.reshape(*shape, -1)


@dataclass
class _Chunk:
    """One chunk of Monte Carlo runs between slabs: channels c (U, runs, r)
    about to enter the next block, estimates hats (E, U, runs, r) after the
    last, per drawing stream (generator, its rows of the shared slab
    buffers, per-part scale or None), and the chunk's runs of those
    buffers, proc (U, runs, slab, r) and noise (S, U, runs, slab, m_p), and
    of the realized-SINR group buffers."""

    c: np.ndarray
    hats: np.ndarray
    fills: list
    proc: np.ndarray
    noise: np.ndarray
    scratch: np.ndarray  # the draws of a user below the largest rank
    sinr_terms: tuple  # ``_sinr_terms``' nrm2 and terms of a group of blocks, (blocks, E, U, runs)

    @classmethod
    def of(cls, seed_seqs, rows, proc, noise, scratch, sinr_terms) -> _Chunk:
        """The chunk of runs seed_seqs at block 0.  Each run spawns its
        streams in one layout, whatever the points: one per user channel,
        which draws the run's first channel at once, then one per (scheme,
        user).  Every point's row of a scheme reads that scheme's pilot
        noise; perfect knowledge consumes its streams without drawing from
        them.  Run i fills run i of the shared innovation buffer proc (U,
        CHUNK_RUNS, slab, r) and pilot-noise buffer noise (S, U, CHUNK_RUNS,
        slab, m_p), and the group buffers sinr_terms (blocks, E, U, CHUNK_RUNS)."""
        users = [user.stats for user in rows.scene.users]
        n_runs, n_users = len(seed_seqs), len(users)
        noisy = [row[0].kind != "perfect" for row in rows.plans[0]]  # per scheme
        scale = [np.repeat(np.sqrt(stats.lam), 2) for stats in users]  # per float64 part
        c = np.zeros((n_users, n_runs, proc.shape[-1]), dtype=complex)
        fills = []
        for i, seq in enumerate(seed_seqs):
            streams = seq.spawn(n_users * (1 + len(noisy)))
            for u, part_sd in enumerate(scale):
                gen, r = np.random.default_rng(streams[u]), len(part_sd) // 2
                _draw_complex(gen, c[u, i:i + 1, :r], part_sd, scratch)
                fills.append((gen, proc[u, i, :, :r], part_sd))
            for pos, (s, u) in enumerate(np.ndindex(len(noisy), n_users), start=n_users):
                if noisy[s]:
                    fills.append((np.random.default_rng(streams[pos]), noise[s, u, i], None))
        return cls(c, np.zeros((rows.n_est, *c.shape), dtype=complex), fills,
                   proc[:, :n_runs], noise[:, :, :n_runs], scratch,
                   tuple(buf[..., :n_runs] for buf in sinr_terms))

    def advance(self, rows, start, blocks, sums, frame) -> None:
        """Draws the chunk's next ``blocks`` blocks into the shared buffers
        and simulates blocks start, ..., start + blocks - 1, adding each
        block's sums over the chunk's runs of the realized SINR and the
        spectral efficiency of the K output rows to sums (2, K, horizon, U).
        Per block the channel is drawn and evolved once for all rows, with
        each user's AR(1) coefficient and spectrum from the scene, whatever
        the plans assume; each tracker kind makes one stacked step of its
        estimate rows, and ``_sinr_terms`` fills the block's slot of the
        group buffers.  The rest is elementwise over blocks, so it runs once
        per slab or group: the innovations are scaled by sqrt(1 - a^2) once
        per slab, and one ``_sinr_tail`` covers every output row, user and
        block of a group, whose SINR and spectral-efficiency sums over the
        runs are added at once."""
        c, hats, n_users = self.c, self.hats, len(self.c)
        nrm2, terms = self.sinr_terms
        group = len(nrm2)
        a = np.array([user.stats.a for user in rows.scene.users])[:, None, None]
        evolve = np.sqrt(1.0 - a * a)
        for gen, buf, part_sd in self.fills:
            _draw_complex(gen, buf[:blocks], part_sd, self.scratch)
        innovations = self.proc[:, :, :blocks]
        np.multiply(evolve[..., None], innovations, out=innovations)
        for k, ell in enumerate(range(start, start + blocks)):
            pilots = self.noise[:, :, :, k]
            for stack, block, schemes in rows.stacks:
                stack.step(hats[block], c, None if schemes is None else pilots[schemes], ell)
            i = k % group
            _sinr_terms(c, hats, rows.pairs, nrm2[i], terms[i])
            c *= a
            c += innovations[:, :, k]
            if i == group - 1 or k == blocks - 1:  # the group's tail, (blocks, K, U, runs)
                sinr = _sinr_tail(nrm2[:i + 1], terms[:i + 1], rows.rho, rows.est, n_users)
                se = mu.spectral_efficiency(sinr, n_users, frame.m_p, frame.m)
                sums[0, :, ell - i:ell + 1] += sinr.sum(axis=-1).swapaxes(0, 1)
                sums[1, :, ell - i:ell + 1] += se.sum(axis=-1).swapaxes(0, 1)


def _monte_carlo(rows, seed, mc_runs, horizon, frame):
    """The Monte Carlo pass over the rows' plans[p][s], from run streams
    spawned off ``seed``, with their covariance recursion run beside it.
    Returns the means of the realized SINR and the spectral efficiency, (2,
    P, S, horizon, U), which the sums become in place, and the NMSE and
    deterministic SINR of ``MonteCarloRows.posteriors``: all it holds over
    the horizon.

    The pass is slab-major.  Per slab of at most SLAB blocks the recursion
    advances once, filling the slab's NMSE and SINR, then each chunk of at
    most CHUNK_RUNS runs, in run order, draws the slab's channel
    innovations and pilot noise into buffers that every chunk shares and
    steps its blocks; each stream fills sequentially, so the values equal
    one whole-horizon draw.  Every chunk's channels, estimates and
    generators persist across slabs.  Each block's total over the runs is
    ((0 + chunk 0) + chunk 1) + ..., the run-order reduction.
    """
    shape = (len(rows.plans), len(rows.plans[0]), horizon)
    slab = min(SLAB, horizon)
    sums = np.zeros((2, len(rows.est), horizon, rows.scene.n_users))
    nmse = np.empty(shape)
    det = np.empty((*shape, rows.scene.n_users))
    chunks = None
    for start in range(0, horizon, slab):
        blocks = min(slab, horizon - start)
        nmse[:, :, start:start + blocks], det[:, :, start:start + blocks] = rows.posteriors(blocks)
        if chunks is None:  # built after the first window: a one-window run's
            chunks = _chunks(rows, seed, mc_runs, slab, frame)  # recursion holds no draws
        for chunk in chunks:  # in run order
            chunk.advance(rows, start, blocks, sums, frame)
    sums /= mc_runs
    return sums.reshape(2, *shape, -1), nmse, det


def _chunks(rows, seed, mc_runs, slab, frame) -> list:
    """The chunks, in run order and at block 0, of the runs spawned off
    ``seed``, sharing slab buffers sized for one chunk and group buffers
    of as many blocks as GROUP_BYTES holds of the tail's (K, U, runs)
    float64 arrays, a block's largest but one user's complex terms (E, U,
    runs), E <= K."""
    run_seqs = np.random.SeedSequence(seed).spawn(2)[1].spawn(mc_runs)
    n_users, n_runs = rows.scene.n_users, min(mc_runs, CHUNK_RUNS)
    r_max = max(len(user.stats.lam) for user in rows.scene.users)
    proc = np.zeros((n_users, n_runs, slab, r_max), dtype=complex)
    noise = np.empty((len(rows.plans[0]), n_users, n_runs, slab, frame.m_p), dtype=complex)
    scratch = np.empty(slab * r_max, dtype=complex)
    slot = (_group_blocks(8 * len(rows.est) * n_users * n_runs, slab),
            rows.n_est, n_users, n_runs)
    sinr_terms = (np.empty(slot), np.empty(slot, dtype=_terms_dtype(n_users)))
    return [_Chunk.of(run_seqs[i:i + CHUNK_RUNS], rows, proc, noise, scratch, sinr_terms)
            for i in range(0, mc_runs, CHUNK_RUNS)]


# -- runs ------------------------------------------------------------------

@dataclass
class MultiuserTable:
    """Per-block traces of every scheme for each of a run's U users, plus
    per-user steady-state summaries; a single-user run is the U = 1 table."""

    schemes: list
    horizon: int
    frame: FrameParams
    n_users: int
    nmse: dict  # (horizon,) NMSE, mean over users
    sinr_mc: dict  # (horizon, U) Monte Carlo mean realized SINR
    se_mc_runs: dict  # (horizon, U) Monte Carlo mean spectral efficiency
    sinr_det: dict  # (horizon, U) deterministic equivalent
    sinr_lb: dict  # (U,) steady-state lower bound, nan where undefined
    sinr_det_ss: dict  # (U,) deterministic SINR at the converged state, nan where undefined
    user_plans: list  # per user, {scheme: Tracker}

    def _se(self, sinr):
        return mu.spectral_efficiency(sinr, self.n_users, self.frame.m_p, self.frame.m)

    def se_mc(self, scheme):
        return self.se_mc_runs[scheme]

    def se_det(self, scheme):
        return self._se(self.sinr_det[scheme])

    def se_lb(self, scheme):
        return self._se(self.sinr_lb[scheme])

    def se_det_ss(self, scheme):
        """Spectral efficiency at the converged (steady-state) deterministic
        SINR; nan for schemes without a closed-form steady state."""
        return self._se(self.sinr_det_ss[scheme])

    def steady_state(self, key: str, scheme: str) -> float:
        """Mean of a per-block field over the last ``TAIL_FRAMES`` frames and the users."""
        tail = self.frame.g_len * TAIL_FRAMES
        return float(np.mean(getattr(self, key)[scheme][-tail:]))


def run_schemes(
    scene: ChannelScene,
    frame: FrameParams,
    schemes,
    mc_runs: int,
    seed: int,
    horizon: int,
    threads: int = 1,
) -> MultiuserTable:
    """Deterministic traces plus Monte Carlo averages for a scheme list: the
    one-user run.  ``threads`` has no effect; it stays for perfbench's call
    sites."""
    return run_multiuser_scene([scene], frame, schemes, mc_runs, seed, horizon)


def steady_state(scene_mu, plans, rho):
    """Per-user steady-state bound (at the envelopes of every user's periodic
    design) and converged deterministic SINR (at the post-training floor,
    zero under perfect knowledge) of one scheme, nan where undefined: the
    one-point ``steady_states``."""
    return steady_states(scene_mu, [plans], [rho])[0]


def steady_states(scene_mu, points, rhos) -> list:
    """``steady_state`` of one scheme at every point, whose per-user plans
    at point p are points[p] and whose data power is rhos[p]: a list of
    (bound, deterministic SINR), nan throughout unless every plan carries a
    periodic design (or the scheme is perfect).  The envelopes of every
    (point, user) design come from one ``steady_state.profiles`` call."""
    cells = [p for plans in points for p in plans]
    perfect = cells[0].kind == "perfect"
    nan = np.full(len(points[0]), np.nan)
    if perfect:
        envelopes = [(np.zeros(len(p.lam)),) * 2 for p in cells]
    elif all(p.design is not None for p in cells):
        envelopes = [(q.lambda_lower, q.lambda_upper) for q in ss_profiles(
            [p.lam for p in cells], [p.a for p in cells], [p.rho for p in cells],
            [p.design.g_padded(len(p.lam)) for p in cells])]
    else:
        return [(nan, nan)] * len(points)
    out, n_users = [], len(points[0])
    for k, rho in enumerate(rhos):
        lowers, uppers = zip(*envelopes[k * n_users: (k + 1) * n_users])
        states = [np.stack(pair) for pair in zip(lowers, uppers)]
        det_ss, lb = mu.sinr_equivalent(*mu.sinr_inputs(scene_mu, states, lowers), rho)
        out.append((nan if perfect else lb, det_ss))
    return out


def run_multiuser_scene(
    scenes: list,
    frame: FrameParams,
    schemes,
    mc_runs: int,
    seed: int,
    horizon: int,
    threads: int = 1,
) -> MultiuserTable:
    """Downlink run at one operating point: the one-point sweep.  A
    single-user run is the one-user case; with more users only the
    MU_SCHEMES are available.  ``threads`` has no effect; it stays for
    perfbench's call sites.
    """
    return run_multiuser_sweep(scenes, [frame], schemes, mc_runs, seed, horizon)[0]


def run_multiuser_sweep(
    scenes: list,
    frames: list,
    schemes,
    mc_runs: int,
    seed: int,
    horizon: int,
) -> list[MultiuserTable]:
    """Downlink runs at several operating points, frames that differ only in
    rho: per-user sounding over non-overlapping slots, matched-filter data
    transmission, worst-case-noise SINR.

    Returns one table per point: every scheme's deterministic traces,
    steady-state summaries and Monte Carlo averages, each equal to the
    one-point run's.  The scene, its cross tensor and coupling maps are
    built once, and each designed scheme's P x U cells are designed in one
    ``design_sweep`` call.  Each point builds its plans with a fresh scene
    generator, so ``random`` draws the same columns at every point; then
    one Monte Carlo pass runs every (point, scheme) pair on the same draws.
    """
    n_users = len(scenes)
    _shared_frame(frames)
    unavailable = [name for name in schemes if name not in MU_SCHEMES]
    if n_users > 1 and unavailable:
        raise ValueError(f"schemes {unavailable} are not available in the multiuser "
                         f"path; choose among {MU_SCHEMES}")
    scene = _multiuser_scene(scenes, frames[0])
    designs = {name: design_sweep(scenes, frames, name) for name in schemes
               if name in DESIGNED_SCHEMES}
    plans = []  # plans[p][s][u] is user u's plan of scheme s at point p
    for p, frame in enumerate(frames):
        rng_scene = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
        plans.append([[_scheme_plan(user, frame, name, rng_scene,
                                    designs[name][p][u] if name in designs else None)
                       for u, user in enumerate(scenes)] for name in schemes])
    del designs  # a hybrid scheme's n_t x r sounding columns live on only in its plans' s_u
    means, nmse, det = _monte_carlo(MonteCarloRows.of(plans, scene), seed, mc_runs, horizon,
                                    frames[0])
    bounds = [steady_states(scene, [point[s] for point in plans], [f.rho for f in frames])
              for s in range(len(schemes))]
    tables = []
    for p, (frame, point, det_p, nmse_p, sinr_mc, se_mc) in enumerate(
            zip(frames, plans, det, nmse, *means)):
        lb, det_ss = zip(*(by_scheme[p] for by_scheme in bounds))
        tables.append(MultiuserTable(
            schemes=list(schemes), horizon=horizon, frame=frame, n_users=n_users,
            nmse=dict(zip(schemes, nmse_p)),
            sinr_mc=dict(zip(schemes, sinr_mc)), se_mc_runs=dict(zip(schemes, se_mc)),
            sinr_det=dict(zip(schemes, det_p)), sinr_lb=dict(zip(schemes, lb)),
            sinr_det_ss=dict(zip(schemes, det_ss)),
            user_plans=[dict(zip(schemes, by_scheme)) for by_scheme in zip(*point)],
        ))
    return tables


def user_angles(config: ExperimentConfig) -> list[float]:
    """Horizontal angles (degrees) of a configuration's users: the explicit
    ``users.theta_deg`` when given, else a lone user at ``ring.theta_h_deg``
    and several users placed uniformly in the sector (-60, 60) from the
    seed."""
    if config.users.theta_deg is not None:
        return [float(t) for t in config.users.theta_deg]
    if config.users.count == 1:
        return [float(config.ring.theta_h_deg)]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        config.seed).spawn(2)[0]))
    return np.degrees(rng.uniform(-np.pi / 3, np.pi / 3, size=config.users.count)).tolist()


def user_scene(config: ExperimentConfig, u: int, theta_deg: float) -> ChannelScene:
    """The channel scene of a configuration's user u at horizontal angle
    ``theta_deg``, checked to keep at least the ``frame.m_p`` eigenmodes it
    sounds per block."""
    scene = build_scene(config.array.build(), config.ring.build(theta_h_deg=theta_deg),
                        config.frame.m, config.rank_tol)
    if scene.r_design < config.frame.m_p:
        raise ValueError(f"user {u} keeps {scene.r_design} eigenmodes above rank_tol = "
                         f"{config.rank_tol!r}, fewer than the frame.m_p = "
                         f"{config.frame.m_p} it sounds per block: lower either")
    return scene


def multiuser_scenes_from_config(config: ExperimentConfig):
    """Per-user channel scenes and horizontal angles (degrees) of a
    configuration (see ``user_angles`` and ``user_scene``)."""
    thetas = user_angles(config)
    return [user_scene(config, u, t) for u, t in enumerate(thetas)], thetas


def run_multiuser(config: ExperimentConfig):
    """The experiment of a configuration document, for any number of users.

    The configuration's ``operating_points`` run as one sweep.  Returns
    (table, sweep_rows): the per-block table at the last operating point,
    whose traces are copies so that the other points' traces can be freed,
    and the per-(SNR, scheme, user) steady-state summaries of every point.
    """
    scenes, _ = multiuser_scenes_from_config(config)
    points = config.operating_points(scenes[0].gamma)
    tables = run_multiuser_sweep(scenes, [frame for _, frame in points], config.schemes,
                                 config.mc_runs, config.seed, config.horizon_blocks)
    rows = []
    for (snr_db, frame), table in zip(points, tables):
        tail = frame.g_len * TAIL_FRAMES
        for name in table.schemes:
            se_mc = table.se_mc(name)[-tail:].mean(axis=0)
            se_det_tail = table.se_det(name)[-tail:].mean(axis=0)
            se_det_ss = table.se_det_ss(name)
            se_lb = table.se_lb(name)
            for u in range(table.n_users):
                det = se_det_ss[u] if np.isfinite(se_det_ss[u]) else se_det_tail[u]
                rows.append(dict(snr_db=float(snr_db), scheme=name, user=u,
                                 se_mc=float(se_mc[u]), se_det=float(det),
                                 se_lb=float(se_lb[u])))
    last = tables[-1]
    return dataclasses.replace(last, **{
        key: {name: trace.copy() for name, trace in getattr(last, key).items()}
        for key in ("nmse", "sinr_mc", "se_mc_runs", "sinr_det")}), rows
