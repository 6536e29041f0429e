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

Every scheme plan is a ``Tracker``: its covariance recursion runs once,
when the plan is built, storing the per-block gains, and its posteriors are
reduced to the inputs of ``multiuser.sinr_equivalent``, evaluated once per
scheme for all users; its batched sample step is the only estimate update
the Monte Carlo kernel makes.  A diag plan runs its own recursion; all of
one user's full plans run one recursion (``full_posteriors``), their error
covariances stacked (S_full, r, r) and updated in place.  A single-user
run is the one-user case of the multiuser run: one run path, one result
table.

Monte Carlo keeps a chunk of runs in stacked arrays zero-padded to the
largest user rank r, channels (U, runs, r) and estimates (S, U, runs, r),
and makes one realized-SINR call per block for every scheme and user.

Determinism: every Monte Carlo run owns spawned RNG streams (one per user
channel, then one per scheme and user), runs are processed in fixed-size
chunks, and chunk partial sums are reduced in run-index order, so results
are byte-identical from run to run.
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
    build_covariance,
    dft_approximation_upa,
    eigendecompose,
    path_loss,
    temporal_coefficient,
)
from .config import MU_SCHEMES, ExperimentConfig
from .sequence_design import (
    FrameParams,
    IntervalAssignment,
    SequenceMatrix,
    construct_sequence_matrix,
    exhaustive_search,
    min_max_design,
)
from .steady_state import profile as ss_profile

CHUNK_RUNS = 32  # runs per Monte Carlo chunk, the unit of buffering and of the reduction
SLAB = 256  # blocks of innovations and pilot noise drawn per stream at a time
SIM_RANK_TOL = 1e-12  # relative eigenvalue floor of the simulation space
TAIL_FRAMES = 2  # trailing frames averaged into the steady-state summaries

_DESIGNERS = {"min_max": min_max_design, "exhaustive": exhaustive_search}


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
    rank at the user-facing tolerance."""
    a = temporal_coefficient(ring, block_len)
    r_h, axes = build_covariance(array, ring)
    u, lam, _ = eigendecompose(r_h, min(SIM_RANK_TOL, rank_tol))
    r_design = int(np.count_nonzero(lam > rank_tol * lam[0]))
    return ChannelScene(a=a, u_sim=u, lam_sim=lam, r_design=r_design,
                        gamma=path_loss(ring), axes=axes)


@dataclass
class Tracker:
    """Kalman tracker of one user's channel in its eigencoordinates.

    A diag tracker sounds covariance eigenvectors, so its error covariance
    stays diagonal and is carried as per-mode variances; a full tracker
    sounds the columns ``s_u`` and carries the whole matrix; a perfect
    tracker knows the channel and runs no recursion.  The covariance
    recursion over the schedule, ``posteriors`` for a diag tracker and
    ``full_posteriors`` for all of a user's full trackers at once, stores
    the per-block gains that ``sample_step`` applies to a batch of Monte
    Carlo estimates.
    """

    kind: str  # diag | full | perfect
    m_p: int
    lam: np.ndarray  # channel spectrum, the prior error variances
    a: float
    rho: float
    sched: np.ndarray | None = None  # (horizon, m_p) mode/column indices
    s_u: np.ndarray | None = None  # (r, n_cols) training columns in U coords (full)
    gains: np.ndarray | None = None  # (horizon, m_p) diag, (horizon, r, m_p) full

    @cached_property
    def _sqrt_rho(self) -> float:
        return np.sqrt(self.rho)

    @cached_property
    def _aging(self) -> tuple:
        """a^2 and the per-mode innovation variances (1 - a^2) lam of one block."""
        a2 = self.a * self.a
        return a2, (1.0 - a2) * self.lam

    def predict(self, p_bar: np.ndarray) -> np.ndarray:
        """One-block AR(1) prediction of diag posterior error variances."""
        a2, innovation = self._aging
        return a2 * p_bar + innovation

    def _check_schedule(self) -> None:
        n_cols = len(self.lam) if self.kind == "diag" else self.s_u.shape[1]
        if self.sched.size and not 0 <= self.sched.min() <= self.sched.max() < n_cols:
            raise IndexError("schedule index outside the sounding basis")

    def posteriors(self):
        """Covariance recursion of a diag tracker over its schedule: stores
        each block's gains and yields its posterior per-mode error
        variances, a fresh array per block.  Full trackers run through
        ``full_posteriors``."""
        if self.kind != "diag":
            raise ValueError(f"a {self.kind} tracker has no per-mode recursion")
        self._check_schedule()
        p = np.array(self.lam, dtype=float)
        self.gains = gains = np.zeros((len(self.sched), self.m_p))
        sqrt_rho, rho = self._sqrt_rho, self.rho
        for ell, idx in enumerate(self.sched):
            pred = p[idx]
            den = 1.0 + rho * pred
            gains[ell] = sqrt_rho * pred / den
            p[idx] = pred / den
            yield p
            p = self.predict(p)

    def sample_step(self, chat: np.ndarray, c: np.ndarray, noise: np.ndarray, ell: int) -> None:
        """Batched estimate update in place for channels c (runs, r) in
        eigencoordinates: chat (runs, r) holds the estimates after block
        ell - 1 (the zero prior at block 0); they are predicted one block
        ahead and conditioned on block ell's pilots y = S^H h + w, with w =
        noise (runs, m_p), through the gains the covariance recursion stored."""
        if ell:
            chat *= self.a
        sqrt_rho = self._sqrt_rho
        if self.kind == "diag":
            idx = self.sched[ell]
            y = sqrt_rho * c[:, idx] + noise
            chat[:, idx] += self.gains[ell] * (y - sqrt_rho * chat[:, idx])
        else:
            s_conj = (sqrt_rho * self.s_u[:, self.sched[ell]]).conj()
            y = c @ s_conj + noise
            chat += (y - chat @ s_conj) @ self.gains[ell].T


def full_posteriors(trackers) -> tuple:
    """The covariance recursion of one user's full trackers, run as one.

    The trackers share lam, a, rho, m_p and the schedule length, so their
    error covariances advance together as one (S, r, r) stack updated in
    place: per block one batched P S, Gram matrix and LAPACK solve.  The
    gains are stored stacked, (S, horizon, r, m_p), each tracker's
    ``gains`` a view.  Returns every posterior reduced to tr P, the
    self-error term Re tr(P (Lambda - P)) and diag P, stacked (S, horizon),
    (S, horizon) and (S, horizon, r); a single tracker is the S = 1 stack.
    """
    for tracker in trackers:
        tracker._check_schedule()
    first = trackers[0]
    lam, m_p, horizon = first.lam, first.m_p, len(first.sched)
    a2, innovation = first._aging
    n, r = len(trackers), len(lam)
    # every tracker's columns side by side, its schedule offset to its own
    offsets = np.cumsum([0] + [t.s_u.shape[1] for t in trackers[:-1]])
    cols = first._sqrt_rho * np.concatenate([t.s_u for t in trackers], axis=1)
    sched = np.stack([t.sched + off for t, off in zip(trackers, offsets)], axis=1)
    gains = np.empty((n, horizon, r, m_p), dtype=complex)
    for tracker, tracker_gains in zip(trackers, gains):
        tracker.gains = tracker_gains
    err, self_err, diags = np.empty((n, horizon)), np.empty((n, horizon)), np.empty((n, horizon, r))
    p = np.zeros((n, r, r), dtype=complex)
    q, s, sq = np.empty_like(p), np.empty((n, r, m_p), dtype=complex), np.empty((n, r, r))
    d = p.reshape(n, r * r)[:, :: r + 1]  # a writable view of every diagonal
    d += lam
    eye = np.eye(m_p)
    # each slice keeps the memory layout of the one-plan arithmetic, so the
    # stack makes the same BLAS, LAPACK and summation calls bit for bit
    for ell, idx in enumerate(sched):
        s[...] = cols[:, idx].transpose(1, 0, 2)
        ps = p @ s
        ps_h = ps.conj().swapaxes(1, 2)
        gram = s.conj().swapaxes(1, 2) @ ps
        gram += eye
        k = np.linalg.solve(gram.conj().swapaxes(1, 2), ps_h).conj().swapaxes(1, 2)
        p -= k @ ps_h
        np.conjugate(p.swapaxes(1, 2), out=q)
        q += p
        np.multiply(q, 0.5, out=p)
        gains[:, ell] = k
        err[:, ell] = d.sum(axis=-1).real
        np.square(np.abs(p, out=sq), out=sq)
        self_err[:, ell] = (np.sum(d * lam, axis=-1) - sq.sum(axis=(1, 2))).real
        diags[:, ell] = d.real
        p *= a2
        d += innovation
    return err, self_err, diags


@dataclass(kw_only=True)
class SchemePlan(Tracker):
    """One scheme's tracker plus its design and NMSE trace."""

    name: str
    nmse: np.ndarray | None = None  # (horizon,) NMSE trace
    design: IntervalAssignment | None = None  # periodic eigenmode design the bound reads
    seq: SequenceMatrix | None = None


def _horizon_schedule(cycle: np.ndarray, horizon: int) -> np.ndarray:
    reps = -(-horizon // cycle.shape[0])
    return np.tile(cycle, (reps, 1))[:horizon]


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


def build_single_user_plans(
    scene: ChannelScene,
    frame: FrameParams,
    horizon: int,
    schemes,
    rng_scene: np.random.Generator,
) -> list[SchemePlan]:
    """Instantiate and precompute every requested scheme.

    schemes: iterable of names among min_max, exhaustive, min_max_dft,
    exhaustive_dft, mp_fixed, nd_fixed, orthogonal, random, perfect_csit.
    """
    return [plan for plan, *_ in _user_plans(scene, frame, horizon, schemes, rng_scene)]


def _user_plans(scene, frame, horizon, names, rng_scene):
    """Every named scheme's plan for one user and its covariance recursion.

    The plans are built first, in order, so ``random`` draws its columns
    from ``rng_scene`` in scheme order; then each diag plan runs its own
    recursion and the full plans run one ``full_posteriors`` stack.  Yields
    per plan, in order, the plan with its NMSE trace and its posteriors
    reduced per block to tr P, the self-error term Re tr(P (Lambda - P))
    and diag P, (horizon,), (horizon,) and (horizon, r).
    """
    lam = scene.lam_sim
    plans = [_scheme_plan(scene, frame, horizon, name, rng_scene) for name in names]
    full = [plan for plan in plans if plan.kind == "full"]
    stacked = zip(*full_posteriors(full)) if full else None
    for plan in plans:
        if plan.kind == "full":
            err, self_err, diag = next(stacked)
        else:
            diag = np.zeros((horizon, len(lam)))
            if plan.kind == "diag":
                for ell, p in enumerate(plan.posteriors()):
                    diag[ell] = p
            err, self_err = mu.error_terms(lam, diag, diag)
        plan.nmse = err / float(lam.sum())
        yield plan, err, self_err, diag


def _scheme_plan(scene, frame, horizon, name, rng_scene) -> SchemePlan:
    """One scheme's plan for one user, before its covariance recursion."""
    lam = scene.lam_sim
    a, rho, m_p = scene.a, frame.rho, frame.m_p
    n_t = scene.u_sim.shape[0]
    kind, s_u, cycle, design, seq = "diag", None, None, None, None
    if name.removesuffix("_dft") in _DESIGNERS:
        design, seq, cols = design_scheme(scene, frame, name)
        cycle = seq.c - 1
        if cols is not None:  # the hybrid tracker keeps the true covariance knowledge
            kind, s_u, design = "full", scene.u_sim.conj().T @ cols, None
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
        kind, s_u = "full", scene.u_sim.conj().T @ cols
        cycle = _round_robin_cycle(n_t, m_p)
    elif name == "perfect_csit":
        kind = "perfect"
    else:
        raise ValueError(f"unknown scheme {name!r}")
    return SchemePlan(kind=kind, m_p=m_p, lam=lam, a=a, rho=rho, name=name, s_u=s_u,
                      sched=None if cycle is None else _horizon_schedule(cycle, horizon),
                      design=design, seq=seq)


def design_scheme(scene: ChannelScene, frame: FrameParams, name: str):
    """Design step of a designed scheme for one user.

    ``name`` is a designer (``min_max``, ``exhaustive``), sounding the
    scene's design-grade covariance eigenvectors, or its hybrid variant
    (suffix ``_dft``), whose sounding directions are restricted to the DFT
    surrogate basis (the analog pre-beamformer) and whose sequence is
    designed on the DFT-projected spectrum.  Returns the interval
    assignment, its index matrix, and the n_t x r_design sounding columns
    of the hybrid variant (None for the eigen variant).
    """
    designer = name.removesuffix("_dft")
    if name == designer:
        lam, cols = scene.lam_sim[: scene.r_design], None
    else:
        basis = dft_approximation_upa(*scene.axes, scene.r_design)
        lam, cols = basis.lambda_tilde, basis.f_tilde
    design = _DESIGNERS[designer](lam, scene.a, frame.rho, frame)
    return design, construct_sequence_matrix(design, frame), cols


# -- Monte Carlo ----------------------------------------------------------


def _complex_rows(gen, shape):
    return gen.standard_normal(shape + (2,)).view(complex)[..., 0] / np.sqrt(2.0)


def _realized_sinr(c, hats, rho, cross):
    """Worst-case-noise matched-filter SINR of every scheme and user over a
    batch: channels c (U, runs, r) and estimates hats (S, U, runs, r) in
    each user's eigencoordinates, zero-padded to the largest rank r, and
    cross[u, v] = U_u^H U_v into user u's coordinates.  Returns (S, U, runs).
    """
    n_schemes, n_users, n_runs, _ = hats.shape
    nrm2 = np.einsum("...ij,...ij->...i", hats.conj(), hats).real
    self_dot = np.einsum("...ij,...ij->...i", c.conj(), hats)
    u_idx, v_idx = np.nonzero(~np.eye(n_users, dtype=bool))  # u-major, so v ascends per u
    mixed = hats[:, v_idx] @ cross[u_idx, v_idx].swapaxes(-1, -2)
    dot_uv = np.einsum("...ij,...ij->...i", c[u_idx].conj(), mixed)
    with np.errstate(divide="ignore", invalid="ignore"):  # rho = 0 gives sigma = inf
        sigma = n_users * nrm2 / rho + np.abs(self_dot - nrm2) ** 2
        ratio = np.where(nrm2[:, v_idx] > 0, nrm2[:, u_idx] / nrm2[:, v_idx], 0.0)
        interference = (ratio * np.abs(dot_uv) ** 2).reshape(n_schemes, n_users, -1, n_runs)
        for k in range(n_users - 1):
            sigma += interference[:, :, k]
        return np.where(nrm2 > 0, nrm2 ** 2 / sigma, 0.0)


def _chunk(seed_seqs, plans, horizon, frame, cross):
    """Simulate one chunk of runs through every scheme for every user, where
    plans[s][u] is user u's tracker of scheme s and carries the user's
    channel spectrum and AR(1) coefficient.  Returns the (2, S, horizon, U)
    partial sums of the realized SINR and the spectral efficiency.

    The channel innovations and pilot noise are drawn a slab of at most SLAB
    blocks at a time into buffers reused across slabs; each stream fills
    sequentially, so the values equal one whole-horizon draw.
    """
    n_runs, n_schemes, n_users, r_max = len(seed_seqs), len(plans), len(cross), cross.shape[-1]
    a = np.array([p.a for p in plans[0]])[:, None, None]
    evolve = np.sqrt(1.0 - a * a)
    scale = [np.sqrt(p.lam) for p in plans[0]]
    slab = min(SLAB, horizon)
    c = np.zeros((n_users, n_runs, r_max), dtype=complex)
    proc = np.zeros((n_users, n_runs, slab, r_max), dtype=complex)
    noise = np.empty((n_schemes, n_users, n_runs, slab, frame.m_p), dtype=complex)
    fills = []  # (generator, the slab rows it fills, per-mode scale or None) per stream
    for i, seq in enumerate(seed_seqs):
        # channel streams first, then one per (scheme, user); perfect
        # knowledge consumes its stream without drawing from it
        streams = seq.spawn(n_users * (1 + n_schemes))
        for u, sd in enumerate(scale):
            gen = np.random.default_rng(streams[u])
            c[u, i, :len(sd)] = _complex_rows(gen, (1, len(sd)))[0] * sd
            fills.append((gen, proc[u, i, :, :len(sd)], sd))
        for pos, (s, u) in enumerate(np.ndindex(n_schemes, n_users), start=n_users):
            if plans[s][u].kind != "perfect":
                fills.append((np.random.default_rng(streams[pos]), noise[s, u, i], None))

    hats = np.zeros((n_schemes, n_users, n_runs, r_max), dtype=complex)
    perfect = np.array([row[0].kind == "perfect" for row in plans])
    steps = [(p, hats[s, u, :, :len(p.lam)], c[u, :, :len(p.lam)], noise[s, u])
             for s, row in enumerate(plans) for u, p in enumerate(row) if not perfect[s]]
    sums = np.zeros((2, n_schemes, horizon, n_users))
    for start in range(0, horizon, slab):
        blocks = min(slab, horizon - start)
        for gen, rows, sd in fills:
            z = _complex_rows(gen, (blocks, rows.shape[-1]))
            rows[:blocks] = z if sd is None else z * sd
        for k, ell in enumerate(range(start, start + blocks)):
            for plan, chat, chan, pilots in steps:
                plan.sample_step(chat, chan, pilots[:, k, :], ell)
            hats[perfect] = c
            sinr = _realized_sinr(c, hats, frame.rho, cross)
            sums[0, :, ell] += sinr.sum(axis=-1)
            sums[1, :, ell] += mu.spectral_efficiency(sinr, n_users, frame.m_p, frame.m).sum(axis=-1)
            c *= a
            c += evolve * proc[:, :, k]
    return sums


def _monte_carlo(plans, seed, mc_runs, horizon, frame, cross):
    """Monte Carlo means of the realized SINR and the spectral efficiency,
    (2, S, horizon, U), from run streams spawned off ``seed``."""
    run_seqs = np.random.SeedSequence(seed).spawn(2)[1].spawn(mc_runs)
    means = np.zeros((2, len(plans), horizon, len(cross)))
    for i in range(0, mc_runs, CHUNK_RUNS):  # in run order, one chunk's buffers at a time
        means += _chunk(run_seqs[i:i + CHUNK_RUNS], plans, horizon, frame, cross)
    return means / mc_runs


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
    user_plans: list  # per user, {scheme: SchemePlan}

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


def _steady_state(scene_mu, plans, rho):
    """Per-user steady-state bound (at the envelopes of every user's periodic
    design) and converged deterministic SINR (at the post-training floor,
    zero under perfect knowledge) of one scheme, nan where undefined."""
    nan = np.full(len(plans), np.nan)
    if plans[0].kind == "perfect":
        lowers = uppers = [np.zeros(len(p.lam)) for p in plans]
    elif all(p.design is not None for p in plans):
        profiles = [ss_profile(p.lam, p.a, p.rho, p.design.g_padded(len(p.lam))) for p in plans]
        lowers, uppers = [p.lambda_lower for p in profiles], [p.lambda_upper for p in profiles]
    else:
        return nan, nan
    states = [np.stack([lower, upper]) for lower, upper in zip(lowers, uppers)]
    det_ss, lb = mu.sinr_equivalent(*mu.sinr_inputs(scene_mu, states, lowers), rho)
    return (nan if plans[0].kind == "perfect" else lb), det_ss


def run_multiuser_scene(
    scenes: list,
    frame: FrameParams,
    schemes,
    mc_runs: int,
    seed: int,
    horizon: int,
    threads: int = 1,
) -> MultiuserTable:
    """Downlink run: per-user sounding over non-overlapping slots,
    matched-filter data transmission, worst-case-noise SINR.

    Returns every scheme's deterministic traces, steady-state summaries and
    Monte Carlo averages.  A single-user run is the one-user case; with more
    users only the MU_SCHEMES are available.  ``threads`` has no effect; it
    stays for perfbench's call sites.
    """
    n_users = len(scenes)
    scene_mu = mu.MultiuserScene(
        users=[mu.UserLink(stats=ChannelStatistics(
            a=s.a, r_h=s.covariance, u=s.u_sim,
            lam=s.lam_sim, rank=s.r_sim)) for s in scenes],
        rho=frame.rho, m=frame.m, m_p=frame.m_p,
    )
    unavailable = [name for name in schemes if name not in MU_SCHEMES]
    if n_users > 1 and unavailable:
        raise ValueError(f"schemes {unavailable} are not available in the multiuser "
                         f"path; choose among {MU_SCHEMES}")
    rng_scene = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])

    # per scheme, block and user: tr P, the self-error term and the leakage
    # into every user, each user's diag P reduced as soon as it is produced
    err, self_err = np.empty((2, len(schemes), horizon, n_users))
    leak = np.empty((len(schemes), horizon, n_users, n_users))
    by_user = []  # by_user[u][s] is user u's plan of scheme s
    for v, scene in enumerate(scenes):
        by_user.append([])
        for s, (plan, err_s, self_err_s, diag) in enumerate(
                _user_plans(scene, frame, horizon, schemes, rng_scene)):
            by_user[v].append(plan)
            err[s, :, v], self_err[s, :, v] = err_s, self_err_s
            leak[s, :, v] = mu.user_leakage(scene_mu, v, diag)
    by_scheme = list(zip(*by_user))
    nmse, sinr_det, sinr_lb, sinr_det_ss = {}, {}, {}, {}
    for s, (name, plans) in enumerate(zip(schemes, by_scheme)):
        nmse[name] = np.mean([p.nmse for p in plans], axis=0)
        sinr_det[name] = mu.sinr_equivalent(np.array([p.lam.sum() for p in plans]),
                                            err[s], self_err[s], leak[s], frame.rho)
        sinr_lb[name], sinr_det_ss[name] = _steady_state(scene_mu, plans, frame.rho)

    sinr_mc, se_mc_runs = (dict(zip(schemes, mean)) for mean in _monte_carlo(
        by_scheme, seed, mc_runs, horizon, frame, scene_mu.cross))

    return MultiuserTable(
        schemes=list(schemes), horizon=horizon, frame=frame, n_users=n_users,
        nmse=nmse, sinr_mc=sinr_mc, se_mc_runs=se_mc_runs, sinr_det=sinr_det,
        sinr_lb=sinr_lb, sinr_det_ss=sinr_det_ss,
        user_plans=[dict(zip(schemes, plans)) for plans in by_user],
    )


def multiuser_scenes_from_config(config: ExperimentConfig):
    """Per-user channel scenes and horizontal angles (degrees) of a
    configuration: the explicit ``users.theta_deg`` when given, else a lone
    user at ``ring.theta_h_deg`` and several users placed uniformly in the
    sector (-60, 60) from the seed."""
    n_users = config.users.count
    if config.users.theta_deg is not None:
        thetas = [float(t) for t in config.users.theta_deg]
    elif n_users == 1:
        thetas = [float(config.ring.theta_h_deg)]
    else:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            config.seed).spawn(2)[0]))
        thetas = np.degrees(rng.uniform(-np.pi / 3, np.pi / 3, size=n_users)).tolist()
    array = config.array.build()
    return [
        build_scene(array, config.ring.build(theta_h_deg=t), config.frame.m,
                    config.rank_tol)
        for t in thetas
    ], thetas


def run_multiuser(config: ExperimentConfig):
    """The experiment of a configuration document, for any number of users.

    The operating points are the configured ``rho`` when ``snr_sweep_db``
    is unset, else one per swept SNR (SNR = gamma * rho).  Returns (table,
    sweep_rows): the per-block table at the last operating point and the
    per-(SNR, scheme, user) steady-state summaries of every point.
    """
    scenes, _ = multiuser_scenes_from_config(config)
    gamma = scenes[0].gamma
    frame = config.frame.build()
    if config.snr_sweep_db:
        points = [(snr_db, dataclasses.replace(frame, rho=10.0 ** (snr_db / 10.0) / gamma))
                  for snr_db in config.snr_sweep_db]
    else:
        with np.errstate(divide="ignore"):
            points = [(10.0 * np.log10(gamma * frame.rho), frame)]
    rows = []
    for snr_db, frame in points:
        table = run_multiuser_scene(scenes, frame, config.schemes, config.mc_runs,
                                    config.seed, config.horizon_blocks)
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
    return table, rows
