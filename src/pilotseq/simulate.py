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
when the plan is built, and yields the deterministic traces plus the
per-block gains; its batched sample step is the only estimate update the
Monte Carlo kernel makes.  A single-user experiment is the one-user case
of the multiuser kernel.

Determinism: every Monte Carlo run owns spawned RNG streams (one per user
channel, then one per scheme and user), runs are processed in fixed-size
chunks, and chunk partial sums are reduced in run-index order, so results
are byte-identical for any thread count.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import multiuser as mu
from .channel_model import (
    ArrayGeometry,
    ChannelStatistics,
    OneRingGeometry,
    _dft_matrix,
    build_covariance,
    dft_approximation,
    dft_approximation_upa,
    eigendecompose,
    path_loss,
    temporal_coefficient,
)
from .config import ExperimentConfig
from .sequence_design import (
    FrameParams,
    IntervalAssignment,
    SequenceMatrix,
    construct_sequence_matrix,
    exhaustive_search,
    min_max_design,
)
from .steady_state import profile as ss_profile

CHUNK_RUNS = 32  # fixed Monte Carlo chunk size; independent of thread count

_DESIGNERS = {"min_max": min_max_design, "exhaustive": exhaustive_search}


@dataclass
class ChannelScene:
    """Simulation-ready channel description for one user."""

    a: float
    u_sim: np.ndarray  # n_t x r_sim eigenvectors (loose truncation)
    lam_sim: np.ndarray  # r_sim, descending
    r_design: int  # modes above the design-grade rank threshold
    gamma: float
    axes: tuple | None  # per-axis covariances for a planar array

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
    sim_rank_tol: float = 1e-12,
) -> ChannelScene:
    """Eigensystem at a loose tolerance (simulation space) plus the design
    rank at the user-facing tolerance."""
    a = temporal_coefficient(ring, block_len)
    r_h, axes = build_covariance(array, ring)
    u, lam, _ = eigendecompose(r_h, min(sim_rank_tol, rank_tol))
    r_design = int(np.count_nonzero(lam > rank_tol * lam[0]))
    return ChannelScene(a=a, u_sim=u, lam_sim=lam, r_design=r_design,
                        gamma=path_loss(ring), axes=axes)


@dataclass
class Tracker:
    """Kalman tracker of one user's channel in its eigencoordinates.

    A diag tracker sounds covariance eigenvectors, so its error covariance
    stays diagonal and is carried as per-mode variances; a full tracker
    sounds the columns ``s_u`` and carries the whole matrix; a perfect
    tracker knows the channel and runs no recursion.  ``posteriors`` runs
    the covariance recursion over the schedule and stores the per-block
    gains that ``sample_step`` applies to a batch of Monte Carlo estimates.
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
    def _channel_cov(self) -> np.ndarray:
        """Channel covariance in the shape of the error covariance."""
        return np.diag(self.lam) if self.kind == "full" else self.lam

    def predict(self, p_bar: np.ndarray) -> np.ndarray:
        """One-block AR(1) prediction of a posterior error covariance."""
        a2 = self.a * self.a
        return a2 * p_bar + (1.0 - a2) * self._channel_cov

    def posteriors(self):
        """Covariance recursion over the schedule: stores each block's gains
        and yields its posterior error covariance (per-mode variances for
        diag, the matrix for full)."""
        n_cols = len(self.lam) if self.kind == "diag" else self.s_u.shape[1]
        if self.sched.size and not 0 <= self.sched.min() <= self.sched.max() < n_cols:
            raise IndexError("schedule index outside the sounding basis")
        sqrt_rho = self._sqrt_rho
        horizon = len(self.sched)
        if self.kind == "diag":
            p = np.asarray(self.lam, dtype=float)
            self.gains = np.zeros((horizon, self.m_p))
            for ell, idx in enumerate(self.sched):
                pred = p[idx]
                self.gains[ell] = sqrt_rho * pred / (1.0 + self.rho * pred)
                p = p.copy()
                p[idx] = pred / (1.0 + self.rho * pred)
                yield p
                p = self.predict(p)
        else:
            p = np.diag(self.lam).astype(complex)
            self.gains = np.zeros((horizon, len(self.lam), self.m_p), dtype=complex)
            for ell, idx in enumerate(self.sched):
                s = sqrt_rho * self.s_u[:, idx]
                ps = p @ s
                gram = s.conj().T @ ps + np.eye(self.m_p)
                k = np.linalg.solve(gram.conj().T, ps.conj().T).conj().T
                p = p - k @ ps.conj().T
                p = 0.5 * (p + p.conj().T)
                self.gains[ell] = k
                yield p
                p = self.predict(p)

    def sample_step(self, chat: np.ndarray, c: np.ndarray, noise: np.ndarray, ell: int) -> None:
        """Batched estimate update in place for channels c (runs, r) in
        eigencoordinates: chat (runs, r) holds the estimates after block
        ell - 1 (the zero prior at block 0); they are predicted one block
        ahead and conditioned on block ell's pilots y = S^H h + w, with w =
        noise (runs, m_p), through the gains ``posteriors`` stored."""
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


@dataclass(kw_only=True)
class SchemePlan(Tracker):
    """One scheme's tracker plus its design and deterministic traces."""

    name: str
    nmse: np.ndarray | None = None  # (horizon,) NMSE trace
    det_sinr: np.ndarray | None = None  # (horizon,) deterministic equivalent
    lb_sinr: float | None = None  # steady-state lower bound
    posterior: np.ndarray | None = None  # (horizon, r) posterior variances; multiuser only
    assignment: IntervalAssignment | None = None
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


def _deterministic_traces(plan: SchemePlan, horizon: int, keep_posterior: bool) -> None:
    """Run the plan's covariance recursion once: NMSE and single-user
    deterministic SINR per block, plus the posterior trajectory when kept."""
    lam, rho = plan.lam, plan.rho
    total = float(lam.sum())
    if plan.kind == "perfect":
        plan.nmse = np.zeros(horizon)
        plan.det_sinr = np.full(horizon, rho * total)
        if keep_posterior:
            plan.posterior = np.zeros((horizon, len(lam)))
        return
    nmse = plan.nmse = np.zeros(horizon)
    det = plan.det_sinr = np.zeros(horizon)
    diag = plan.kind == "diag"
    kept = []
    for ell, p in enumerate(plan.posteriors()):
        if diag:
            err = float(p.sum())
            b = float(np.sum(p * (lam - p)))
        else:
            err = float(np.real(np.trace(p)))
            b = float(np.real(np.sum(np.diag(p) * lam) - np.sum(np.abs(p) ** 2)))
        cap = total - err
        nmse[ell] = err / total
        det[ell] = cap * cap / (cap / rho + max(b, 0.0)) if cap > 0 else 0.0
        if keep_posterior:
            kept.append(p)
    if keep_posterior:
        plan.posterior = np.array(kept)


def _single_user_lb(lam_sim, g_padded, a, rho) -> float:
    prof = ss_profile(lam_sim, a, rho, g_padded)
    cap = prof.lam - prof.lambda_upper
    s_min = float(cap.sum())
    if s_min <= 0:
        return 0.0
    b_max = float(np.sum(prof.lambda_upper * (prof.lam - prof.lambda_lower)))
    return s_min * s_min / (s_min / rho + b_max)


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
    return _build_plans(scene, frame, horizon, schemes, rng_scene, keep_posterior=False)


def _build_plans(scene, frame, horizon, schemes, rng_scene, keep_posterior):
    lam = scene.lam_sim
    a, rho, m_p = scene.a, frame.rho, frame.m_p
    n_t = scene.u_sim.shape[0]
    plans = []
    for name in schemes:
        kind, s_u, cycle, asn, seq, lb_asn = "diag", None, None, None, None, None
        if name in ("min_max", "exhaustive"):
            asn = lb_asn = _DESIGNERS[name](lam[: scene.r_design], a, rho, frame)
            seq = construct_sequence_matrix(asn, frame)
            cycle = seq.c - 1
        elif name in ("min_max_dft", "exhaustive_dft"):
            # hybrid variant: sounding directions are restricted to the DFT
            # surrogate basis (the analog pre-beamformer), the sequence is
            # designed on the DFT-projected spectrum, and the tracker keeps
            # the true covariance knowledge
            basis = _scene_dft_basis(scene)
            asn = _DESIGNERS[name.replace("_dft", "")](basis.lambda_tilde, a, rho, frame)
            seq = construct_sequence_matrix(asn, frame)
            kind, s_u, cycle = "full", scene.u_sim.conj().T @ basis.f_tilde, seq.c - 1
        elif name == "mp_fixed":
            cycle = np.arange(m_p)[None, :]
            lb_asn = IntervalAssignment(g=(1,) * m_p, n_d=m_p, objective=0.0)
        elif name == "nd_fixed":
            n_sel = min(frame.n_d_max, scene.r_sim)
            cycle = _round_robin_cycle(n_sel, m_p)
            if n_sel == frame.g_len * m_p:
                lb_asn = IntervalAssignment(g=(frame.g_len,) * n_sel, n_d=n_sel,
                                            objective=0.0)
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
        plan = SchemePlan(kind=kind, m_p=m_p, lam=lam, a=a, rho=rho, name=name, s_u=s_u,
                          sched=None if cycle is None else _horizon_schedule(cycle, horizon),
                          assignment=asn, seq=seq)
        _deterministic_traces(plan, horizon, keep_posterior)
        if lb_asn is not None:
            plan.lb_sinr = _single_user_lb(lam, lb_asn.g_padded(scene.r_sim), a, rho)
        plans.append(plan)
    return plans


def _scene_dft_basis(scene: ChannelScene):
    r_target = scene.r_design
    if scene.axes is None:
        return dft_approximation(scene.covariance, r_target)
    return dft_approximation_upa(scene.axes[0], scene.axes[1], r_target)


# -- Monte Carlo ----------------------------------------------------------


def _complex_rows(gen, shape):
    z = gen.standard_normal(shape + (2,))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def _realized_sinr(c, hats, rho, cross):
    """Worst-case-noise matched-filter SINR of every user over a batch.

    c[u] and hats[u] (runs, r_u) are user u's channels and estimates in its
    eigencoordinates, and cross(u, v) = U_u^H U_v maps user v's coordinates
    into user u's.  Returns one (runs,) array per user.
    """
    n_users = len(c)
    nrm2 = [np.einsum("ij,ij->i", h.conj(), h).real for h in hats]
    out = []
    for u in range(n_users):
        self_dot = np.einsum("ij,ij->i", c[u].conj(), hats[u])
        sigma = n_users * nrm2[u] / rho + np.abs(self_dot - nrm2[u]) ** 2
        for v in range(n_users):
            if v == u:
                continue
            mixed = hats[v] @ cross(u, v).T  # into user u coordinates
            dot_uv = np.einsum("ij,ij->i", c[u].conj(), mixed)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(nrm2[v] > 0, nrm2[u] / nrm2[v], 0.0)
            sigma += ratio * np.abs(dot_uv) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(np.where(nrm2[u] > 0, nrm2[u] ** 2 / sigma, 0.0))
    return out


def _chunk(seed_seqs, channels, plans, horizon, rho, prelog, cross):
    """Simulate one chunk of runs through every scheme for every user.

    channels[u] = (lam, a) describes user u's channel and plans[name][u] is
    user u's plan of a scheme.  Returns per-scheme (horizon, U) partial
    sums of the realized SINR and spectral efficiency.
    """
    n_runs = len(seed_seqs)
    n_users = len(channels)
    evolve = [np.sqrt(1.0 - a * a) for _, a in channels]

    c_ch = [np.empty((n_runs, len(lam)), dtype=complex) for lam, _ in channels]
    proc = [np.empty((n_runs, horizon, len(lam)), dtype=complex) for lam, _ in channels]
    meas = {name: [None if p.kind == "perfect"
                   else np.empty((n_runs, horizon, p.m_p), dtype=complex) for p in per_user]
            for name, per_user in plans.items()}
    for i, seq in enumerate(seed_seqs):
        streams = seq.spawn(n_users * (1 + len(plans)))
        for u, (lam, _) in enumerate(channels):
            gen = np.random.Generator(np.random.PCG64(streams[u]))
            z = _complex_rows(gen, (horizon + 1, len(lam)))
            c_ch[u][i] = z[0] * np.sqrt(lam)
            proc[u][i] = z[1:] * np.sqrt(lam)
        pos = n_users
        for name, per_user in plans.items():
            for u, plan in enumerate(per_user):
                if plan.kind != "perfect":
                    gen = np.random.Generator(np.random.PCG64(streams[pos]))
                    meas[name][u][i] = _complex_rows(gen, (horizon, plan.m_p))
                pos += 1

    sinr_sum = {name: np.zeros((horizon, n_users)) for name in plans}
    se_sum = {name: np.zeros((horizon, n_users)) for name in plans}
    # estimates and channels are updated in place, so each scheme's list of
    # per-user estimates (the channel itself under perfect knowledge) is
    # built once
    schemes = []
    for name, per_user in plans.items():
        chats = [None if p.kind == "perfect" else np.zeros((n_runs, len(p.lam)), dtype=complex)
                 for p in per_user]
        hats = [c_ch[u] if chat is None else chat for u, chat in enumerate(chats)]
        schemes.append((name, list(zip(per_user, chats, meas[name])), hats))

    for ell in range(horizon):
        for name, links, hats in schemes:
            for u, (plan, chat, noise) in enumerate(links):
                if chat is not None:
                    plan.sample_step(chat, c_ch[u], noise[:, ell, :], ell)
            sinr_acc, se_acc = sinr_sum[name][ell], se_sum[name][ell]
            for u, sinr in enumerate(_realized_sinr(c_ch, hats, rho, cross)):
                sinr_acc[u] += sinr.sum()
                se_acc[u] += (prelog * np.log2(1.0 + sinr)).sum()
        for u, (_, a) in enumerate(channels):
            c_ch[u] *= a
            c_ch[u] += evolve[u] * proc[u][:, ell, :]
    return sinr_sum, se_sum


def _monte_carlo(channels, plans, seed, mc_runs, horizon, rho, prelog, threads, cross=None):
    """Monte Carlo means of the realized SINR and spectral efficiency, per
    scheme as (horizon, U) arrays, from run streams spawned off ``seed``."""
    run_seqs = np.random.SeedSequence(seed).spawn(2)[1].spawn(mc_runs)
    chunks = [run_seqs[i:i + CHUNK_RUNS] for i in range(0, mc_runs, CHUNK_RUNS)]

    def work(chunk):
        return _chunk(chunk, channels, plans, horizon, rho, prelog, cross)

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, chunks))
    else:
        results = [work(chunk) for chunk in chunks]

    sinr_mc = {name: np.zeros((horizon, len(channels))) for name in plans}
    se_mc = {name: np.zeros((horizon, len(channels))) for name in plans}
    for sinr_part, se_part in results:
        for name in plans:
            sinr_mc[name] += sinr_part[name]
            se_mc[name] += se_part[name]
    for name in plans:
        sinr_mc[name] /= mc_runs
        se_mc[name] /= mc_runs
    return sinr_mc, se_mc


@dataclass
class TraceTable:
    """Per-block metrics for every scheme of one experiment."""

    schemes: list
    horizon: int
    frame: FrameParams
    nmse: dict
    se_mc: dict
    se_det: dict
    se_lb: dict
    sinr_mc: dict = field(default_factory=dict)
    det_sinr: dict = field(default_factory=dict)
    plans: list = field(default_factory=list)

    def steady_state(self, key: str, scheme: str, frames: int = 2) -> float:
        tail = self.frame.g_len * frames
        return float(np.mean(getattr(self, key)[scheme][-tail:]))


def run_schemes(
    scene: ChannelScene,
    frame: FrameParams,
    schemes,
    mc_runs: int,
    seed: int,
    horizon: int,
    threads: int = 1,
) -> TraceTable:
    """Deterministic traces plus Monte Carlo averages for a scheme list."""
    scene_ss = np.random.SeedSequence(seed).spawn(2)[0]
    rng_scene = np.random.Generator(np.random.PCG64(scene_ss))
    plans = build_single_user_plans(scene, frame, horizon, schemes, rng_scene)

    prelog = 1.0 - frame.m_p / frame.m
    sinr_mc, se_mc = _monte_carlo([(scene.lam_sim, scene.a)], {p.name: [p] for p in plans},
                                  seed, mc_runs, horizon, frame.rho, prelog, threads)
    return TraceTable(
        schemes=[p.name for p in plans],
        horizon=horizon,
        frame=frame,
        nmse={p.name: p.nmse for p in plans},
        se_mc={name: vals[:, 0] for name, vals in se_mc.items()},
        se_det={p.name: prelog * np.log2(1.0 + p.det_sinr) for p in plans},
        se_lb={p.name: (None if p.lb_sinr is None else prelog * np.log2(1.0 + p.lb_sinr))
               for p in plans},
        sinr_mc={name: vals[:, 0] for name, vals in sinr_mc.items()},
        det_sinr={p.name: p.det_sinr for p in plans},
        plans=plans,
    )


def run_single_user(config: ExperimentConfig) -> TraceTable:
    """Full single-user experiment from a configuration document."""
    scene = build_scene(config.array.build(), config.ring.build(),
                        config.frame.m, config.rank_tol)
    frame = config.frame.build()
    schemes = [config.designer if config.basis == "eigen" else config.designer + "_dft"]
    schemes += [b for b in config.baselines if b not in schemes]
    return run_schemes(scene, frame, schemes, config.mc_runs, config.seed,
                       config.horizon_blocks, config.threads)


# -- multiuser ------------------------------------------------------------

MU_SCHEMES = ("min_max", "exhaustive", "mp_fixed", "nd_fixed", "perfect_csit")


@dataclass
class MultiuserTable:
    """Per-block multiuser traces plus per-user steady-state summaries."""

    schemes: list
    horizon: int
    frame: FrameParams
    n_users: int
    nmse: dict  # mean NMSE over users, per block
    sinr_mc: dict  # (horizon, U) Monte Carlo mean SINR
    sinr_det: dict  # (horizon, U) deterministic equivalents
    se_mc_runs: dict  # (horizon, U) Monte Carlo mean spectral efficiency
    se_user_lb: dict  # (U,) steady-state lower bounds (nan if undefined)
    prelog: float = 0.0
    sinr_det_ss: dict = field(default_factory=dict)  # (U,) converged deterministic SINR
    user_plans: list = field(default_factory=list)  # per user, {scheme: SchemePlan}

    def se_mc(self, scheme):
        return self.se_mc_runs[scheme]

    def se_det(self, scheme):
        return self.prelog * np.log2(1.0 + self.sinr_det[scheme])

    def se_lb(self, scheme):
        return self.prelog * np.log2(1.0 + self.se_user_lb[scheme])

    def se_det_ss(self, scheme):
        """Spectral efficiency at the converged (steady-state) deterministic
        SINR; nan for schemes without a closed-form steady state."""
        return self.prelog * np.log2(1.0 + self.sinr_det_ss[scheme])


def run_multiuser_scene(
    scenes: list,
    frame: FrameParams,
    schemes,
    mc_runs: int,
    seed: int,
    horizon: int,
    threads: int = 1,
) -> MultiuserTable:
    """Multiuser downlink: per-user designed sounding over non-overlapping
    slots, matched-filter data transmission, worst-case-noise SINR."""
    n_users = len(scenes)
    if n_users * frame.m_p >= frame.m:
        raise ValueError("U * M_p must stay below the block length M")
    for name in schemes:
        if name not in MU_SCHEMES:
            raise ValueError(
                f"scheme {name!r} is not available in the multiuser path; "
                f"choose among {MU_SCHEMES}"
            )
    rng_dummy = np.random.Generator(np.random.PCG64(0))  # diag schemes draw nothing
    users = [{p.name: p for p in _build_plans(s, frame, horizon, schemes, rng_dummy,
                                               keep_posterior=True)}
             for s in scenes]
    scene_mu = mu.MultiuserScene(
        users=[mu.UserLink(stats=ChannelStatistics(
            a=s.a, r_h=s.covariance, u=s.u_sim,
            lam=s.lam_sim, rank=s.r_sim)) for s in scenes],
        rho=frame.rho, m=frame.m, m_p=frame.m_p,
    )

    # deterministic traces
    prelog = 1.0 - n_users * frame.m_p / frame.m
    sinr_det = {name: np.zeros((horizon, n_users)) for name in schemes}
    nmse = {}
    for name in schemes:
        posts = [users[u][name].posterior for u in range(n_users)]
        for ell in range(horizon):
            bars = [p[ell] for p in posts]
            for u in range(n_users):
                sinr_det[name][ell, u] = mu.deterministic_sinr(scene_mu, bars, u)
        nmse[name] = np.mean([users[u][name].nmse for u in range(n_users)], axis=0)

    # steady-state quantities: the Appendix-style bound plus the converged
    # deterministic SINR evaluated at the post-training envelope state
    se_user_lb = {}
    sinr_det_ss = {}
    for name in schemes:
        lbs = np.full(n_users, np.nan)
        det_ss = np.full(n_users, np.nan)
        if name == "perfect_csit":
            bars = [np.zeros(scenes[u].r_sim) for u in range(n_users)]
            for u in range(n_users):
                det_ss[u] = mu.deterministic_sinr(scene_mu, bars, u)
        elif all(users[u][name].assignment is not None for u in range(n_users)):
            profiles = [
                ss_profile(scenes[u].lam_sim, scenes[u].a, frame.rho,
                           users[u][name].assignment.g_padded(scenes[u].r_sim))
                for u in range(n_users)
            ]
            bars = [p.lambda_lower for p in profiles]
            for u in range(n_users):
                lbs[u] = mu.steady_state_sinr_lower_bound(scene_mu, profiles, u)
                det_ss[u] = mu.deterministic_sinr(scene_mu, bars, u)
        se_user_lb[name] = lbs
        sinr_det_ss[name] = det_ss

    # the deterministic SINRs above filled the cross-product cache, so the
    # Monte Carlo threads only read it
    sinr_mc, se_mc_runs = _monte_carlo(
        [(s.lam_sim, s.a) for s in scenes],
        {name: [plans[name] for plans in users] for name in schemes},
        seed, mc_runs, horizon, frame.rho, prelog, threads, scene_mu.cross_product)

    return MultiuserTable(
        schemes=list(schemes), horizon=horizon, frame=frame, n_users=n_users,
        nmse=nmse, sinr_mc=sinr_mc, sinr_det=sinr_det, se_mc_runs=se_mc_runs,
        se_user_lb=se_user_lb, prelog=prelog, sinr_det_ss=sinr_det_ss, user_plans=users,
    )


def multiuser_scenes_from_config(config: ExperimentConfig):
    """Per-user channel scenes: explicit angles or sector-uniform placement."""
    n_users = config.users.count
    if config.users.theta_deg is not None:
        thetas = [float(t) for t in config.users.theta_deg]
        if len(thetas) != n_users:
            raise ValueError("users.theta_deg must list one angle per user")
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
    """Multiuser experiment: one trace at the configured power plus a sweep
    over snr_sweep_db (SNR = gamma * rho) when requested.

    Returns (table, sweep_rows): the per-block table at the last operating
    point and a list of per-(snr, scheme, user) steady-state summaries.
    """
    scenes, _ = multiuser_scenes_from_config(config)
    gamma = scenes[0].gamma
    schemes = [config.designer]
    schemes += [b for b in config.baselines if b in MU_SCHEMES and b not in schemes]
    sweep = config.snr_sweep_db
    if not sweep:
        sweep = [10.0 * np.log10(gamma * config.frame.rho)]
    rows = []
    table = None
    for snr_db in sweep:
        rho = 10.0 ** (snr_db / 10.0) / gamma
        frame = FrameParams(g_len=config.frame.g, m_p=config.frame.m_p,
                            m=config.frame.m, n_d_max=config.frame.n_d, rho=rho)
        table = run_multiuser_scene(scenes, frame, schemes, config.mc_runs,
                                    config.seed, config.horizon_blocks,
                                    config.threads)
        tail = frame.g_len * 2
        for name in schemes:
            se_mc = table.se_mc(name)[-tail:].mean(axis=0)
            se_det_tail = table.se_det(name)[-tail:].mean(axis=0)
            se_det_ss = table.se_det_ss(name)
            se_lb = table.se_lb(name)
            for u in range(table.n_users):
                det = se_det_ss[u] if np.isfinite(se_det_ss[u]) else se_det_tail[u]
                rows.append(dict(
                    snr_db=float(snr_db), scheme=name, user=u,
                    se_mc=float(se_mc[u]), se_det=float(det),
                    se_lb=float(se_lb[u]),
                ))
    return table, rows
