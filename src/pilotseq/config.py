"""Experiment configuration: a single JSON-serializable document.

Angles are degrees and speeds km/h in the file format (converted to
radians / m/s at the geometry boundary); everything else is SI.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .channel_model import _J0_FIRST_ZERO, ArrayGeometry, OneRingGeometry, doppler_argument
from .sequence_design import DESIGNERS, FrameParams, is_prime_power

# every scheme's tracker kind: diag sounds covariance eigenvectors, full
# sounds other columns (a designer's hybrid "_dft" variant, orthogonal,
# random) through the full-matrix recursion, perfect knows the channel
SCHEME_KINDS = {"min_max": "diag", "exhaustive": "diag", "min_max_dft": "full",
                "exhaustive_dft": "full", "orthogonal": "full", "random": "full",
                "mp_fixed": "diag", "nd_fixed": "diag", "perfect_csit": "perfect"}
# the schemes a designer builds: min_max or exhaustive on the covariance
# eigenvectors, or its hybrid "_dft" variant on the DFT surrogate columns
DESIGNED_SCHEMES = tuple(name for name in SCHEME_KINDS if name.removesuffix("_dft") in DESIGNERS)
# the schemes a run with more than one user offers: the leakage of a user's
# estimate into the others is exact only for a diagonal error covariance
MU_SCHEMES = tuple(name for name, kind in SCHEME_KINDS.items() if kind != "full")
# the most a configured run may hold.  It keeps the returned per-block
# traces for the whole horizon, and every run's channel, estimates and
# generators at once, but the schedule, gains, diag P and leakage of one
# recursion window of simulate.SLAB blocks only, and one chunk's draws
GAIN_BUDGET_BYTES = 2 * 10**9


def _finite_numbers(xs) -> bool:
    """Whether xs is a list of finite real numbers (booleans and strings are not)."""
    return isinstance(xs, (list, tuple)) and all(
        isinstance(x, (int, float, np.number)) and not isinstance(x, bool)
        and bool(np.isfinite(x)) for x in xs)


def check_schemes(schemes, n_users: int) -> None:
    """The rules of a run's scheme list, each failure naming ``schemes[i]``:
    every entry a known name, none repeated, and with more than one user
    only ``MU_SCHEMES``."""
    for i, name in enumerate(schemes):
        if not isinstance(name, str) or name not in SCHEME_KINDS:
            raise ValueError(f"schemes[{i}] = {name!r} is not a scheme; known: "
                             f"{tuple(SCHEME_KINDS)}")
        if name in schemes[:i]:
            raise ValueError(f"schemes[{i}] = {name!r} repeats an earlier entry")
        if n_users > 1 and name not in MU_SCHEMES:
            raise ValueError(f"schemes[{i}] = {name!r} is a single-user scheme; with "
                             f"{n_users} users choose among {MU_SCHEMES}")


def _section(cls, doc: dict, prefix: str):
    """cls built from a config section; an unknown key fails naming it."""
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown config field {prefix}{unknown[0]}")
    return cls(**doc)


@dataclass
class ArrayConfig:
    """An n_v x n_h planar array; a ULA is the one-row array (n_v = 1)."""

    n_v: int = 1
    n_h: int = 32
    spacing_over_wavelength: float = 0.5

    def build(self) -> ArrayGeometry:
        return ArrayGeometry(self.n_v, self.n_h, self.spacing_over_wavelength)


@dataclass
class RingConfig:
    d_s: float = 100.0
    d_r: float = 30.0
    h: float = 60.0
    d_0: float = 30.0
    alpha_0: float = 3.8
    theta_h_deg: float = 30.0
    f_c: float = 2.5e9
    t_s: float = 100e-6
    v_kmh: float = 3.0

    def build(self, theta_h_deg: float | None = None) -> OneRingGeometry:
        theta = self.theta_h_deg if theta_h_deg is None else theta_h_deg
        return OneRingGeometry(
            d_s=self.d_s, d_r=self.d_r, h=self.h, d_0=self.d_0,
            alpha_0=self.alpha_0, theta_h=np.radians(theta),
            f_c=self.f_c, t_s=self.t_s, v=self.v_kmh / 3.6,
        )


@dataclass
class FrameConfig:
    g: int = 8
    m_p: int = 2
    m: int = 5
    n_d: int = 16
    rho: float = 10.0

    def build(self) -> FrameParams:
        return FrameParams(g_len=self.g, m_p=self.m_p, m=self.m,
                           n_d_max=self.n_d, rho=self.rho)


@dataclass
class UsersConfig:
    count: int = 1
    # explicit horizontal AoAs in degrees; None = sampled uniformly in the
    # sector (-60, 60) from the experiment seed
    theta_deg: list | None = None


@dataclass
class ExperimentConfig:
    array: ArrayConfig = field(default_factory=ArrayConfig)
    ring: RingConfig = field(default_factory=RingConfig)
    frame: FrameConfig = field(default_factory=FrameConfig)
    # SCHEME_KINDS names, run in this order; at least one is designed
    schemes: list = field(default_factory=lambda: ["min_max", "perfect_csit"])
    users: UsersConfig = field(default_factory=UsersConfig)
    mc_runs: int = 100
    seed: int = 12345
    horizon_blocks: int = 64
    output_dir: str = "out"
    rank_tol: float = 1e-6
    snr_sweep_db: list | None = None

    def __post_init__(self):
        # each check names the field it rejects
        frame, ring, array = self.frame, self.ring, self.array
        for name, value, low in (*((f"frame.{k}", getattr(frame, k), 1)
                                   for k in ("g", "m_p", "m", "n_d")),
                                 ("mc_runs", self.mc_runs, 1), ("seed", self.seed, 0),
                                 ("horizon_blocks", self.horizon_blocks, frame.g),
                                 ("users.count", self.users.count, 1),
                                 *((f"array.{k}", getattr(array, k), 1)
                                   for k in ("n_v", "n_h"))):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name, value in [("array.spacing_over_wavelength", array.spacing_over_wavelength),
                            *((f"ring.{k}", v) for k, v in dataclasses.asdict(ring).items())]:
            if not _finite_numbers([value]):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not _finite_numbers([self.rank_tol]) or not 0 <= self.rank_tol < 1:
            raise ValueError(f"rank_tol must be a finite number in [0, 1), "
                             f"got {self.rank_tol!r}")
        if self.snr_sweep_db is not None and not (_finite_numbers(self.snr_sweep_db)
                                                  and len(self.snr_sweep_db)):
            raise ValueError(f"snr_sweep_db must be null or a non-empty list of finite "
                             f"numbers, got {self.snr_sweep_db!r}")
        thetas = self.users.theta_deg
        if thetas is not None and not (_finite_numbers(thetas)
                                       and len(thetas) == self.users.count):
            raise ValueError(f"users.theta_deg must list one finite angle per user "
                             f"(users.count = {self.users.count}), got {thetas!r}")
        doppler = doppler_argument(ring.v_kmh / 3.6, ring.f_c, ring.t_s, frame.m)
        for name, value, ok, rule in (
            ("frame.g", frame.g, is_prime_power(frame.g), "must be a prime power"),
            ("frame.m", frame.m, frame.m > frame.m_p, f"must exceed frame.m_p = {frame.m_p!r}"),
            ("frame.n_d", frame.n_d, frame.n_d >= frame.m_p,
             f"must be >= frame.m_p = {frame.m_p!r}"),
            ("frame.m_p", frame.m_p, frame.m_p <= array.n_v * array.n_h,
             f"exceeds the array.n_v * array.n_h = {array.n_v * array.n_h!r} elements, "
             "which bound the channel rank"),
            ("frame.rho", frame.rho, _finite_numbers([frame.rho]) and frame.rho >= 0,
             "must be a finite number >= 0"),
            ("users.count", self.users.count, self.users.count * frame.m_p < frame.m,
             f"times frame.m_p = {frame.m_p!r} must stay below frame.m = {frame.m!r}"),
            ("ring.d_r", ring.d_r, 0 < ring.d_r < ring.d_s,
             f"must lie in (0, ring.d_s = {ring.d_s!r})"),
            ("ring.v_kmh", ring.v_kmh, ring.v_kmh >= 0, "must be >= 0"),
            ("ring.f_c", ring.f_c, ring.f_c > 0, "must be > 0"),
            ("ring.t_s", ring.t_s, ring.t_s > 0, "must be > 0"),
            ("ring.v_kmh", ring.v_kmh, doppler < _J0_FIRST_ZERO,
             f"puts the Doppler argument 2 pi (v f_c / c) t_s M at {doppler:.4g}, at or past "
             f"the first J0 zero {_J0_FIRST_ZERO:.4g}: lower ring.v_kmh, ring.f_c = {ring.f_c!r}, "
             f"ring.t_s = {ring.t_s!r} or frame.m = {frame.m!r}"),
            *((name, value, value > 0, "must be > 0") for name, value in (
                ("array.spacing_over_wavelength", array.spacing_over_wavelength),
                ("ring.h", ring.h), ("ring.d_0", ring.d_0), ("ring.alpha_0", ring.alpha_0))),
            *((name, theta, -np.pi / 3 < np.radians(theta) < np.pi / 3,  # the one-ring sector
               "lies outside the sector (-60, 60) degrees")
              for name, theta in [("ring.theta_h_deg", ring.theta_h_deg),
                                  *((f"users.theta_deg[{u}]", t)
                                    for u, t in enumerate(thetas or ()))]),
        ):
            if not ok:
                raise ValueError(f"{name} = {value!r} {rule}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a path string, got {self.output_dir!r}")
        if not isinstance(self.schemes, list):
            raise ValueError(f"schemes must be a list of scheme names, got {self.schemes!r}")
        check_schemes(self.schemes, self.users.count)
        if not set(self.schemes) & set(DESIGNED_SCHEMES):
            raise ValueError(f"schemes must list a designed scheme, one of {DESIGNED_SCHEMES}; "
                             f"got {self.schemes!r}")
        self._check_memory()

    def _check_memory(self) -> int:
        """The bytes the run may hold, n_t bounding each user's rank; over
        GAIN_BUDGET_BYTES it fails naming horizon_blocks and mc_runs.
        Per block, the returned traces: 3 float64 per (point, scheme, user),
        the Monte Carlo means and the deterministic SINR, and the NMSE per
        (point, scheme), a run's whole tracemalloc growth.  Per run: the
        channel and every estimate row, and a ~1 KB generator per drawing
        stream.  Per slab: one chunk's draws; the full-kind gains, every
        estimate row's diag P and schedule, and U + 8 float64 per (point,
        scheme, user) of tr P, self-error, leakage and SINR temporaries,
        which a run of several slabs holds in its forked recursion worker;
        and the shared slot through which that worker hands the pass a
        window, its NMSE and deterministic SINR and every estimate row's
        schedule and gains.  Per pass: the group buffers of the Monte Carlo
        tail, the only ones, and their temporaries, at most thirteen
        groups, a group being GROUP_BYTES or, where larger, one block's
        (point, scheme, user, run) float64 SINR array.  A lone user's
        buffers are three groups, its terms being complex; ``_sinr_tail``
        holds up to 7.2 more at once (its complex error, the squared parts,
        the gathered norms, sigma and the ratio), while the previous
        group's SINR and spectral efficiency, two more, are still bound:
        12.2 in all.  After a warm-up pass, grouped passes of upa375 at 16
        runs trace 11.0 groups above one-block groups, and several users'
        float terms less (multiuser_ula32 at 8 runs, 1.8)."""
        from .simulate import CHUNK_RUNS, GROUP_BYTES, SLAB  # simulate imports this module

        kinds = [SCHEME_KINDS[s] for s in self.schemes]
        n_noisy, n_full = sum(k != "perfect" for k in kinds), kinds.count("full")
        points, users, m_p = max(1, len(self.snr_sweep_db or ())), self.users.count, self.frame.m_p
        n_t = self.array.n_v * self.array.n_h
        est = points * n_noisy + len(kinds) - n_noisy  # a perfect scheme's one estimate row
        per_block = points * len(kinds) * (3 * users + 1) * 8
        per_run = users * ((1 + est) * n_t * 16 + (1 + n_noisy) * 1024)
        runs = min(self.mc_runs, CHUNK_RUNS)  # the draw buffers hold one chunk
        per_slab = SLAB * users * (16 * runs * (n_t + len(kinds) * m_p)
                                   + 16 * points * n_full * n_t * m_p + 8 * est * (n_t + m_p)
                                   + 8 * points * len(kinds) * (users + 8))
        per_slab += SLAB * (users * (16 * points * n_full * n_t * m_p + 16 * est * m_p)
                            + 8 * points * len(kinds) * (users + 1))  # the slot
        per_slab += 13 * max(GROUP_BYTES, 8 * points * len(kinds) * users * runs)
        need = self.horizon_blocks * per_block + self.mc_runs * per_run + per_slab
        if need > GAIN_BUDGET_BYTES:
            raise ValueError(
                f"horizon_blocks = {self.horizon_blocks} and mc_runs = {self.mc_runs} need "
                f"{need / 1e9:.3g} GB, over the {GAIN_BUDGET_BYTES / 1e9:g} GB budget: "
                f"{per_block} B per block of traces, {per_run} B per run of "
                f"channel, estimates and generators, and {per_slab / 1e6:.3g} MB of slab "
                f"buffers, for {users} users x {points} points x {len(kinds)} schemes at "
                f"n_t = {n_t}")
        return need

    def operating_points(self, gamma: float) -> list:
        """The (SNR in dB, data power rho) operating points at path gain
        ``gamma``: the configured ``frame.rho`` when ``snr_sweep_db`` is
        null, else one per swept SNR (SNR = gamma * rho)."""
        if self.snr_sweep_db is None:
            with np.errstate(divide="ignore"):
                return [(10.0 * np.log10(gamma * self.frame.rho), self.frame.rho)]
        return [(snr_db, 10.0 ** (snr_db / 10.0) / gamma) for snr_db in self.snr_sweep_db]

    @property
    def designer(self) -> str:
        """The first designed scheme: what design.csv and ``pilotseq design`` report."""
        return next(name for name in self.schemes if name in DESIGNED_SCHEMES)

    @property
    def baselines(self) -> list:
        """The schemes other than ``designer``, for callers that still read two fields."""
        return [name for name in self.schemes if name != self.designer]

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict, **overrides) -> "ExperimentConfig":
        """The configuration of a document, top-level ``overrides`` merged in."""
        if not isinstance(doc, dict):
            raise ValueError(f"a config document must be an object of fields, got {doc!r}")
        doc = {**doc, **overrides}
        nested = {
            "array": ArrayConfig,
            "ring": RingConfig,
            "frame": FrameConfig,
            "users": UsersConfig,
        }
        for key, cls in nested.items():
            if key in doc:
                if not isinstance(doc[key], dict):
                    raise ValueError(f"{key} must be an object of {key}.* fields, "
                                     f"got {doc[key]!r}")
                doc[key] = _section(cls, doc[key], f"{key}.")
        return _section(ExperimentConfig, doc, "")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


PRESETS: dict = {
    # full-scale planar array, steady-state comparison of all schemes
    "upa375": dict(
        array=dict(n_v=15, n_h=25),
        ring=dict(d_s=100.0, d_r=30.0, theta_h_deg=30.0, v_kmh=3.0),
        frame=dict(g=32, m_p=2, m=5, n_d=64, rho=10.0),
        schemes=["min_max", "orthogonal", "random", "mp_fixed", "nd_fixed", "perfect_csit"],
        mc_runs=500,
        seed=20240,
        horizon_blocks=2560,
    ),
    # CI-scale linear array keeping the same scheme comparison
    "ci_ula32": dict(
        array=dict(n_v=1, n_h=32),
        ring=dict(d_s=100.0, d_r=30.0, theta_h_deg=30.0, v_kmh=3.0),
        frame=dict(g=16, m_p=2, m=5, n_d=32, rho=10.0),
        schemes=["min_max", "orthogonal", "random", "mp_fixed", "nd_fixed", "perfect_csit"],
        mc_runs=200,
        seed=777,
        horizon_blocks=480,
    ),
    # multiuser sum-rate sweep on the sector ULA
    "multiuser_ula32": dict(
        array=dict(n_v=1, n_h=32),
        ring=dict(d_s=100.0, d_r=8.0, theta_h_deg=0.0, v_kmh=3.0),
        frame=dict(g=32, m_p=1, m=10, n_d=8, rho=10.0),
        schemes=["min_max", "perfect_csit"],
        users=dict(count=5, theta_deg=None),
        mc_runs=200,
        seed=4242,
        horizon_blocks=128,
        snr_sweep_db=[-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0],
    ),
    # small smoke preset for quick CLI checks
    "demo": dict(
        array=dict(n_v=1, n_h=16),
        ring=dict(d_s=100.0, d_r=30.0, theta_h_deg=20.0, v_kmh=3.0),
        frame=dict(g=4, m_p=2, m=5, n_d=8, rho=10.0),
        schemes=["min_max", "mp_fixed", "perfect_csit"],
        mc_runs=50,
        seed=1,
        horizon_blocks=64,
    ),
}


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return ExperimentConfig.from_dict(copy.deepcopy(PRESETS[name]))  # PRESETS keeps its lists
