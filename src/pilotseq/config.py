"""Experiment configuration: a single JSON-serializable document.

Angles are degrees and speeds km/h in the file format (converted to
radians / m/s at the geometry boundary); everything else is SI.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .channel_model import _J0_FIRST_ZERO, ArrayGeometry, OneRingGeometry, doppler_argument
from .sequence_design import FrameParams, is_prime_power

DESIGNERS = ("min_max", "exhaustive")
BASES = ("eigen", "dft")
BASELINES = ("orthogonal", "random", "mp_fixed", "nd_fixed", "perfect_csit")
# the schemes a run with more than one user offers
MU_SCHEMES = (*DESIGNERS, "mp_fixed", "nd_fixed", "perfect_csit")


def _finite_numbers(xs) -> bool:
    """Whether xs is a list of finite real numbers (booleans and strings are not)."""
    return isinstance(xs, (list, tuple)) and all(
        isinstance(x, (int, float, np.number)) and not isinstance(x, bool)
        and bool(np.isfinite(x)) for x in xs)


def _section(cls, doc: dict, prefix: str):
    """cls built from a config section; an unknown key fails naming it."""
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown config field {prefix}{unknown[0]}")
    return cls(**doc)


@dataclass
class ArrayConfig:
    kind: str = "ula"
    n_t: int = 32
    n_v: int = 1
    n_h: int = 1
    spacing_over_wavelength: float = 0.5

    def build(self) -> ArrayGeometry:
        if self.kind == "upa":
            return ArrayGeometry.upa(self.n_v, self.n_h, self.spacing_over_wavelength)
        return ArrayGeometry.ula(self.n_t, self.spacing_over_wavelength)


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
    designer: str = "min_max"
    basis: str = "eigen"
    baselines: list = field(default_factory=lambda: ["perfect_csit"])
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
                                   for k in ("n_t", "n_v", "n_h"))):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if array.kind not in ("ula", "upa"):
            raise ValueError(f"array.kind must be 'ula' or 'upa', got {array.kind!r}")
        for name, value in [("array.spacing_over_wavelength", array.spacing_over_wavelength),
                            *((f"ring.{k}", v) for k, v in dataclasses.asdict(ring).items())]:
            if not _finite_numbers([value]):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not _finite_numbers([self.rank_tol]) or self.rank_tol < 0:
            raise ValueError(f"rank_tol must be a finite number >= 0, got {self.rank_tol!r}")
        if self.snr_sweep_db is not None and not _finite_numbers(self.snr_sweep_db):
            raise ValueError(f"snr_sweep_db must be a list of finite numbers, "
                             f"got {self.snr_sweep_db!r}")
        thetas = self.users.theta_deg
        if thetas is not None and not (_finite_numbers(thetas)
                                       and len(thetas) == self.users.count):
            raise ValueError(f"users.theta_deg must list one finite angle per user "
                             f"(users.count = {self.users.count}), got {thetas!r}")
        doppler = doppler_argument(ring.v_kmh / 3.6, ring.f_c, ring.t_s, frame.m)
        for name, value, ok, rule in (
            ("frame.g", frame.g, is_prime_power(frame.g), "must be a prime power"),
            ("frame.m", frame.m, frame.m > frame.m_p, f"must exceed frame.m_p = {frame.m_p!r}"),
            ("frame.rho", frame.rho, _finite_numbers([frame.rho]) and frame.rho >= 0,
             "must be a finite number >= 0"),
            ("users.count", self.users.count, self.users.count * frame.m_p < frame.m,
             f"times frame.m_p = {frame.m_p!r} must stay below frame.m = {frame.m!r}"),
            ("ring.d_r", ring.d_r, 0 < ring.d_r < ring.d_s,
             f"must lie in (0, ring.d_s = {ring.d_s!r})"),
            ("ring.v_kmh", ring.v_kmh, ring.v_kmh >= 0, "must be >= 0"),
            ("ring.v_kmh", ring.v_kmh, doppler < _J0_FIRST_ZERO,
             f"puts the Doppler argument 2 pi (v f_c / c) t_s M at {doppler:.4g}, at or past "
             f"the first J0 zero {_J0_FIRST_ZERO:.4g}: lower ring.v_kmh, ring.f_c = {ring.f_c!r}, "
             f"ring.t_s = {ring.t_s!r} or frame.m = {frame.m!r}"),
            ("array.n_t", array.n_t, array.kind == "ula" or array.n_t == array.n_v * array.n_h,
             f"must equal array.n_v * array.n_h = {array.n_v!r} * {array.n_h!r} for a UPA"),
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
        if self.designer not in DESIGNERS:
            raise ValueError(f"designer must be one of {DESIGNERS}")
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}")
        for b in self.baselines:
            if b not in BASELINES:
                raise ValueError(f"unknown baseline {b!r}; known: {BASELINES}")
        if self.users.count > 1:
            if self.basis != "eigen":
                raise ValueError(f"basis {self.basis!r} is single-user only; "
                                 "a run with users.count > 1 sounds the eigenbasis")
            for b in self.baselines:
                if b not in MU_SCHEMES:
                    raise ValueError(f"baselines entry {b!r} is single-user only; with "
                                     f"users.count > 1 choose among {MU_SCHEMES}")

    @property
    def designed_scheme(self) -> str:
        """The scheme the configured designer and basis name."""
        return self.designer if self.basis == "eigen" else self.designer + "_dft"

    @property
    def schemes(self) -> list:
        """The designed scheme, then each baseline once."""
        return list(dict.fromkeys([self.designed_scheme, *self.baselines]))

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        nested = {
            "array": ArrayConfig,
            "ring": RingConfig,
            "frame": FrameConfig,
            "users": UsersConfig,
        }
        for key, cls in nested.items():
            if key in doc and isinstance(doc[key], dict):
                doc[key] = _section(cls, doc[key], f"{key}.")
        return _section(ExperimentConfig, doc, "")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(text))

    @staticmethod
    def load(path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())


PRESETS: dict = {
    # full-scale planar array, steady-state comparison of all schemes
    "upa375": dict(
        array=dict(kind="upa", n_t=375, n_v=15, n_h=25),
        ring=dict(d_s=100.0, d_r=30.0, theta_h_deg=30.0, v_kmh=3.0),
        frame=dict(g=32, m_p=2, m=5, n_d=64, rho=10.0),
        designer="min_max",
        basis="eigen",
        baselines=["orthogonal", "random", "mp_fixed", "nd_fixed", "perfect_csit"],
        mc_runs=500,
        seed=20240,
        horizon_blocks=2560,
    ),
    # CI-scale linear array keeping the same scheme comparison
    "ci_ula32": dict(
        array=dict(kind="ula", n_t=32),
        ring=dict(d_s=100.0, d_r=30.0, theta_h_deg=30.0, v_kmh=3.0),
        frame=dict(g=16, m_p=2, m=5, n_d=32, rho=10.0),
        designer="min_max",
        basis="eigen",
        baselines=["orthogonal", "random", "mp_fixed", "nd_fixed", "perfect_csit"],
        mc_runs=200,
        seed=777,
        horizon_blocks=480,
    ),
    # multiuser sum-rate sweep on the sector ULA
    "multiuser_ula32": dict(
        array=dict(kind="ula", n_t=32),
        ring=dict(d_s=100.0, d_r=8.0, theta_h_deg=0.0, v_kmh=3.0),
        frame=dict(g=32, m_p=1, m=10, n_d=8, rho=10.0),
        designer="min_max",
        basis="eigen",
        baselines=["perfect_csit"],
        users=dict(count=5, theta_deg=None),
        mc_runs=200,
        seed=4242,
        horizon_blocks=128,
        snr_sweep_db=[-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0],
    ),
    # small smoke preset for quick CLI checks
    "demo": dict(
        array=dict(kind="ula", n_t=16),
        ring=dict(d_s=100.0, d_r=30.0, theta_h_deg=20.0, v_kmh=3.0),
        frame=dict(g=4, m_p=2, m=5, n_d=8, rho=10.0),
        designer="min_max",
        basis="eigen",
        baselines=["mp_fixed", "perfect_csit"],
        mc_runs=50,
        seed=1,
        horizon_blocks=64,
    ),
}


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return ExperimentConfig.from_dict(PRESETS[name])
