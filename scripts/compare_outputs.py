#!/usr/bin/env python3
"""Check that the command-line outputs are byte-identical to those of a git revision.

Usage: python3 scripts/compare_outputs.py REV

REV is exported with ``git archive`` into a temporary directory.  The CLI
then runs there and in this working tree (HEAD plus any uncommitted
changes) on the same cases:

- ``pilotseq simulate`` on the ``demo``, ``ci_ula32`` and
  ``multiuser_ula32`` presets, and through ``--config`` on ``upa375``, on
  ``ci_ula32`` with the exhaustive designer, on ``ci_ula32`` with
  ``min_max_dft`` leading its schemes (the hybrid schemes of a linear
  array), on ``ci_ula32`` with a static user (``ring.v_kmh = 0``, so a = 1 and every
  trained mode's floor and ceiling are zero), on ``ci_ula32`` swept over
  0, 10 and 20 dB (a one-user sweep with full-kind schemes), on
  ``ci_ula32`` at ``mc_runs`` = 40 (two chunks of runs, the second
  partial, over its 480 blocks, so each chunk crosses a slab boundary
  with ``orthogonal`` and ``random`` among its schemes), on
  ``multiuser_ula32`` with two users at -8 and 8 degrees (the two-user
  realized-SINR kernel) and with three users of unequal rank (8, 10 and 9 at
  -55, 0 and 35 degrees), the last also at 300 blocks so that its Monte
  Carlo draws cross a slab boundary (``simulate.SLAB``) and with the
  schemes ``min_max``, ``mp_fixed``, ``perfect_csit`` and ``nd_fixed`` (a
  perfect row between diag rows at every SNR point), and on ``multiuser_ula32`` with the
  exhaustive designer (its five users at seven SNR points designed in one
  batch), each with ``mc_runs`` cut to 16 unless stated,
  comparing
  ``trace.csv``, ``design.csv`` and ``sweep.csv``;
- ``pilotseq design`` on ``demo``, on ``ci_ula32`` and ``upa375`` with
  ``min_max_dft`` leading its schemes (the hybrid design of a linear and of a
  planar array, whose DFT surrogate is per axis), on ``multiuser_ula32`` and on
  ``ci_ula32`` as a 128-element array at one wavelength spacing with the
  user at 55 degrees (one-ring lags up to 8192 panels, so the quadrature
  runs its lags in several groups), comparing ``design.csv`` and
  ``assignment.json``;
- ``pilotseq verify``, comparing its standard output;
- in memory, the arrays that ``simulate.run_schemes`` returns on
  ``upa375`` with ``min_max_dft`` after its schemes (``mc_runs`` = 16), at
  the preset's 2560 blocks, whose recursion runs in a forked worker, and
  at 256 blocks, one ``simulate.SLAB`` window that runs it in process, and
  that ``simulate.run_multiuser_sweep``
  returns on ``multiuser_ula32`` (its seven SNR points, ``mc_runs`` = 16):
  every point's and scheme's NMSE, Monte Carlo SINR and spectral
  efficiency and deterministic SINR, each saved with ``np.save`` and
  compared as raw bytes.  The CSV files' 12 significant digits hide
  last-bit drift; these do not.  Each side calls its own sweep signature
  with its own ``ExperimentConfig.operating_points``: one frame per point,
  or the frame and one data power per point.

Each side's ``--config`` documents are built from that side's own preset,
read through its own sources, so a change of the config format does not
stop the other side from reading them.  A side whose config still names
its schemes in two fields gets a case's ``schemes`` list as ``designer``,
the first entry, and ``baselines``, the rest, which it runs in that order.

Every run writes to the relative directory ``out`` of its own working
directory, so the output path recorded in ``assignment.json`` is the same
on both sides.  Files are compared byte for byte; a file written on one
side only counts as a difference.  Prints one line per case and file, and
under each differing file the drift: for a CSV file every differing column
with its largest relative and largest absolute difference over rows
matched by position (a value near zero reads a large relative drift at a
tiny absolute one), a row-count mismatch, and non-numeric mismatches; for
a JSON file the differing keys; for a ``.npy`` array its largest relative
and absolute difference; for a plain-text file each differing line by
number.
The last line gives the largest relative difference over every differing
CSV column and array, with its case, file and column, so an intended
float-order change can quote one bound.  Exits 1 on any difference (2 if a
run fails).  Temporary files go under ``$TMPDIR``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("demo", "ci_ula32", "multiuser_ula32")
FILES = {"simulate": ("out/trace.csv", "out/design.csv", "out/sweep.csv"),
         "design": ("out/design.csv", "out/assignment.json"),
         "verify": ("stdout.txt",)}
CUT_RUNS = 16
CHUNKED_RUNS = 40  # two chunks of simulate.CHUNK_RUNS = 32 runs, the second partial
ONE_WINDOW = 256  # simulate.SLAB blocks: the pass runs its recursion in process
BASELINES = ["orthogonal", "random", "mp_fixed", "nd_fixed", "perfect_csit"]  # ci_ula32, upa375
ARRAYS = """\
import json
import sys
from pathlib import Path
import numpy as np
from pilotseq import simulate as sim
from pilotseq.config import ExperimentConfig, preset

out = Path("out/arrays")
out.mkdir(parents=True)
flag, source = sys.argv[1:]  # --preset NAME or --config PATH
cfg = (preset(source) if flag == "--preset"
       else ExperimentConfig.from_dict(json.loads(Path(source).read_text())))
scenes, _ = sim.multiuser_scenes_from_config(cfg)
frame = cfg.frame.build()
if cfg.users.count == 1:
    # min_max_dft adds a hybrid full-kind row to orthogonal and random
    tables = [sim.run_schemes(scenes[0], frame, [*cfg.schemes, "min_max_dft"], RUNS,
                              cfg.seed, cfg.horizon_blocks)]
else:
    # a tree's operating points are what its sweep takes: one frame per
    # point, or one data power per point beside the one frame
    points = [point for _, point in cfg.operating_points(scenes[0].gamma)]
    layout = [points] if hasattr(points[0], "rho") else [frame, points]
    tables = sim.run_multiuser_sweep(scenes, *layout, cfg.schemes, RUNS, cfg.seed,
                                     cfg.horizon_blocks)
for p, table in enumerate(tables):
    for key in ("nmse", "sinr_mc", "se_mc_runs", "sinr_det"):
        for name, trace in getattr(table, key).items():
            np.save(out / f"p{p}-{key}-{name}.npy", trace)
""".replace("RUNS", str(CUT_RUNS))


def run_cli(tree: Path, command: str, args: list[str], workdir: Path) -> Path:
    """Run ``pilotseq COMMAND`` from ``tree``'s sources in ``workdir``, which
    receives the outputs in ``out`` and the standard output in
    ``stdout.txt``; returns ``workdir``.  The command ``arrays`` runs
    ``ARRAYS`` on ``args`` (``--preset NAME`` or ``--config PATH``)
    instead."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if command == "arrays":
        cmd = [sys.executable, "-c", ARRAYS, *args]
    else:
        cmd = [sys.executable, "-m", "pilotseq.cli", command, *args]
    if command not in ("verify", "arrays"):
        cmd += ["--out", "out"]
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed with {tree}:\n{proc.stderr}")
    (workdir / "stdout.txt").write_text(proc.stdout, encoding="utf-8")
    return workdir


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16] if path.exists() else "absent"


def drift(a: Path, b: Path) -> tuple[list[str], dict[str, float]]:
    """How two output files differ: the largest difference of a ``.npy``
    array, the differing keys of a JSON object, CSV rows matched by
    position and columns named by the first line unless it is a ``#``
    comment, or the differing lines of any other text.  Also
    returns each differing numeric CSV column's or array's largest
    relative difference (empty for other files)."""
    if not (a.exists() and b.exists()):
        return ["written on one side only"], {}
    if a.suffix == ".npy":
        x, y = np.load(a), np.load(b)
        if x.shape != y.shape or x.dtype != y.dtype:
            return [f"shape or dtype differs: {x.shape} {x.dtype} vs {y.shape} {y.dtype}"], {}
        gap = np.abs(x - y)
        rel = np.max(gap / np.maximum(np.maximum(np.abs(x), np.abs(y)), np.finfo(float).tiny))
        return [f"largest relative difference {rel:.3g}, absolute {np.max(gap):.3g} "
                f"({np.count_nonzero(x != y)} values differ)"], {"(all)": float(rel)}
    if a.suffix == ".json":
        doc_a, doc_b = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
        return [f"{key}: {doc_a.get(key)!r} vs {doc_b.get(key)!r}"
                for key in sorted(doc_a.keys() | doc_b.keys())
                if doc_a.get(key) != doc_b.get(key)], {}
    if a.suffix != ".csv":
        lines = (p.read_text(encoding="utf-8").splitlines() for p in (a, b))
        return [f"line {i + 1}: {x!r} vs {y!r}"
                for i, (x, y) in enumerate(itertools.zip_longest(*lines)) if x != y], {}
    rows_a, rows_b = (list(csv.reader(io.StringIO(p.read_text(encoding="utf-8"))))
                      for p in (a, b))
    header = rows_a[0] if rows_a and not rows_a[0][0].startswith("#") else []
    out = []
    if len(rows_a) != len(rows_b):
        out.append(f"row count differs: {len(rows_a)} vs {len(rows_b)} lines")
    worst: dict[str, list] = {}  # column -> [largest relative, largest absolute, values differing]
    text: dict[str, tuple[int, str, str]] = {}  # column -> first non-numeric mismatch
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            text.setdefault(f"line {i + 1}", (i, f"{len(ra)} fields", f"{len(rb)} fields"))
            continue
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x == y:
                continue
            if i == 0:
                col = f"line 1 field {j + 1}"
            else:
                col = header[j] if j < len(header) else f"column {j + 1}"
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                text.setdefault(col, (i, x, y))
                continue
            entry = worst.setdefault(col, [0.0, 0.0, 0])
            if fx != fy:
                entry[0] = max(entry[0], abs(fx - fy) / max(abs(fx), abs(fy)))
                entry[1] = max(entry[1], abs(fx - fy))
            entry[2] += 1
    for col, (rel, absolute, count) in worst.items():
        out.append(f"{col}: largest relative difference {rel:.3g}, absolute {absolute:.3g} "
                   f"({count} values differ)")
    for col, (i, x, y) in text.items():
        out.append(f"{col}: non-numeric mismatch at line {i + 1}: {x!r} vs {y!r}")
    return out, {col: rel for col, (rel, _, _) in worst.items()}


def cut_config(tree: Path, path: Path, name: str, fields: dict) -> None:
    """Write preset ``name`` as ``tree``'s sources spell it, with ``mc_runs``
    cut and top-level ``fields`` overridden (a section such as ``users`` is
    updated key by key).  The preset is read in a subprocess on ``tree``'s
    sources, so each side gets a document in its own config format."""
    code = "import sys; from pilotseq.config import preset; print(preset(sys.argv[1]).to_json())"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", code, name], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"reading preset {name} failed with {tree}:\n{proc.stderr}")
    doc = json.loads(proc.stdout)
    doc["mc_runs"] = CUT_RUNS
    for key, value in fields.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    if "designer" in doc and "schemes" in doc:  # a side from before the schemes list
        doc["designer"], *doc["baselines"] = doc.pop("schemes")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base, filter="data")
        try:
            cases = [("simulate", name, name, None) for name in PRESETS]
            cases += [
                ("simulate", f"upa375 (mc_runs={CUT_RUNS})", "upa375", {}),
                ("simulate", f"ci_ula32 exhaustive (mc_runs={CUT_RUNS})", "ci_ula32",
                 {"schemes": ["exhaustive", *BASELINES]}),
                ("simulate", f"ci_ula32 dft (mc_runs={CUT_RUNS})", "ci_ula32",
                 {"schemes": ["min_max_dft", *BASELINES]}),
                ("simulate", f"ci_ula32 static user (mc_runs={CUT_RUNS})", "ci_ula32",
                 {"ring": {"v_kmh": 0.0}}),
                ("simulate", f"ci_ula32 at 0/10/20 dB (mc_runs={CUT_RUNS})", "ci_ula32",
                 {"snr_sweep_db": [0.0, 10.0, 20.0]}),
                ("simulate", f"ci_ula32 (mc_runs={CHUNKED_RUNS}, two chunks)", "ci_ula32",
                 {"mc_runs": CHUNKED_RUNS}),
                ("simulate", f"2 users at ±8° (mc_runs={CUT_RUNS})", "multiuser_ula32",
                 {"users": {"count": 2, "theta_deg": [-8.0, 8.0]}}),
                ("simulate", f"3 users, ranks 8/10/9 (mc_runs={CUT_RUNS})", "multiuser_ula32",
                 {"users": {"count": 3, "theta_deg": [-55.0, 0.0, 35.0]}}),
                ("simulate", f"3 users, 300 blocks (mc_runs={CUT_RUNS})", "multiuser_ula32",
                 {"users": {"count": 3, "theta_deg": [-55.0, 0.0, 35.0]},
                  "horizon_blocks": 300}),
                ("simulate", f"3 users, mp/perfect/nd (mc_runs={CUT_RUNS})",
                 "multiuser_ula32", {"users": {"count": 3, "theta_deg": [-55.0, 0.0, 35.0]},
                                     "schemes": ["min_max", "mp_fixed", "perfect_csit",
                                                 "nd_fixed"]}),
                ("simulate", f"multiuser_ula32 exhaustive (mc_runs={CUT_RUNS})",
                 "multiuser_ula32", {"schemes": ["exhaustive", "perfect_csit"]}),
                ("design", "demo", "demo", None),
                ("design", "ci_ula32 dft", "ci_ula32", {"schemes": ["min_max_dft", *BASELINES]}),
                ("design", "upa375 dft", "upa375", {"schemes": ["min_max_dft", *BASELINES]}),
                ("design", "multiuser_ula32", "multiuser_ula32", None),
                ("design", "ula128 1λ 55°", "ci_ula32",
                 {"array": {"n_h": 128, "spacing_over_wavelength": 1.0},
                  "ring": {"theta_h_deg": 55.0}}),
                ("verify", "battery", None, None),
                ("arrays", f"upa375 (mc_runs={CUT_RUNS})", "upa375", None),
                ("arrays", f"upa375 at {ONE_WINDOW} blocks (mc_runs={CUT_RUNS})", "upa375",
                 {"horizon_blocks": ONE_WINDOW}),
                ("arrays", f"multiuser_ula32 (mc_runs={CUT_RUNS})", "multiuser_ula32", None),
            ]
            differ = 0
            largest = None  # (relative difference, case, file, column)
            for i, (command, label, name, fields) in enumerate(cases):
                outs = []
                for tree, side in ((base, "base"), (ROOT, "head")):
                    args = [] if name is None else ["--preset", name]
                    if fields is not None:
                        config = tmp / f"config{i}-{side}.json"
                        cut_config(tree, config, name, fields)
                        args = ["--config", str(config)]
                    outs.append(run_cli(tree, command, args, tmp / f"{side}{i}"))
                files = FILES.get(command) or sorted({f"out/arrays/{p.name}" for out in outs
                                                      for p in (out / "out/arrays").glob("*")})
                for file in files:
                    a, b = (out / file for out in outs)
                    if not a.exists() and not b.exists():
                        continue
                    same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
                    differ += not same
                    print(f"{'identical' if same else 'DIFFERS  '} {command:<8} {label:<36} "
                          f"{Path(file).name:<15} {rev}={digest(a)} tree={digest(b)}")
                    if not same:
                        lines, columns = drift(a, b)
                        for line in lines:
                            print(f"    {line}")
                        for col, rel in columns.items():
                            if largest is None or rel > largest[0]:
                                largest = (rel, label, Path(file).name, col)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
    print(f"{differ} file(s) differ" if differ else "all outputs identical")
    if largest is None:
        print("largest relative drift: none (no numeric CSV value differs)")
    else:
        rel, label, name, col = largest
        print(f"largest relative drift: {rel:.3g} ({label}, {name}, column {col})")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
