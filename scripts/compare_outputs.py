#!/usr/bin/env python3
"""Check that the simulator's outputs are byte-identical to those of a git revision.

Usage: python3 scripts/compare_outputs.py REV

REV is checked out into a temporary ``git worktree``.  ``pilotseq simulate``
then runs there and in this working tree (HEAD plus any uncommitted
changes) on the ``demo``, ``ci_ula32`` and ``multiuser_ula32`` presets, and
through ``--config`` on ``upa375`` and on ``ci_ula32`` with the exhaustive
designer, both with ``mc_runs`` cut to 16.  Each of
``trace.csv``, ``design.csv`` and ``sweep.csv`` is compared byte for byte;
a file written on one side only counts as a difference.  Prints one line
per preset and file and exits 1 on any difference (2 if a run fails).
Temporary files go under ``$TMPDIR``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("demo", "ci_ula32", "multiuser_ula32")
FILES = ("trace.csv", "design.csv", "sweep.csv")
CUT_RUNS = 16


def simulate(tree: Path, args: list[str], out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pilotseq.cli", "simulate", *args, "--out", str(out)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr}")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16] if path.exists() else "absent"


def cut_config(path: Path, name: str, **fields) -> None:
    """Write preset ``name`` with ``mc_runs`` cut and ``fields`` overridden."""
    sys.path.insert(0, str(ROOT / "src"))
    from pilotseq.config import preset

    cfg = preset(name)
    cfg.mc_runs = CUT_RUNS
    for key, value in fields.items():
        setattr(cfg, key, value)
    path.write_text(cfg.to_json(), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(base), rev],
                       cwd=ROOT, check=True)
        try:
            cases = [(name, ["--preset", name]) for name in PRESETS]
            for label, name, fields in (
                ("upa375", "upa375", {}),
                ("ci_ula32 exhaustive", "ci_ula32", {"designer": "exhaustive"}),
            ):
                config = tmp / f"config{len(cases)}.json"
                cut_config(config, name, **fields)
                cases.append((f"{label} (mc_runs={CUT_RUNS})", ["--config", str(config)]))
            differ = 0
            for i, (label, args) in enumerate(cases):
                outs = (tmp / f"base{i}", tmp / f"head{i}")
                simulate(base, args, outs[0])
                simulate(ROOT, args, outs[1])
                for name in FILES:
                    a, b = (out / name for out in outs)
                    if not a.exists() and not b.exists():
                        continue
                    same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
                    differ += not same
                    print(f"{'identical' if same else 'DIFFERS  '} {label:<36} {name:<10} "
                          f"{rev}={digest(a)} tree={digest(b)}")
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT,
                           check=False)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
    print(f"{differ} file(s) differ" if differ else "all outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
