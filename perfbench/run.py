#!/usr/bin/env python3
"""pilotseq benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload su_upa375 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The untraced run (--trace 0) times whole passes of the workload and prints
the end-to-end metrics, pass times at a fixed reference speed of the host
(see hostspeed.py); the traced run (--trace 1) alternates untraced and
traced passes, then prints the per-layer metrics and the tracing overhead.
Both check the outputs.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; BENCHMARK.json names the
metrics and their units.  A full record (environment, pass times, output
digests, checks, spans) goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MIN_PASSES = 11  # wall_tail_ref_s needs ten passes above it
MIN_TRACED_PAIRS = 3
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# printed and recorded with the end-to-end metrics, but not gated: raw wall
# times follow the host's speed, which swings too far between runs
UNGATED = {"wall_s": "s", "host_speed": "ratio", "setup_wall_s": "s"}

# a fresh interpreter imports pilotseq and resolves the workload's presets
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pilotseq
from pilotseq.config import preset
t1 = time.perf_counter()
for name in sys.argv[2:]:
    cfg = preset(name)
    cfg.array.build(), cfg.ring.build(), cfg.frame.build()
print(json.dumps({"import_s": t1 - t0, "config_s": time.perf_counter() - t1}))
"""


def setup_sample(presets) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *presets],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return {"wall_s": time.perf_counter() - t0, **json.loads(proc.stdout)}


def window(seconds: float, presets, step, enough) -> list[dict]:
    """Call step() until `seconds` have gone by and enough() holds.

    The first call is a warm-up, so lazy imports and first-call costs stay
    out of the timings.  The set-up samples are spread evenly over the
    window, because the speed of a shared host drifts over tens of seconds.
    """
    setup = []
    start = time.perf_counter()
    step(warm_up=True)
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_sample(presets))
        elif enough() and elapsed >= seconds:
            break
        else:
            step(warm_up=False)
    return setup


def digest(files, names) -> dict[str, str]:
    return {Path(f).name: hashlib.sha256(Path(f).read_bytes()).hexdigest()
            for f in files if Path(f).name in names}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def tail(times: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def blas_threads():
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "library default")


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "pilotseq_threads": 1,
        "git_revision": git_revision(),
        "seed": seed,
    }


def untraced_run(wl, seconds: float) -> dict:
    from hostspeed import PassTimer

    timer = PassTimer()
    times, ref_times, speeds, digests = [], [], [], []
    result = None

    def step(warm_up):
        nonlocal result
        result, wall, ref = timer(wl.run_pass)
        if not warm_up:
            times.append(wall)
            ref_times.append(ref)
            speeds.append(timer.speed())
            digests.append(digest(result["files"], wl.data_files))

    setup = window(seconds, wl.presets, step, lambda: len(times) >= MIN_PASSES)
    rss = peak_rss_mb()
    checks = wl.checks(result)
    checks.append(("outputs identical across passes", all(d == digests[0] for d in digests),
                   f"{len(digests)} passes"))
    tail_s, tail_pct = tail(ref_times)
    return {
        "metrics": {
            "wall_ref_s": statistics.median(ref_times),
            "wall_tail_ref_s": tail_s,
            "peak_rss_mb": rss,
            "wall_s": statistics.median(times),
            "host_speed": statistics.median(speeds),
        },
        "notes": {
            "wall_ref_s": f"median of {len(times)} passes, at the reference host speed",
            "wall_tail_ref_s": f"p{tail_pct:.1f} of {len(times)} passes, "
                               f"{TAIL_BEYOND} passes above it",
            "peak_rss_mb": "peak resident memory of the benchmark process",
            "wall_s": f"median of {len(times)} passes, as measured (not gated)",
            "host_speed": "median over passes of the host's speed relative to the reference",
        },
        "quality": wl.quality(result),
        "checks": checks,
        "pass_times": times,
        "pass_ref_times": ref_times,
        "host_speeds": speeds,
        "digests": digests[-1],
        "setup": setup,
    }


def traced_run(wl, seconds: float) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    plain_t, traced_t, plain_d, traced_d = [], [], [], []
    result = None

    def step(warm_up):
        nonlocal result
        if warm_up:
            wl.run_pass()
            return
        i = len(traced_t)
        # alternate which side of a pair runs first
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if traced:
                tracer.request = i
                with tracer.span("pass"):
                    result = wl.traced_pass(tracer)
                traced_t.append(time.perf_counter() - t0)
                traced_d.append(digest(result["files"], wl.data_files))
            else:
                plain = wl.run_pass()
                plain_t.append(time.perf_counter() - t0)
                plain_d.append(digest(plain["files"], wl.data_files))

    setup = window(seconds, wl.presets, step, lambda: len(traced_t) >= MIN_TRACED_PAIRS)
    # the files on disk come from the last pass of either kind; the digest
    # checks below show both kinds wrote the same bytes
    totals = [tracer.totals(r) for r in range(len(traced_t))]
    names = {n for t in totals for n in t}
    spans = {n: statistics.median(t.get(n, 0.0) for t in totals) for n in names}
    layers = wl.layers(spans)
    layers["cli.output_bytes"] = sum(Path(f).stat().st_size for f in result["files"])
    layers["bench.trace_overhead_s"] = statistics.median(traced_t) - statistics.median(plain_t)
    checks = wl.checks(result)
    checks.append(("traced outputs match untraced", all(d == plain_d[0] for d in traced_d),
                   f"{len(traced_d)} traced, {len(plain_d)} untraced passes"))
    checks.append(("untraced outputs identical across passes",
                   all(d == plain_d[0] for d in plain_d), f"{len(plain_d)} passes"))
    return {
        "metrics": layers,
        "notes": {"bench.trace_overhead_s": f"median traced minus median untraced pass, "
                                            f"{len(traced_t)} pairs"},
        "quality": wl.quality(result),
        "checks": checks,
        "pass_times": {"untraced": plain_t, "traced": traced_t},
        "digests": plain_d[-1],
        "setup": setup,
        "spans": tracer.spans,
        "self_times": tracer.self_times(),
    }


def run_one(args, spec) -> int:
    import workloads

    declared = spec["per_layer" if args.trace else "end_to_end"]
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, OUT / args.workload)
    res = traced_run(wl, args.seconds) if args.trace else untraced_run(wl, args.seconds)
    setup = res["setup"]
    metrics = res["metrics"]
    notes = res["notes"]
    if args.trace:
        metrics["config.resolve_s"] = statistics.median(s["config_s"] for s in setup)
    else:
        # a set-up is too short to probe on its own; the passes' host speed
        # over the same window scales it to the reference speed
        metrics["setup_wall_s"] = statistics.median(s["wall_s"] for s in setup)
        metrics["setup_s"] = metrics["setup_wall_s"] * metrics["host_speed"]
        notes["setup_s"] = (f"median of {len(setup)} fresh interpreters, "
                            "at the passes' reference host speed")
        notes["setup_wall_s"] = f"median of {len(setup)} fresh interpreters, as measured (not gated)"
    failed = sum(not ok for _, ok, _ in res["checks"])
    attempted = len(res["checks"])
    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"workload did not produce {sorted(missing)}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  tiny' if args.tiny else ''}")
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:<14.6g} {unit:6s} {notes.get(name, '')}")
    if not args.trace:
        for name, unit in UNGATED.items():
            print(f"  {name:30s} {metrics[name]:<14.6g} {unit:6s} {notes[name]}")
        print(f"  {'fail_ratio':30s} {failed / attempted:<14.6g} {'ratio':6s} "
              f"{failed} of {attempted} output checks failed")
        for name, why in (("mc_det_gap", "simulate workloads"), ("design_gap", "design_grid")):
            value = res["quality"].get(name)
            shown = f"{value:<14.6g}" if value is not None else f"{'n/a':14s}"
            print(f"  {name:30s} {shown} {'ratio':6s} "
                  f"{'' if value is not None else 'defined on ' + why}")
    for name, ok, detail in res["checks"]:
        if not ok:
            print(f"  FAILED CHECK {name}: {detail}")

    record = {
        "workload": args.workload, "trace": args.trace, "tiny": args.tiny,
        "seconds": args.seconds, "environment": environment(args.seed),
        "inputs": wl.describe(), "setup": setup,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
        "ungated": {n: {"value": metrics[n], "unit": u} for n, u in UNGATED.items()
                    if n in metrics},
        "quality": res["quality"], "fail_ratio": failed / attempted,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in res["checks"]],
        "pass_times": res["pass_times"], "digests": res["digests"],
        **{k: res[k] for k in ("pass_ref_times", "host_speeds", "spans", "self_times")
           if k in res},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  digests {json.dumps(res['digests'])}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs for the smoke test; skips the full-size checks")
    args = ap.parse_args(argv)
    if not (SRC / "pilotseq" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no pilotseq sources under {SRC}; "
                         "run from the root of a pilotseq checkout\n")
        return 2
    # one BLAS thread, inherited by every interpreter the benchmark starts:
    # the load then comes from one thread on a host of few vCPUs, and the
    # probes in hostspeed.py sample the speed of the vCPU it runs on
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args, names)
    sys.path.insert(0, str(SRC))
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
