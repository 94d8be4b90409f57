"""Run perfbench alternately in a parent and a change checkout; write BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --label mychange \\
        --workload phase-grid:10 --workload sw-large:5 [--seconds 45] [--seed 100]

Each pair runs `perfbench/run.py --trace 0` once in each checkout with the same
seed, and the side that runs first alternates from pair to pair, so a drift of
the host over minutes falls on both sides alike.  Pair i of every workload uses
seed --seed + i.  Run length defaults to BENCHMARK.json's run_seconds.

The output file, written to the change checkout, records the git state of both
checkouts (HEAD, whether the tree has uncommitted changes, and a SHA-256 over
the files under src/ so an uncommitted tree is still identified), the numpy
version with its SIMD baseline and found dispatch targets, the kernel core
numpy's bundled OpenBLAS runs (null when it cannot be read), the
OPENBLAS_CORETYPE and NPY_DISABLE_CPU_FEATURES settings (null when unset), the
CPU count, every run's result line, and per workload and side the
median and quartiles of each end-to-end metric in BENCHMARK.json, with the
pairs the change won, lost and tied.

The host's speed drifts between sessions, so right before each run a fresh
process times a fixed single-threaded numpy kernel (REFERENCE_SORTS sorts of
one fixed-seed 2^20-element float64 array) and the run records that rate in
sorts per second; the summary holds its median and quartiles per side, by
which files written on different days can be normalised.

A run keeps a little state per completed op, so its peak_rss_mb grows with
the ops it completes, and a faster side reads as using more memory.  After a
workload's pairs, each checkout therefore runs that workload once more in a
fresh process, with the BLAS thread variables pinned to 1: the same setup
rounds as a run, then perfbench's own measure() for exactly N ops, N being
the fewest ops any of the workload's runs attempted, and the file records
each side's peak RSS at that equal op count.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _git(checkout: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _source_state(checkout: Path) -> dict:
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    status = _git(checkout, "status", "--porcelain")
    return {
        "sha": _git(checkout, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": h.hexdigest(),
    }


_NUMPY_PROBE = """
import ctypes, glob, json, os, numpy
try:
    from numpy._core import _multiarray_umath as m
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as m
found = [f for f in m.__cpu_dispatch__ if m.__cpu_features__.get(f)]
core = None  # no OpenBLAS bundled in numpy.libs, or one without a core-name call
for lib in sorted(glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))):
    blas = ctypes.CDLL(lib)
    corename = getattr(blas, "scipy_openblas_get_corename64_", None) or getattr(blas, "openblas_get_corename", None)
    if corename is not None:
        corename.restype = ctypes.c_char_p
        core = corename().decode()
        break
print(json.dumps({"version": numpy.__version__, "baseline": list(m.__cpu_baseline__), "found": found, "core": core}))
"""


def _host_state() -> dict:
    """What moves the bits of a run on this host: the Python and numpy
    versions, numpy's SIMD baseline and the dispatch targets it found, the
    kernel core of numpy's bundled OpenBLAS (its own pick, or the one
    OPENBLAS_CORETYPE names; None when the library has no core-name call),
    the BLAS and SIMD overrides in the environment (None when unset) and the
    CPU count."""
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], capture_output=True, text=True, check=True)
    probe = json.loads(done.stdout)
    return {
        "python": platform.python_version(),
        "numpy": probe["version"],
        "numpy_simd": {"baseline": probe["baseline"], "found": probe["found"]},
        "openblas_core": probe["core"],
        "env": {name: os.environ.get(name) for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")},
        "cpu_count": os.cpu_count(),
    }


REFERENCE_SORTS = 32
_REFERENCE_PROBE = f"""
import json, time, numpy
x = numpy.random.Generator(numpy.random.Philox(key=0)).random(2**20)
numpy.sort(x)  # first touch of the kernel and the pages, untimed
t = time.perf_counter()
for _ in range({REFERENCE_SORTS}):
    numpy.sort(x)
print(json.dumps({REFERENCE_SORTS} / (time.perf_counter() - t)))
"""


def _reference_rate() -> float:
    """Sorts per second of the fixed reference kernel, timed in a fresh process."""
    done = subprocess.run([sys.executable, "-c", _REFERENCE_PROBE], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


_RSS_PROBE = """
import json, os, resource, sys
sys.path.insert(0, "perfbench")
import run
for v in run.THREAD_VARS:  # before numpy loads, as run.main() does
    os.environ[v] = "1"
run.import_potts_lab()
import workloads
from spans import NullTracer
name, seed, n_ops = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
wl = workloads.WORKLOADS[name](seed)
for _ in range(run.SETUP_REPEATS):
    wl.setup()
m = run.measure(wl, NullTracer(), n_ops=n_ops)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"ops": m.ops, "failed": len(m.failures), "peak_rss_mb": rss}))
"""


def _rss_at_ops(checkout: Path, workload: str, seed: int, n_ops: int) -> dict:
    """Peak RSS in MB (ru_maxrss) of one fresh process in the checkout that
    sets the workload up as a run does and then runs exactly n_ops ops."""
    cmd = [sys.executable, "-c", _RSS_PROBE, workload, str(seed), str(n_ops)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"peak RSS probe of {workload} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _summary(runs: list[dict], metrics: dict) -> dict:
    out = {
        "reference_sorts_per_s": {
            side: _quartiles([r["reference_rate"] for r in runs if r["side"] == side]) for side in ("parent", "change")
        }
    }
    for name, better in metrics.items():
        value = {(r["pair"], r["side"]): r["result"]["metrics"][name]["value"] for r in runs}
        sides = {side: _quartiles([v for (_, s), v in value.items() if s == side]) for side in ("parent", "change")}
        pairs = sorted({pair for pair, _ in value})
        sign = -1.0 if better == "lower" else 1.0
        gains = [sign * (value[i, "change"] - value[i, "parent"]) for i in pairs]
        out[name] = {
            "better": better,
            **sides,
            "change_over_parent": sides["change"]["median"] / sides["parent"]["median"],
            "pairs_won": sum(g > 0 for g in gains),
            "pairs_lost": sum(g < 0 for g in gains),
            "pairs_tied": sum(g == 0 for g in gains),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    plan = []
    for spec in args.workload:
        name, _, pairs = spec.partition(":")
        if not pairs.isdigit() or int(pairs) < 2:
            ap.error(f"--workload takes NAME:PAIRS with at least 2 pairs, got {spec!r}")
        plan.append((name, int(pairs)))

    record = {
        "label": args.label,
        "parent": _source_state(parent),
        "change": _source_state(change),
        **_host_state(),
        "seconds": seconds,
        "workloads": {},
    }
    for name, pairs in plan:
        runs = []
        for i in range(pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                reference = _reference_rate()
                result = _run(parent if side == "parent" else change, name, seed, seconds)
                runs.append({"pair": i, "side": side, "seed": seed, "reference_rate": reference, "result": result})
                rate = result["metrics"]["work_per_s"]["value"]
                print(
                    f"{name} pair {i} {side}: work_per_s {rate:.6g}, failed {result['failed']}, "
                    f"reference {reference:.4g} sorts/s",
                    flush=True,
                )
        n_ops = min(r["result"]["attempted"] for r in runs)
        rss = {"ops": n_ops, "seed": args.seed}
        for side in ("parent", "change"):
            rss[side] = _rss_at_ops(parent if side == "parent" else change, name, args.seed, n_ops)
            print(f"{name} {side}: peak_rss_mb {rss[side]['peak_rss_mb']:.4g} at {n_ops} ops", flush=True)
        record["workloads"][name] = {
            "pairs": pairs,
            "failed": {s: sum(r["result"]["failed"] for r in runs if r["side"] == s) for s in ("parent", "change")},
            "summary": _summary(runs, metrics),
            "peak_rss_at_equal_ops": rss,
            "runs": runs,
        }
    out = change / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
