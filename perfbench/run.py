"""potts-lab benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; potts_lab is imported from ./src.
The workload builds its inputs from the seed, runs whole passes of ops until
--seconds of wall time have passed, checks every op's output and prints
every figure it measured in human-readable lines, followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the JSON metrics are the end-to-end ones BENCHMARK.json
names; with --trace 1 the setup and the ops of the first half of --seconds
are then replayed with a span around every call into potts_lab, and the JSON
metrics are the per-layer ones BENCHMARK.json names.  BENCHMARK.json gates
the workloads it lists; the others run the same way and are read by hand.
Results with provenance, and the spans of a traced run, are written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import NullTracer, Tracer, layer_stats, tail_latency

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
# a traced run replays the untraced ops of this share of --seconds
TRACE_SHARE = 0.5
# work_per_s is the median rate over blocks of whole passes with at least
# this much op time, so a burst of load on the host moves few blocks
BLOCK_S = 1.0

# every span the workloads open, as <module>.<function>
LAYER_FUNCTIONS = (
    "graphs.pairing_sample",
    "graphs.count_cycles",
    "swsim.run_chain",
    "swsim.exact_sw_kernel",
    "swsim.gibbs_distribution",
    "swsim.phase_cut",
    "swsim.conductance",
    "treefix.potts_thresholds",
    "treefix.potts_fixpoints",
    "treefix.classify_stability",
    "moments.potts_phase_diagram",
    "moments.moment_report",
    "moments.psi1",
    "moments.matrix_norm_p2",
    "moments.psi2",
)


@dataclass
class Measured:
    latencies: list = field(default_factory=list)
    done: list = field(default_factory=list)  # work units each op completed
    failures: list = field(default_factory=list)  # (op, reason, known defect or None)
    digests: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def work(self) -> float:
        return sum(self.done)

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if f[2] is None]

    def digest(self, n_ops=None) -> str:
        h = hashlib.sha256()
        for d in self.digests[:n_ops]:
            h.update(d)
        return h.hexdigest()


def measure(wl, tr, seconds=None, n_ops=None) -> Measured:
    """Run whole passes until `seconds` of wall time, checks included, have
    passed, or exactly `n_ops` ops.  Checks and hashing happen outside the
    timed call."""
    from checks import CheckError  # numpy loads only after main() pins the threads

    m = Measured()
    stop = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while True:
        if n_ops is not None and i == n_ops:
            break
        if n_ops is None and i % wl.pass_ops == 0 and i > 0 and time.perf_counter() >= stop:
            break
        error = out = None
        with tr.span("op", op=i):
            t0 = time.perf_counter()
            try:
                out = wl.op(i, tr)
            except Exception as exc:  # an op that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        m.latencies.append(dt)
        if error is None:
            try:
                wl.check(i, out)
            except CheckError as exc:
                error = str(exc)
            except Exception as exc:  # malformed output the check cannot read
                error = f"check raised {type(exc).__name__}: {exc}"
        m.done.append(wl.work_per_op if error is None else 0)
        if error is None:
            m.digests.append(wl.digest(out))
            if hasattr(wl, "attribute") and isinstance(tr, Tracer):
                with tr.span("blocks", op=i):
                    wl.attribute(i, out, tr)
        else:
            known = wl.known_defect(i, out) if hasattr(wl, "known_defect") else None
            m.failures.append((i, error, known))
            m.digests.append(error.encode())
        i += 1
    return m


def replay_ops(m: Measured, pass_ops: int, seconds: float) -> int:
    """Ops in the shortest prefix of whole passes whose untraced op time
    reaches `seconds`, or all of them."""
    t = 0.0
    for i, dt in enumerate(m.latencies, 1):
        t += dt
        if i % pass_ops == 0 and t >= seconds:
            return i
    return m.ops


def block_rates(latencies, done, pass_ops, block_s=BLOCK_S) -> list[float]:
    """Work per second of consecutive blocks of whole passes, each closed
    once its op time reaches block_s; a shorter remainder joins the last block."""
    blocks = []  # [time, work]
    t = w = 0.0
    for i, (dt, d) in enumerate(zip(latencies, done), 1):
        t, w = t + dt, w + d
        if i % pass_ops == 0 and t >= block_s:
            blocks.append([t, w])
            t = w = 0.0
    if t > 0:
        if blocks:
            blocks[-1][0] += t
            blocks[-1][1] += w
        else:
            blocks.append([t, w])
    return [w / t for t, w in blocks]


def git_sha(root: Path):
    """HEAD of the checkout's git repository, or None outside one."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, inherited_env, numpy_version) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env_inherited": inherited_env,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
    }


def end_to_end(wl, m: Measured, setup_s: float) -> dict:
    """Every end-to-end figure; the JSON line carries the gated subset."""
    rates = block_rates(m.latencies, m.done, wl.pass_ops)
    out = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "work_per_s": {"value": statistics.median(rates), "unit": "1/s", "work_unit": wl.unit, "blocks": len(rates)},
        "op_p50_ms": {"value": 1e3 * statistics.median(m.latencies), "unit": "ms", "ops": m.ops},
        "failed_ratio": {"value": len(m.failures) / m.ops, "unit": "ratio", "failed": len(m.failures)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    tail = tail_latency(m.latencies)
    if tail is not None:
        pct, value, beyond = tail
        out["op_tail_ms"] = {"value": 1e3 * value, "unit": "ms", "percentile": pct, "beyond": beyond, "ops": m.ops}
    return out


def gated(kind: str) -> list[str]:
    """Names of the BENCHMARK.json metrics of `kind` (end_to_end or
    per_layer): the result line carries exactly these."""
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


def per_layer(tr: Tracer, traced: Measured, untraced: Measured, shares: dict) -> dict:
    stats = layer_stats(tr.spans, LAYER_FUNCTIONS)
    out = {}
    for name, s in stats.items():
        out[f"{name}.calls"] = {"value": s["calls"], "unit": "count"}
        out[f"{name}.self_ms"] = {"value": s["self_ms"], "unit": "ms"}
        out[f"{name}.p50_ms"] = {"value": s["p50_ms"], "unit": "ms"}
    overhead = sum(traced.latencies) - sum(untraced.latencies[: traced.ops])
    out["trace.overhead_ms"] = {"value": 1e3 * overhead, "unit": "ms"}
    out["moment_cell.q2_B3.norm_share"] = {"value": shares.get("moments.matrix_norm_p2", 0.0), "unit": "ratio"}
    return out


def critical_cell_shares(wl, tr: Tracer) -> dict:
    """Share of each building block in the workload's critical op, if any."""
    op = getattr(wl, "critical_op", None)
    block = next((k for k, s in enumerate(tr.spans) if s.name == "blocks" and s.op == op), None)
    if block is None:
        return {}
    times: dict = {}
    for s in tr.spans:
        if s.parent == block:
            times[s.name] = times.get(s.name, 0.0) + s.end - s.start
    total = sum(times.values())
    return {k: v / total for k, v in times.items()}


def report_lines(wl, m: Measured, e2e: dict, first_digest: str) -> list[str]:
    lines = [f"workload {wl.name}: {m.ops} ops in {m.ops // wl.pass_ops} passes of {wl.pass_ops}; work unit {wl.unit}"]
    lines.append(f"  why: {wl.why}")
    for key, meta in e2e.items():
        extra = ""
        if key == "work_per_s":
            extra = f" ({wl.unit}/s, median of {meta['blocks']} blocks of >= {BLOCK_S:g} s)"
        elif key == "op_tail_ms":
            extra = f" (p{meta['percentile']:.2f}, {meta['beyond']} of {meta['ops']} ops beyond)"
        elif key == "failed_ratio":
            extra = f" ({meta['failed']} of {m.ops} ops)"
        elif key == "op_p50_ms":
            extra = f" ({meta['ops']} ops)"
        lines.append(f"  {key:<13} {meta['value']:.6g} {meta['unit']}{extra}")
    if "op_tail_ms" not in e2e:
        lines.append(f"  op_tail_ms    omitted: no percentile above the median has 10 of {m.ops} ops beyond it")
    for op, reason, known in m.failures[: wl.pass_ops]:
        lines.append(f"  failed op {op}: {reason}" + (f" -- known defect: {known}" if known else ""))
    lines.append(f"  digest (first pass) {first_digest}")
    return lines


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_potts_lab():
    """Import potts_lab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import potts_lab

    if src.resolve() not in Path(potts_lab.__file__).resolve().parents:
        raise ImportError(f"potts_lab imported from {potts_lab.__file__}, not {src}")
    return potts_lab


def main(argv=None) -> int:
    inherited = {v: os.environ.get(v) for v in THREAD_VARS}
    # BLAS pools size themselves when numpy loads, so pin them first
    for v in THREAD_VARS:
        os.environ[v] = "1"
    t0 = time.perf_counter()
    try:
        import_potts_lab()
        import numpy
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import potts_lab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    args = parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    untraced = measure(wl, NullTracer(), seconds=args.seconds)
    e2e = end_to_end(wl, untraced, setup_s)
    first_digest = untraced.digest(wl.pass_ops)
    lines = report_lines(wl, untraced, e2e, first_digest)
    correct = not untraced.unexpected
    result = {
        "workload": wl.name,
        "why": wl.why,
        "work_unit": wl.unit,
        "provenance": provenance(args, inherited, numpy.__version__),
        "ops": untraced.ops,
        "passes": untraced.ops // wl.pass_ops,
        "pass_ops": wl.pass_ops,
        "op_latencies_ms": [1e3 * t for t in untraced.latencies],
        "setup_runs_s": setups,
        "import_s": import_s,
        "end_to_end": e2e,
        "failures": [{"op": op, "reason": r, "known_defect": k} for op, r, k in untraced.failures],
        "digest_first_pass": first_digest,
        "digest_all_ops": untraced.digest(),
    }
    metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in gated("end_to_end")}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr = Tracer()
        with tr.span("setup"):
            wl.setup(tr)
        traced = measure(wl, tr, n_ops=replay_ops(untraced, wl.pass_ops, TRACE_SHARE * args.seconds))
        match = traced.digest() == untraced.digest(traced.ops)
        correct = correct and match and not traced.unexpected
        shares = critical_cell_shares(wl, tr)
        layers = per_layer(tr, traced, untraced, shares)
        metrics = {k: {"value": layers[k]["value"], "unit": layers[k]["unit"]} for k in gated("per_layer")}
        spans_file = OUT_DIR / f"{stem}-spans.json"
        tr.write(spans_file)
        result.update(
            per_layer=layers,
            traced_ops=traced.ops,
            traced_digest=traced.digest(),
            digests_match=match,
            spans_file=spans_file.name,
            critical_cell_shares=shares,
        )
        lines.append(f"  traced replay of {traced.ops} ops: digest {'matches' if match else 'DIFFERS'}; "
                     f"tracing overhead {layers['trace.overhead_ms']['value']:.1f} ms")
        for name in LAYER_FUNCTIONS:
            calls = layers[f"{name}.calls"]["value"]
            if calls:
                lines.append(f"    {name:<28} calls {calls:>6}  self {layers[f'{name}.self_ms']['value']:>11.2f} ms"
                             f"  p50 {layers[f'{name}.p50_ms']['value']:>10.3f} ms")
        if shares:
            ranked = ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
            lines.append(f"  q=2, B=3 cell building blocks: {ranked}")
    result["correct"] = correct
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": untraced.ops, "failed": len(untraced.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
