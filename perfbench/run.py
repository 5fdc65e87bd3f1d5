"""End-to-end and per-layer benchmark of `mdsm train` -> `sample` -> `eval`.

    python3 perfbench/run.py --workload ring_mad --seed 2 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 2     # both, one process each

Each workload is a closed loop in one process: it calls `manifold_dsm.cli.main`
with the workload's argv chain (train mad, train dsm, sample, and for the ring
eval tv), checks the artifacts, and starts the next chain only while the time
left holds another chain of the same length.  Every chain of a run uses the
same seed, so every chain must write the same bytes.

With `--trace 0` the last stdout line holds the end-to-end metrics; timings
are medians over the run's chains, speed-adjusted (see speed.py).  With `--trace 1` the calls into each
module are wrapped (see tracing.py) and the last line holds per-chain
per-layer metrics.  Lines before it give run metadata and a readable table.

BLAS and OpenMP pools default to one thread (an explicit setting in the
environment wins); the thread count in effect is in the metadata line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_result_s": "s",
    "train_steps_per_s": "steps/s",
    "sample_row_steps_per_s": "row-steps/s",
    "peak_rss_mb": "MB",
    "sample_drift": "1",
    "loss_tail": "1",
    "loss_tail_gap": "1",
}


class Ops:
    """Operations attempted and failed: every `mdsm` call and every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def setup(workload_name: str, seed: int):
    """Imports, configs and scratch directory: everything before the first call."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import manifold_dsm.cli  # noqa: F401  (the timed path imports it)
    from workloads import WORKLOADS

    w = WORKLOADS[workload_name]
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=SCRATCH))
    for kind in ("mad", "dsm"):
        (tmp / f"{kind}.json").write_text(json.dumps(w.config(kind, seed)), encoding="utf-8")
    return w, tmp


def remove_scratch(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    with contextlib.suppress(OSError):
        SCRATCH.rmdir()  # only when no other run is using it


def probe_setup_s(workload: str, seed: int) -> tuple[float, float, float]:
    """Median wall time from spawning a fresh interpreter to the end of setup,
    raw and speed-adjusted, and the mean probe time between the spawns."""
    from speed import SpeedProbe

    probe, times = SpeedProbe("setup"), []
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for i in range(SETUP_PROBES + 1):  # the first one warms the file cache
        for _ in range(5):
            probe.probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        if i:
            times.append(t1 - t0)
    raw = statistics.median(times)
    return raw, raw * probe.factor(), probe.mean_s()


def call_mdsm(argv: list[str]) -> tuple[int, str]:
    from manifold_dsm import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead benchmark
            traceback.print_exc()
            code = -1
    return code, buf.getvalue()


def read_csv(path: Path):
    import numpy as np

    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def run_chain(w, seed: int, tmp: Path, index: int, ops: Ops, first_digest: str | None, probe):
    """One pass of the workload's `mdsm` chain plus its checks.  Times are
    wall seconds with the speed probe's own time taken out, each call's
    scaled by the probes that ran during it (see speed.py)."""
    from workloads import chain

    out = tmp / f"chain{index}"
    raw = {"train": 0.0, "sample": 0.0, "eval": 0.0}
    adjusted = dict(raw)
    cpu0, t_first, p_first = time.process_time(), time.perf_counter(), probe.spent_s
    for phase, argv in chain(w, seed, tmp, out):
        n0 = len(probe.times)
        probe.probe()  # at least one per call, also when no step hook is installed
        t0, p0 = time.perf_counter(), probe.spent_s
        code, text = call_mdsm(argv)
        dt = time.perf_counter() - t0 - (probe.spent_s - p0)
        raw[phase] += dt
        adjusted[phase] += dt * probe.factor(n0)
        if not ops.check(code == 0, f"mdsm {' '.join(argv[:2])} exited {code}\n{text}"):
            return None
    wall = time.perf_counter() - t_first - (probe.spent_s - p_first)
    cpu = time.process_time() - cpu0
    rest = wall - sum(raw.values())  # between calls: scaled by the chain's probes
    try:
        return check_chain(w, out, ops, first_digest) | {
            "raw": {"wall_s": wall, "cpu_s": cpu, "train_s": raw["train"], "sample_s": raw["sample"]},
            "wall_s": sum(adjusted.values()) + rest * probe.factor(),
            "train_s": adjusted["train"],
            "sample_s": adjusted["sample"],
        }
    except Exception:  # unreadable artifacts fail the run, with the traceback
        ops.check(False, f"chain artifacts are readable\n{traceback.format_exc()}")
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check_chain(w, out: Path, ops: Ops, first_digest: str | None) -> dict:
    """Checks that hold on any seed, and the quality metrics, from the artifacts."""
    import numpy as np
    from manifold_dsm.mlp import load_checkpoint
    from workloads import MAX_DRIFT, MAX_TV

    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    samples = read_csv(out / "sample" / "samples.csv")
    ops.check(samples.shape == (w.sample_n, w.dim) and bool(np.isfinite(samples).all()),
              f"samples.csv has shape {samples.shape}, want ({w.sample_n}, {w.dim}), all finite")
    tails = {}
    for kind in ("mad", "dsm"):
        params, config, extras = load_checkpoint(out / kind / "checkpoint.bin")
        shapes = [p.shape for p in params.weights]
        ops.check(extras.get("loss_kind") == kind
                  and shapes == [tuple(s) for s in config.layer_shapes()]
                  and all(np.isfinite(p).all() for p in params.weights + params.biases),
                  f"{kind} checkpoint reloads with finite weights of the configured shapes")
        curve = read_csv(out / kind / "loss.csv")[:, 1]
        ops.check(curve.shape == (w.steps,) and bool(np.isfinite(curve).all()),
                  f"{kind} loss.csv has {w.steps} finite rows")
        tails[kind] = float(curve[w.steps // 2:].mean())
    drift, tv = w.drift(samples), w.tv(samples)
    ops.check(drift < MAX_DRIFT, f"sample_drift {drift} < {MAX_DRIFT}")
    ops.check(tv < MAX_TV, f"sample_tv {tv} < {MAX_TV}")
    if w.eval_tv:
        logged = [line.split() for line in (out / "sample" / "metrics.log").read_text().splitlines()
                  if line.startswith("name=discrete_tv ")]
        ops.check(len(logged) == 1 and f"value={tv!r}" in logged[0],
                  f"mdsm eval tv logged the benchmark's tv {tv!r}: {logged}")
    artifacts = [out / "sample" / "samples.csv"] + [
        out / kind / name for kind in ("mad", "dsm") for name in ("checkpoint.bin", "loss.csv")
    ]
    dig = digest(artifacts)
    if first_digest is not None:
        ops.check(dig == first_digest, "chain artifacts equal the first chain's, byte for byte")
    return {
        "bytes_written": written,
        "digest": dig,
        "quality": {
            "sample_drift": drift,
            "loss_tail": tails["mad"],
            "sample_tv": tv,
            "loss_tail_gap": tails["dsm"] - tails["mad"],
        },
    }


def closed_loop(w, seed: int, tmp: Path, seconds: float, ops: Ops, probe) -> list[dict]:
    chains: list[dict] = []
    t0 = time.perf_counter()
    while True:
        first = chains[0]["digest"] if chains else None
        res = run_chain(w, seed, tmp, len(chains), ops, first, probe)
        if res is None:
            return chains
        chains.append(res)
        if time.perf_counter() - t0 + res["raw"]["wall_s"] > seconds:
            return chains


def end_to_end(w, chains: list[dict], setup_s: float) -> dict[str, float]:
    """Timings are speed-adjusted medians over chains."""
    from workloads import SAMPLE_SCALES

    med = lambda key: statistics.median(c[key] for c in chains)
    quality = chains[0]["quality"]
    return {
        "setup_s": setup_s,
        "time_to_result_s": med("wall_s"),
        "train_steps_per_s": 2 * w.steps / med("train_s"),
        "sample_row_steps_per_s": w.sample_n * (SAMPLE_SCALES - 1) / med("sample_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sample_drift": quality["sample_drift"],
        "loss_tail": quality["loss_tail"],
        "loss_tail_gap": quality["loss_tail_gap"],
    }


def timed_loop(w, seed: int, tmp: Path, seconds: float, ops: Ops):
    """The closed loop with the speed probe hooked into every training and
    sampling step."""
    import tracing
    from speed import SpeedProbe

    probe = SpeedProbe(w.name)
    with tracing.patched(("mlp.adam_step", "cli.forward"), lambda name, fn: probe.hook(fn)):
        chains = closed_loop(w, seed, tmp, seconds, ops, probe)
    return chains, probe


def traced_loop(w, seed: int, tmp: Path, seconds: float, ops: Ops):
    import tracing
    from speed import SpeedProbe

    tracer = tracing.Tracer()
    # no step hook here: its probes would land inside the spans
    with tracing.patched(tracing.WRAPPED, lambda name, fn: tracer.wrap(name, fn, tracing.WORK.get(name))):
        chains = closed_loop(w, seed, tmp, seconds, ops, SpeedProbe(w.name))
    if not chains:
        return chains, {}
    tot, n = tracer.totals(), len(chains)
    for name, want in w.expected_calls().items():
        got = tot[name]["calls"] / n if name in tot else 0
        ops.check(got == want, f"{name} called {got} times per chain, want {want}")
    wall = sum(c["raw"]["wall_s"] for c in chains) / n
    layers = tracing.per_layer(
        tot, n, wall,
        cpu_s=sum(c["raw"]["cpu_s"] for c in chains) / n,
        bytes_written=sum(c["bytes_written"] for c in chains) / n,
        span_cost=tracing.span_cost_s(),
    )
    ops.check(layers["trace.coverage_frac"][0] >= 0.95,
              f"self times cover {layers['trace.coverage_frac'][0]:.3f} of the wall time")
    return chains, layers


def metadata(args, chains: list[dict], extra: dict) -> dict:
    import platform

    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "chains_raw": [c["raw"] for c in chains],
        **extra,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
    }


def blas_info() -> dict:
    """BLAS build string and thread count in effect, asked of the loaded library."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads and get_config:
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                return {"blas": get_config().decode(), "blas_threads": get_threads()}
    return {"blas": "unknown", "blas_threads": None}


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        with contextlib.suppress(OSError):
            level, kind = (idx / "level").read_text().strip(), (idx / "type").read_text().strip()
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (idx / "size").read_text().strip()
    return out


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_all(args) -> int:
    """Every workload, each in its own process; prints their tables and one
    JSON line mapping workload to result."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("# meta")), flush=True)
        results[name] = json.loads(lines[-1]) if lines else {"correct": False}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="ring_mad, rotation_pair or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "manifold_dsm" / "cli.py").is_file():
        print(f"error: no manifold_dsm sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    w, tmp = setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        ops = Ops()
        if args.trace:
            chains, layers = traced_loop(w, args.seed, tmp, args.seconds, ops)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            extra = {}
        else:
            setup_raw, setup_s, setup_probe_s = probe_setup_s(args.workload, args.seed)
            chains, probe = timed_loop(w, args.seed, tmp, args.seconds, ops)
            values = end_to_end(w, chains, setup_s) if chains else {}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            extra = {"setup_raw_s": setup_raw, "setup_probe_mean_s": setup_probe_s,
                     "speed_factor": probe.factor(),
                     "probe_mean_s": probe.mean_s(), "speed_probes": len(probe.times)}
        if chains:
            extra["quality"] = chains[0]["quality"]
    finally:
        remove_scratch(tmp)

    print("# meta " + json.dumps(metadata(args, chains, extra)))
    for name, m in metrics.items():
        print(f"# {w.name:<14} {name:<32} {m['value']:<24.10g} {m['unit']}")
    print(f"# {w.name:<14} failed/attempted {ops.failed}/{ops.attempted}")
    correct = ops.failed == 0 and bool(chains)
    print(json.dumps({"correct": correct, "attempted": max(ops.attempted, 1),
                      "failed": ops.failed if chains else max(ops.failed, 1), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
