"""Time whole-process `mdsm train` runs from two source trees in alternating pairs.

    python tools/train_pairs.py BASE_TREE CHANGE_TREE [--pairs 10]
        [--workload ring|s3] [--taskset]

Each tree is a checkout of this repository; its `src/` goes first on
PYTHONPATH.  Pair k runs the base tree first when k is even and the change
first when k is odd, each time as a fresh `python -m manifold_dsm.cli train`
in a temporary directory, under `taskset -c 0` with --taskset.  The timing is
the wall time of the whole process, so it includes start-up and every
allocation the program makes, unlike a speed-adjusted benchmark figure.  As
in perfbench, BLAS and OpenMP pools run one thread unless the environment
sets them; the first line printed gives the settings in effect.

Workloads: `ring` is the README's ring run (relu 128x3, batch 512, 2000
steps, seed 2, dataset seed 102); `s3` is the antisymmetrized silu 64x3 S^3
run at batch 128 (1000 steps, seed 2, dataset seed 202).

Prints every pair, then per tree the median and quartiles of the seconds,
the number of pairs the change won, and the sha256 of `checkpoint.bin` and
`loss.csv` (one line per distinct value seen).  Exits 1 unless every run
wrote the same bytes.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

AXES = ((1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0))
CONFIGS = {
    "ring": {
        "dataset": {"kind": "discrete_skewed", "n_coords": 8, "decay": 0.8, "seed": 102},
        "manifold": {"kind": "discrete_circle", "n_coords": 8},
        "schedule": {"sigma_min": 1e-4, "sigma_max": 4.0, "num_scales": 100},
        "model": {"hidden_dim": 128, "num_hidden_layers": 3, "activation": "relu"},
        "training": {"loss_kind": "mad", "steps": 2000, "batch_size": 512,
                     "lr": 2e-3, "seed": 2, "n_data": 16384},
    },
    "s3": {
        "dataset": {"kind": "vmf_mixture", "manifold_n": 3, "seed": 202,
                    "components": [[list(axis), 40.0, 0.25] for axis in AXES]},
        "manifold": {"kind": "rotation_group"},
        "schedule": {"sigma_min": 1e-4, "sigma_max": 2.0, "num_scales": 100},
        "model": {"hidden_dim": 64, "num_hidden_layers": 3, "activation": "silu",
                  "antisymmetrize": True},
        "training": {"loss_kind": "mad", "steps": 1000, "batch_size": 128,
                     "lr": 2e-3, "seed": 2, "n_data": 4096},
    },
}
ARTIFACTS = ("checkpoint.bin", "loss.csv")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(tree: Path, config: dict, taskset: bool) -> tuple[float, dict[str, str]]:
    """Wall seconds of one `mdsm train` from `tree`, and its artifacts' sha256."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.json"
        cfg.write_text(json.dumps({**config, "out_dir": str(Path(tmp) / "out")}))
        env = {**dict.fromkeys(THREAD_VARS, "1"), **os.environ}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        argv = [sys.executable, "-m", "manifold_dsm.cli", "train", "--config", str(cfg)]
        if taskset:
            argv = ["taskset", "-c", "0"] + argv
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        return seconds, {name: hashlib.sha256((Path(tmp) / "out" / name).read_bytes()).hexdigest()
                         for name in ARTIFACTS}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree of the base (parent) commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", choices=sorted(CONFIGS), default="ring")
    parser.add_argument("--taskset", action="store_true", help="run each process on CPU 0 only")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "manifold_dsm").is_dir():
            parser.error(f"{tree} has no src/manifold_dsm")

    threads = {var: os.environ.get(var, "1") for var in THREAD_VARS}
    print(" ".join(f"{var}={value}" for var, value in threads.items()), flush=True)
    seconds = {side: [] for side in trees}
    hashes = {side: {name: set() for name in ARTIFACTS} for side in trees}
    wins = 0
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            s, digests = run_once(trees[side], CONFIGS[args.workload], args.taskset)
            seconds[side].append(s)
            for name, digest in digests.items():
                hashes[side][name].add(digest)
        wins += seconds["change"][-1] < seconds["base"][-1]
        print(f"pair {k + 1:2d} ({order[0]} first): base {seconds['base'][-1]:.3f} s, "
              f"change {seconds['change'][-1]:.3f} s", flush=True)

    pin = " under taskset -c 0" if args.taskset else ""
    print(f"\n{args.workload} mdsm train, {args.pairs} pairs{pin}: median [q1, q3] seconds")
    for side in trees:
        q1, med, q3 = quartiles(seconds[side])
        print(f"  {side:6s} {med:.3f} [{q1:.3f}, {q3:.3f}]")
    ratio = statistics.median(seconds["change"]) / statistics.median(seconds["base"])
    print(f"  change/base median x{ratio:.3f}; change faster in {wins}/{args.pairs} pairs")
    for side in trees:
        for name in ARTIFACTS:
            for digest in sorted(hashes[side][name]):
                print(f"  {side:6s} sha256 {name:14s} {digest}")
    same = hashes["base"] == hashes["change"] and all(
        len(seen) == 1 for side in hashes.values() for seen in side.values())
    print(f"  artifacts {'identical' if same else 'DIFFER'} across trees and runs")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
