"""Time whole-process `mdsm train` or `mdsm sample` runs from two source trees
in alternating pairs.

    python tools/train_pairs.py BASE_TREE CHANGE_TREE [--pairs 10]
        [--workload ring|s3] [--loss-kind mad|dsm] [--phase train|sample]
        [--taskset]

Each tree is a checkout of this repository; its `src/` goes first on
PYTHONPATH.  Pair k runs the base tree first when k is even and the change
first when k is odd, each time as a fresh `python -m manifold_dsm.cli` process
writing into its own temporary directory, under `taskset -c 0` with
--taskset.  The timing is the wall time of the whole process, so it includes
start-up and every allocation the program makes, unlike a speed-adjusted
benchmark figure.  As in perfbench, BLAS and OpenMP pools run one thread
unless the environment sets them; the first line printed gives the settings
in effect.

Workloads: `ring` is the README's ring run (relu 128x3, batch 512, 2000
steps, seed 2, dataset seed 102); `s3` is the antisymmetrized silu 64x3 S^3
run at batch 128 (1000 steps, seed 2, dataset seed 202).  Both train the
`mad` target unless --loss-kind dsm asks for the plain one.

Phases: `train` times `mdsm train` and compares `checkpoint.bin` and
`loss.csv`.  `sample` first trains one checkpoint with the base tree (not
timed), then times `mdsm sample --num-scales 300` from it, at n = 10000 with
seed 502 on the ring and n = 4096 with seed 602 on S^3, and compares
`samples.csv` and `metrics.log`.

Prints every pair, then per tree the median and quartiles of the seconds,
the number of pairs the change won, and the sha256 of each compared artifact
(one line per distinct value seen).  Then one verdict line per tree, on
whether its runs wrote one hash per artifact, and one line comparing the
trees.  When the trees' `loss.csv` differ, it also prints each tree's loss
tail and the largest per-step loss difference between the trees
(`loss_gap`); when their `samples.csv` differ, each tree's logged drift and
the largest absolute coordinate difference between the two trees' samples
(`sample_gap`); both from each tree's first run.  Exits 1 if either
tree's runs disagree, 2 if each tree is reproducible but the trees wrote
different bytes (as a change that moves bytes on purpose does), and 0 if
every run wrote the same bytes.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
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
SAMPLES = {"ring": (10_000, 502), "s3": (4096, 602)}  # `mdsm sample` --n and --seed
SAMPLE_SCALES = 300
ARTIFACTS = {"train": ("checkpoint.bin", "loss.csv"), "sample": ("samples.csv", "metrics.log")}
TEXTS = {"train": ("loss.csv",), "sample": ARTIFACTS["sample"]}  # what the gap reports read
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_config(workload: str, loss_kind: str) -> dict:
    """The `mdsm train` run config of `workload`, training `loss_kind`."""
    config = CONFIGS[workload]
    return {**config, "training": {**config["training"], "loss_kind": loss_kind}}


def run_once(tree: Path, argv: list[str], out: Path, taskset: bool) -> float:
    """Wall seconds of one `mdsm <argv> --out <out>` process from `tree`."""
    env = {**dict.fromkeys(THREAD_VARS, "1"), **os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-m", "manifold_dsm.cli", *argv, "--out", str(out)]
    if taskset:
        argv = ["taskset", "-c", "0"] + argv
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


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
    parser.add_argument("--loss-kind", choices=("mad", "dsm"), default="mad")
    parser.add_argument("--phase", choices=sorted(ARTIFACTS), default="train")
    parser.add_argument("--taskset", action="store_true", help="run each process on CPU 0 only")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "manifold_dsm").is_dir():
            parser.error(f"{tree} has no src/manifold_dsm")
    with tempfile.TemporaryDirectory() as tmp:
        return compare(trees, args, Path(tmp))


def compare(trees: dict[str, Path], args, tmp: Path) -> int:
    """Run the pairs with their files under tmp, print the summary, and return
    the exit status."""
    cfg = tmp / "run.json"
    cfg.write_text(json.dumps(run_config(args.workload, args.loss_kind)))
    command = ["train", "--config", str(cfg)]
    if args.phase == "sample":
        run_once(trees["base"], command, tmp / "checkpoint", args.taskset)
        n, seed = SAMPLES[args.workload]
        command = ["sample", "--checkpoint", str(tmp / "checkpoint" / "checkpoint.bin"),
                   "--n", str(n), "--num-scales", str(SAMPLE_SCALES), "--seed", str(seed)]
    artifacts = ARTIFACTS[args.phase]

    threads = {var: os.environ.get(var, "1") for var in THREAD_VARS}
    print(" ".join(f"{var}={value}" for var, value in threads.items()), flush=True)
    seconds = {side: [] for side in trees}
    hashes = {side: {name: set() for name in artifacts} for side in trees}
    first = {}  # per tree, the text of its first run's TEXTS
    wins = 0
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            out = tmp / "out"
            seconds[side].append(run_once(trees[side], command, out, args.taskset))
            for name in artifacts:
                hashes[side][name].add(hashlib.sha256((out / name).read_bytes()).hexdigest())
            if side not in first:
                first[side] = {name: (out / name).read_text() for name in TEXTS[args.phase]}
            shutil.rmtree(out)
        wins += seconds["change"][-1] < seconds["base"][-1]
        print(f"pair {k + 1:2d} ({order[0]} first): base {seconds['base'][-1]:.3f} s, "
              f"change {seconds['change'][-1]:.3f} s", flush=True)

    pin = " under taskset -c 0" if args.taskset else ""
    kind = "" if args.loss_kind == "mad" else f" ({args.loss_kind})"
    print(f"\n{args.workload}{kind} mdsm {args.phase}, {args.pairs} pairs{pin}: "
          "median [q1, q3] seconds")
    for side in trees:
        q1, med, q3 = quartiles(seconds[side])
        print(f"  {side:6s} {med:.3f} [{q1:.3f}, {q3:.3f}]")
    ratio = statistics.median(seconds["change"]) / statistics.median(seconds["base"])
    print(f"  change/base median x{ratio:.3f}; change faster in {wins}/{args.pairs} pairs")
    for side in trees:
        for name in artifacts:
            for digest in sorted(hashes[side][name]):
                print(f"  {side:6s} sha256 {name:14s} {digest}")
    lines, status = verdict(hashes)
    name, gap = ("loss.csv", loss_gap) if args.phase == "train" else ("samples.csv", sample_gap)
    if hashes["base"][name] != hashes["change"][name]:
        lines += gap(first)
    for line in lines:
        print(f"  {line}")
    return status


def loss_gap(outputs: dict[str, dict[str, str]]) -> list[str]:
    """How far two trees' `mdsm train` runs are apart, from the text of each
    tree's `loss.csv`: one line per tree with its loss tail, the mean loss
    over the second half of the steps as perfbench's `loss_tail` takes it,
    then one with the largest absolute difference between the trees' losses
    at one step, or a note that the curves differ in length."""
    lines, curves = [], []
    for side, files in outputs.items():
        curve = [float(row.split(",")[1]) for row in files["loss.csv"].splitlines()[1:]]
        tail = curve[len(curve) // 2:]
        lines.append(f"{side}: loss tail {statistics.fmean(tail)!r}" if tail
                     else f"{side}: loss tail none")
        curves.append(curve)
    base, change = curves
    if len(base) != len(change):
        return lines + ["loss curves differ in length: no per-step gap"]
    gap = max((abs(a - b) for a, b in zip(base, change)), default=0.0)
    return lines + [f"largest |base - change| per-step loss: {gap!r}"]


def sample_gap(outputs: dict[str, dict[str, str]]) -> list[str]:
    """How far two trees' `mdsm sample` runs are apart, from the text of each
    tree's `samples.csv` and `metrics.log`: one line per tree with the drift
    values its log holds, then one with the largest absolute difference
    between the trees' sample coordinates, or a note that the sample tables
    differ in shape."""
    lines, tables = [], []
    for side, files in outputs.items():
        drift = [field.removeprefix("value=") for line in files["metrics.log"].splitlines()
                 if line.startswith("name=manifold_drift ")
                 for field in line.split() if field.startswith("value=")]
        lines.append(f"{side}: logged drift {', '.join(drift) or 'none'}")
        tables.append([[float(v) for v in row.split(",")]
                       for row in files["samples.csv"].splitlines()[1:]])
    base, change = tables
    if [len(row) for row in base] != [len(row) for row in change]:
        return lines + ["samples differ in shape: no coordinate gap"]
    gap = max((abs(a - b) for ra, rb in zip(base, change) for a, b in zip(ra, rb)), default=0.0)
    return lines + [f"largest |base - change| sample coordinate: {gap!r}"]


def verdict(hashes: dict[str, dict[str, set[str]]]) -> tuple[list[str], int]:
    """Verdict lines and exit status from each tree's set of sha256 digests
    per artifact: 1 if a tree wrote more than one digest for an artifact, 2 if
    each tree wrote one but the trees differ, 0 if all are the same."""
    lines, reproducible = [], True
    for side, seen in hashes.items():
        varied = [name for name, digests in seen.items() if len(digests) != 1]
        reproducible &= not varied
        lines.append(f"{side}: " + (f"NOT reproducible ({', '.join(varied)} varied across runs)"
                                    if varied else "reproducible, one sha256 per artifact"))
    first, *rest = hashes.values()
    same = all(seen == first for seen in rest)
    lines.append(f"trees {'identical' if same else 'DIFFER'}: {' vs '.join(hashes)}")
    return lines, 1 if not reproducible else 0 if same else 2


if __name__ == "__main__":
    raise SystemExit(main())
