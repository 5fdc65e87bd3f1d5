"""Run one workload on several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workload ring_mad --seeds 0-9 --trace 0
    python3 perfbench/collect.py --workload ring_mad --seeds 2 --trace 1 --out perfbench/BASELINE.json

Runs `run.py` once per seed, one after another, and prints for every metric
its median, quartiles (`statistics.quantiles(values, n=4)`) and the distance
between the quartiles as a share of the median.  With `--out`, the summary is
merged into that JSON file under `<workload>/trace<0|1>`, with the run
metadata of the first seed and each seed's metrics, quality values
(`sample_tv` included), speed factor and raw chain times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range like 0-9, or one seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run; default run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs, per_seed, meta, ok = [], [], None, True
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        run_meta = next((json.loads(l[7:]) for l in lines if l.startswith("# meta ")), {})
        meta = meta or run_meta
        ok = ok and result["correct"]
        runs.append({"seed": seed, **result})
        per_seed.append({"seed": seed, "correct": result["correct"],
                         "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                         "quality": run_meta.get("quality"),
                         "speed_factor": run_meta.get("speed_factor"),
                         "chains_raw": run_meta.get("chains_raw")})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed/attempted={result.get('failed')}/{result.get('attempted')}", flush=True)

    summary = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / abs(med) if med else None, "n": len(values)}
        share = summary[name]["iqr_share"]
        print(f"{name:<32} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"iqr/median {'-' if share is None else f'{share:.4f}'} {m['unit']}")
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.is_file() else {}
        doc.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": [r["seed"] for r in runs], "seconds": seconds, "all_correct": ok,
            "meta": meta, "metrics": summary, "per_seed": per_seed,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
