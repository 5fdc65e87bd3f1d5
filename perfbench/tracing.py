"""Spans around the calls into each module, recorded from outside `src/`.

Each function is wrapped at the attribute its caller looks it up through
(`cli.forward`, not `mlp.forward`), so a caller that imported the function by
another route escapes the wrapper.  The benchmark compares every call count
with its expected value, so such an escape reads as a failure, not as a zero.

Spans live in memory as [name, parent index, start, end, items, flop,
activation bytes]; self time is a span's duration minus its children's.
Items are rows for the MLP and base score calls and Euler-Maruyama steps for
the sampler.  Rows, flop and activation bytes are computed from the call arguments and
`MlpConfig.layer_shapes()`, counting matmul flop only (2 per multiply-add).
The per-layer split into matmul, bias, activation and finite check needs spans
inside the program and is not measured here.

`geometry` has no hot path in either workload and is left unmeasured.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from manifold_dsm import basescore, cli, diffusion, mlp

# name -> (module, attribute); "cli.main" is the root span of each `mdsm` call
WRAPPED = {
    "cli.main": (cli, "main"),
    "cli.train": (cli, "train"),
    "cli.reverse_sample": (cli, "reverse_sample"),
    "cli.forward": (cli, "forward"),
    "cli.base_score": (cli, "base_score"),
    "cli.build_dataset": (cli, "build_dataset"),
    "cli.save_checkpoint": (cli, "save_checkpoint"),
    "cli.load_checkpoint": (cli, "load_checkpoint"),
    "cli.discrete_tv": (cli, "discrete_tv"),
    "cli.manifold_drift": (cli, "manifold_drift"),
    "mlp.backward": (mlp, "backward"),
    "mlp.adam_step": (mlp, "adam_step"),
    "diffusion.perturb": (diffusion, "perturb"),
    "diffusion.mad_target": (diffusion, "mad_target"),
    "diffusion.dsm_target": (diffusion, "dsm_target"),
    "diffusion.base_score": (diffusion, "base_score"),
    "basescore.bessel_ratio_i0_i1": (basescore, "bessel_ratio_i0_i1"),
}


def _branches(config) -> int:
    return 2 if config.antisymmetrize else 1


def forward_flop_per_row(config) -> int:
    return _branches(config) * sum(2 * a * b for a, b in config.layer_shapes())


def backward_flop_per_row(config) -> int:
    """Forward, weight gradient, and input gradient of every layer but the first."""
    shapes = config.layer_shapes()
    per_branch = sum(2 * a * b * (3 if i > 0 else 2) for i, (a, b) in enumerate(shapes))
    return _branches(config) * per_branch


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) > 1 else 1


def _forward_work(params, config, x, sigma):
    rows = _rows(x)
    return rows, rows * forward_flop_per_row(config), rows * config.hidden_dim * 8


def _backward_work(params, config, x, target, sigma):
    rows = _rows(x)
    return rows, rows * backward_flop_per_row(config), rows * config.hidden_dim * 8


def _first_arg_rows(x, *args, **kwargs):
    return _rows(x), 0, 0


def _sample_steps(field, schedule, n, *args, **kwargs):
    return schedule.num_scales - 1, 0, 0


WORK = {
    "cli.forward": _forward_work,
    "mlp.backward": _backward_work,
    "cli.base_score": _first_arg_rows,
    "diffusion.base_score": _first_arg_rows,
    "cli.reverse_sample": _sample_steps,
}


@contextmanager
def patched(names, wrap):
    """Swap each named WRAPPED attribute for wrap(name, original), then restore."""
    saved = {name: getattr(*WRAPPED[name]) for name in names}
    try:
        for name, fn in saved.items():
            setattr(*WRAPPED[name], wrap(name, fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(*WRAPPED[name], fn)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            items, flop, act = work(*args, **kwargs) if work else (0, 0, 0)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, items, flop, act]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive and self seconds, items, flop, max activation bytes."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: dict(calls=0, s=0.0, self_s=0.0, items=0, flop=0, act=0))
        for i, (name, _, t0, t1, items, flop, act) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["items"] += items
            agg["flop"] += flop
            agg["act"] = max(agg["act"], act)
        return out


def span_cost_s(reps: int = 20000) -> float:
    """Measured cost of one traced call over a plain one, on the forward work hook."""
    from manifold_dsm.mlp import MlpConfig

    config = MlpConfig(input_dim=2)
    x = np.zeros((4, 2))
    noop = lambda params, config, x, sigma: None
    traced = Tracer().wrap("calibrate", noop, _forward_work)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            noop(None, config, x, 1.0)
        t1 = time.perf_counter()
        for _ in range(reps):
            traced(None, config, x, 1.0)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / reps)
    return max(best, 0.0)


def per_layer(tot: dict, chains: int, wall_s: float, cpu_s: float, bytes_written: float,
              span_cost: float) -> dict[str, tuple[float, str]]:
    """Per-chain per-layer metrics from span totals over `chains` chains."""
    g = lambda name, key: tot[name][key] / chains if name in tot else 0.0
    fwd_s, bwd_s = g("cli.forward", "s"), g("mlp.backward", "s")
    spans = sum(a["calls"] for a in tot.values()) / chains
    self_sum = sum(a["self_s"] for a in tot.values()) / chains
    act = max((tot[n]["act"] for n in ("cli.forward", "mlp.backward") if n in tot), default=0)
    return {
        "mlp.backward_s": (bwd_s, "s"),
        "mlp.backward_calls": (g("mlp.backward", "calls"), "count"),
        "mlp.backward_rows": (g("mlp.backward", "items"), "rows"),
        "mlp.backward_gflop_per_s": (g("mlp.backward", "flop") / 1e9 / bwd_s if bwd_s else 0.0, "GFLOP/s"),
        "mlp.adam_step_s": (g("mlp.adam_step", "s"), "s"),
        "mlp.adam_step_calls": (g("mlp.adam_step", "calls"), "count"),
        "mlp.train_self_s": (g("cli.train", "self_s"), "s"),
        "mlp.forward_s": (fwd_s, "s"),
        "mlp.forward_calls": (g("cli.forward", "calls"), "count"),
        "mlp.forward_rows": (g("cli.forward", "items"), "rows"),
        "mlp.forward_gflop": (g("cli.forward", "flop") / 1e9, "GFLOP"),
        "mlp.forward_gflop_per_s": (g("cli.forward", "flop") / 1e9 / fwd_s if fwd_s else 0.0, "GFLOP/s"),
        "mlp.activation_mb": (act / 1e6, "MB"),
        "mlp.save_checkpoint_s": (g("cli.save_checkpoint", "s"), "s"),
        "mlp.load_checkpoint_s": (g("cli.load_checkpoint", "s"), "s"),
        "diffusion.perturb_s": (g("diffusion.perturb", "s"), "s"),
        "diffusion.target_self_s": (g("diffusion.mad_target", "self_s") + g("diffusion.dsm_target", "self_s"), "s"),
        "diffusion.reverse_sample_self_s": (g("cli.reverse_sample", "self_s"), "s"),
        "diffusion.reverse_sample_steps": (g("cli.reverse_sample", "items"), "count"),
        "basescore.base_score_self_s": (g("cli.base_score", "self_s") + g("diffusion.base_score", "self_s"), "s"),
        "basescore.base_score_calls": (g("cli.base_score", "calls") + g("diffusion.base_score", "calls"), "count"),
        "basescore.base_score_rows": (g("cli.base_score", "items") + g("diffusion.base_score", "items"), "rows"),
        "bessel.ratio_i0_i1_s": (g("basescore.bessel_ratio_i0_i1", "s"), "s"),
        "bessel.ratio_i0_i1_calls": (g("basescore.bessel_ratio_i0_i1", "calls"), "count"),
        "datasets.build_dataset_s": (g("cli.build_dataset", "s"), "s"),
        "metrics.discrete_tv_s": (g("cli.discrete_tv", "s"), "s"),
        "metrics.manifold_drift_s": (g("cli.manifold_drift", "s"), "s"),
        "cli.self_s": (g("cli.main", "self_s"), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "process.cpu_s": (cpu_s, "s"),
        "trace.coverage_frac": (self_sum / wall_s, "1"),
        "trace.overhead_frac": (spans * span_cost / wall_s, "1"),
    }
