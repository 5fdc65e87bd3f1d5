"""The benchmark's tracer wraps functions by module attribute; they must exist.

`perfbench/tracing.py` patches each (module, attribute) pair in its WRAPPED
table and expects fixed call counts.  A refactor that moves or renames one of
those functions fails here, in the test suite, before it fails the benchmark.
"""

import importlib.util
import json
from pathlib import Path

from manifold_dsm import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_still_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for name, (module, attr) in tracing.WRAPPED.items():
        assert callable(getattr(module, attr, None)), name


def test_sample_calls_forward_and_base_score_once_per_step(tmp_path, monkeypatch):
    # `--trace 1` expects num_scales - 1 calls of each; blocking and worker
    # threads must stay inside them
    cfg = {
        "dataset": {"kind": "discrete_skewed", "n_coords": 8, "decay": 0.8, "seed": 1},
        "manifold": {"kind": "discrete_circle", "n_coords": 8},
        "schedule": {"sigma_min": 1e-3, "sigma_max": 2.0, "num_scales": 10},
        "model": {"hidden_dim": 8, "num_hidden_layers": 2, "activation": "relu"},
        "training": {"loss_kind": "mad", "steps": 2, "batch_size": 16, "lr": 1e-3,
                     "seed": 0, "n_data": 64},
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg))
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    calls = {"forward": 0, "base_score": 0}
    for name in calls:
        real = getattr(cli, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    rc = cli.main(["sample", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                   "--n", "1025", "--num-scales", "7", "--out", str(tmp_path / "s")])
    assert rc == 0
    assert calls == {"forward": 6, "base_score": 6}
