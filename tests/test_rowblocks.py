"""The row cut, the block grid and the thread pool behind the sampling forward,
and the BLAS thread count set at import."""

import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from manifold_dsm import rowblocks
from manifold_dsm.mlp import MlpConfig, forward, init_params


def in_subprocess(script, env=os.environ):
    """Run a Python script in a fresh interpreter with env; it must print "ok"."""
    env = {**env, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_map_shards_returns_results_in_item_order(monkeypatch, workers):
    monkeypatch.setattr(rowblocks, "_WORKERS", workers)

    def item(k):
        time.sleep(0.01 * (5 - k))  # later items finish first
        return k * k

    assert rowblocks.map_shards(item, list(range(5))) == [0, 1, 4, 9, 16]
    assert rowblocks.map_shards(item, []) == []


@pytest.mark.parametrize("workers,items", [(1, 4), (3, 1)])
def test_map_shards_runs_on_the_caller_with_one_item_or_one_worker(monkeypatch, workers, items):
    monkeypatch.setattr(rowblocks, "_WORKERS", workers)
    names = rowblocks.map_shards(lambda _: threading.current_thread().name, list(range(items)))
    assert names == [threading.current_thread().name] * items


def test_map_shards_waits_for_every_shard_and_raises_the_first_failure(monkeypatch):
    monkeypatch.setattr(rowblocks, "_WORKERS", 3)
    done = []

    def item(k):
        if k == 0 and not done:
            raise KeyError("first")
        time.sleep(0.05)
        done.append(k)
        if k:
            raise ValueError(f"item {k}")
        return k

    with pytest.raises(KeyError, match="first"):
        rowblocks.map_shards(item, [0, 1, 2])
    assert sorted(done) == [1, 2]
    # the caller's item succeeds: the first failing pool item is raised
    with pytest.raises(ValueError, match="item 1"):
        rowblocks.map_shards(item, [0, 1, 2])


@pytest.mark.parametrize("lo,hi,parts", [(0, 0, 1), (0, 7, 7), (5, 1030, 2), (512, 10000, 19),
                                         (3, 4, 1), (100, 1637, 3)])
def test_split_rows_cuts_near_equal_contiguous_pieces(lo, hi, parts):
    pieces = rowblocks.split_rows(lo, hi, parts)
    assert len(pieces) == parts
    assert pieces[0][0] == lo and pieces[-1][1] == hi
    assert all(stop == start for (_, stop), (start, _) in zip(pieces, pieces[1:]))
    sizes = [stop - start for start, stop in pieces]
    assert max(sizes) - min(sizes) <= 1


def test_map_shards_called_on_a_pool_thread_runs_inline():
    # with two workers the pool has one thread; a nested call that waited on
    # the pool from that thread would wait for itself forever
    in_subprocess("""
        import threading
        from manifold_dsm import rowblocks

        rowblocks._WORKERS = 2

        def inner(item):
            return threading.current_thread().name, item

        def outer(items):
            return rowblocks.map_shards(inner, items)

        first, second = rowblocks.map_shards(outer, [[0, 1], [2, 3]])
        assert [item for r in (first, second) for _, item in r] == [0, 1, 2, 3]
        caller = threading.current_thread().name
        assert first[0][0] == caller != first[1][0]  # a nested call off the pool still spreads
        assert second[0][0] == second[1][0] != caller
        print("ok")
    """)


def test_batches_under_a_block_never_start_the_pool():
    # a training batch runs on the calling thread, and a sampling batch of
    # 511 rows is one block, run there too
    in_subprocess("""
        import numpy as np
        from manifold_dsm import rowblocks
        from manifold_dsm.mlp import MlpConfig, backward, forward, init_params

        rowblocks._WORKERS = 2
        cfg = MlpConfig(input_dim=4, hidden_dim=64, activation="silu", antisymmetrize=True)
        params = init_params(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((128, 4))
        backward(params, cfg, x, rng.standard_normal((128, 4)), 0.3)
        forward(params, cfg, rng.standard_normal((511, 4)), 0.3)
        assert rowblocks._pool is None
        print("ok")
    """)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def bundled_openblas():
    import ctypes

    try:
        return ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None


@pytest.mark.skipif(bundled_openblas() is None, reason="numpy without its bundled OpenBLAS")
@pytest.mark.parametrize("setting", [None, *BLAS_THREAD_VARS])
def test_pool_start_sets_one_blas_thread_unless_the_environment_does(setting):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if setting:
        env[setting] = "2"
    in_subprocess(f"""
        import ctypes
        import numpy as np
        from manifold_dsm import rowblocks

        get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
        before = get()
        rowblocks._WORKERS = 2
        assert rowblocks.map_shards(abs, [-1, -2]) == [1, 2] and rowblocks._pool is not None
        assert get() == (before if {bool(setting)} else 1), (before, get())
        print("ok")
    """, env)


@pytest.mark.skipif(bundled_openblas() is None, reason="numpy without its bundled OpenBLAS")
def test_import_sets_one_blas_thread():
    # the training step runs on the calling thread and never starts the pool,
    # so one BLAS thread must hold from import on, at every batch size
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    in_subprocess("""
        import ctypes
        import numpy as np
        import manifold_dsm.mlp
        from manifold_dsm import rowblocks

        get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
        assert get() == 1 and rowblocks._pool is None, get()
        print("ok")
    """, env)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forward_works_in_a_forked_child(monkeypatch):
    # the child inherits the pool object but not its threads
    monkeypatch.setattr(rowblocks, "_WORKERS", 2)
    cfg = MlpConfig(input_dim=2, hidden_dim=8)
    params = init_params(cfg, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((2048, 2))
    want = forward(params, cfg, x, 0.3).tobytes()
    assert rowblocks._pool is not None
    pid = os.fork()
    if pid == 0:
        os._exit(0 if forward(params, cfg, x, 0.3).tobytes() == want else 1)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done and os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
