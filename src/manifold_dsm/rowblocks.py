"""One contiguous row range, or run of row blocks, per CPU, run on a thread pool.

The sampler evaluates its score field on every sample at once (10k rows and
more) and the trainer regresses on a batch of a few hundred rows.  The trainer
splits its rows with `worker_rows`: one near-equal contiguous range per CPU
the process may use, once a batch reaches BLOCK_ROWS rows.  The sampler's
forward cuts its rows into a grid of near-equal blocks of at most BLOCK_ROWS
rows that depends on the row count alone, and `worker_blocks` deals each CPU
one contiguous run of whole blocks.  `split_rows` is the one near-equal cut
behind the ranges, the grid and the runs, and `map_shards` runs one function
per range or run.  The trainer splits only work whose result for a row does
not depend on how many rows come with it, which the tests compare byte for
byte with full-batch reference passes; the forward's blocks are compared with
a reference pass per block of the same grid.

The calling thread runs the first range and a pool, created on first use,
the others.  Pool threads run their range in a copy of the caller's
`contextvars` context, so `np.errstate` set by the caller holds there too.

When the pool starts it sets numpy's bundled OpenBLAS to one thread, whose
own threads would compete with the pool's for the same CPUs.  A thread count
set in the environment wins, and a BLAS this does not recognise is left alone.
"""

from __future__ import annotations

import contextvars
import os
import threading

BLOCK_ROWS = 512


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


_WORKERS = _cpus()
_pool = None
_pool_lock = threading.Lock()
_on_pool = threading.local()  # .thread is set on the pool's own threads


def _drop_pool() -> None:
    # a forked child inherits the pool object but not its threads, and the
    # lock in whatever state a parent thread left it
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _one_blas_thread() -> None:
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        import ctypes

        import numpy as np

        try:  # numpy's extension module resolves the symbols of the BLAS it links
            ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_(1)
        except (AttributeError, OSError):
            pass


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _one_blas_thread()
            _pool = ThreadPoolExecutor(max_workers=max(_WORKERS - 1, 1),
                                       thread_name_prefix="rowblocks",
                                       initializer=setattr, initargs=(_on_pool, "thread", True))
        return _pool


def split_rows(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """[start, stop) bounds of `parts` contiguous pieces of [lo, hi) whose
    sizes differ by at most one row."""
    n = hi - lo
    return [(lo + n * k // parts, lo + n * (k + 1) // parts) for k in range(parts)]


def worker_rows(n: int) -> list[tuple[int, int]]:
    """One near-equal contiguous range per worker, of at least two rows each,
    once n >= BLOCK_ROWS; else the one range (0, n), since a pool round trip
    costs more than splitting a smaller batch saves."""
    return split_rows(0, n, min(_WORKERS, n // 2) if n >= BLOCK_ROWS else 1)


def worker_blocks(n: int) -> list[list[tuple[int, int]]]:
    """The ceil(n / BLOCK_ROWS) near-equal blocks of n rows, dealt out as one
    contiguous run of whole blocks per worker, at most one run per block.
    The blocks depend on n alone, so a per-block result does not depend on
    the worker count; each holds 256 to 512 rows once n > BLOCK_ROWS."""
    blocks = split_rows(0, n, -(-n // BLOCK_ROWS))
    return [blocks[a:b] for a, b in split_rows(0, len(blocks), min(_WORKERS, len(blocks)))]


def map_shards(fn, items: list) -> list:
    """[fn(item) for item in items], one item per worker.

    The first item runs on the caller's thread and the rest on the pool.  A
    single item, one worker, or a call from a pool thread (where waiting on
    its own pool could deadlock) runs them all inline.  Every item is waited
    for, and the first failing item's exception is raised.
    """
    if len(items) <= 1 or _WORKERS == 1 or getattr(_on_pool, "thread", False):
        return [fn(item) for item in items]
    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items[1:]]
    try:
        results = [fn(items[0])]
    finally:
        for f in futures:
            f.exception()  # wait, so no item still writes when this returns or raises
    return results + [f.result() for f in futures]
