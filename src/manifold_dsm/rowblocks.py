"""The sampling forward's grid of row blocks, one run of blocks per CPU, the
thread pool that runs them, and the one OpenBLAS thread set at import (see
README).

Pool threads work in a copy of the caller's `contextvars` context, so
`np.errstate` set by the caller holds there too.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading

import numpy as np

BLOCK_ROWS = 1024


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
    # OpenBLAS's own threads would compete with the pool's for the same CPUs
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        try:  # numpy's extension module resolves the symbols of the BLAS it links
            ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_(1)
        except (AttributeError, OSError):
            pass


_one_blas_thread()


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=max(_WORKERS - 1, 1),
                                       thread_name_prefix="rowblocks",
                                       initializer=setattr, initargs=(_on_pool, "thread", True))
        return _pool


def split_rows(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """[start, stop) bounds of `parts` contiguous pieces of [lo, hi) whose
    sizes differ by at most one row."""
    n = hi - lo
    return [(lo + n * k // parts, lo + n * (k + 1) // parts) for k in range(parts)]


def worker_blocks(n: int) -> list[list[tuple[int, int]]]:
    """Near-equal blocks of n rows, one up to BLOCK_ROWS // 2 rows, else an
    even count (equal runs for two workers) of 256-512 rows up to BLOCK_ROWS
    and 512-BLOCK_ROWS beyond, dealt out as one contiguous run of whole
    blocks per worker, at most one run per block.  The blocks depend on n
    alone, so a per-block result does not depend on the worker count."""
    parts = 2 * -(-n // (2 * BLOCK_ROWS)) if n > BLOCK_ROWS // 2 else min(n, 1)
    blocks = split_rows(0, n, parts)
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
