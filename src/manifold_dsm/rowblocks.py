"""Fixed row blocks of a batch, run in contiguous shards on a thread pool.

The sampler evaluates its score field on every sample at once (10k rows and
more).  Done as one batch, each MLP layer writes an activation several times
the size of a core's L2 and walks over it again for the bias, activation and
finite check.  Done in BLOCK_ROWS-row blocks, the same work stays in cache, and
blocks are independent, so they spread over the CPUs the process may use.

Blocking keeps the bytes.  Callers block only work whose result for a row
does not depend on how many rows come with it: row-wise numpy operations and
the hidden layers' GEMMs, which the tests compare byte for byte with
full-batch reference passes.  A one-row GEMM is the exception, since numpy
sends it to GEMV, so `row_blocks` never ends in a one-row block (it folds
that row into the block before it).  A batch that fits in one block is a
single block, as before.

One worker per CPU this process may run on: the calling thread takes the
first shard and a pool, created on first use, the others.  Pool threads run
their shard in a copy of the caller's `contextvars` context, so `np.errstate`
set by the caller holds there too.
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


def _drop_pool() -> None:
    # a forked child inherits the pool object but not its threads, and the
    # lock in whatever state a parent thread left it
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=max(_WORKERS - 1, 1),
                                       thread_name_prefix="rowblocks")
        return _pool


def row_blocks(n: int) -> list[tuple[int, int]]:
    """[start, stop) bounds of BLOCK_ROWS-row blocks covering n rows, with no
    one-row block unless n is 1."""
    starts = list(range(0, n, BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def map_shards(fn, blocks: list[tuple[int, int]]) -> list:
    """fn(shard) for contiguous shards of `blocks`, one per worker, in order.

    The first shard runs on the caller's thread, the rest on the pool.  Every
    shard is waited for, and the first failing shard's exception is raised.
    """
    if not blocks:
        return []
    workers = min(_WORKERS, len(blocks))
    if workers == 1:
        return [fn(blocks)]
    size, extra = divmod(len(blocks), workers)
    shards, start = [], 0
    for k in range(workers):
        stop = start + size + (k < extra)
        shards.append(blocks[start:stop])
        start = stop
    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, fn, shard) for shard in shards[1:]]
    try:
        results = [fn(shards[0])]
    finally:
        for f in futures:
            f.exception()  # wait, so no shard still writes when this returns or raises
    return results + [f.result() for f in futures]
