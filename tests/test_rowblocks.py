"""Row blocks and the shard pool behind the blocked forward and base score."""

import os
import time

import numpy as np
import pytest

from manifold_dsm import rowblocks
from manifold_dsm.mlp import MlpConfig, forward, init_params


@pytest.mark.parametrize("n", [0, 1, 2, 511, 512, 513, 1024, 1025, 1026, 10001])
def test_row_blocks_cover_the_batch_without_a_one_row_tail(n):
    blocks = rowblocks.row_blocks(n)
    assert [start for start, _ in blocks] == list(range(0, n, 512))[: len(blocks)]
    assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
    assert (blocks[-1][1] if blocks else 0) == n
    sizes = [stop - start for start, stop in blocks]
    assert all(2 <= s <= 513 for s in sizes) or sizes == [1]


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_map_shards_splits_blocks_into_contiguous_shards_in_order(monkeypatch, workers):
    monkeypatch.setattr(rowblocks, "_WORKERS", workers)
    blocks = rowblocks.row_blocks(5 * 512)
    shards = rowblocks.map_shards(list, blocks)
    assert len(shards) == min(workers, 5)
    assert [b for shard in shards for b in shard] == blocks
    assert max(map(len, shards)) - min(map(len, shards)) <= 1
    assert rowblocks.map_shards(list, []) == []


def test_map_shards_waits_for_every_shard_and_raises_the_first_failure(monkeypatch):
    monkeypatch.setattr(rowblocks, "_WORKERS", 3)
    done = []

    def shard(blocks):
        start = blocks[0][0]
        if start == 0:
            raise KeyError("first")
        time.sleep(0.05)
        done.append(start)
        if start == 1024:
            raise ValueError("third")
        return start

    with pytest.raises(KeyError, match="first"):
        rowblocks.map_shards(shard, rowblocks.row_blocks(3 * 512))
    assert sorted(done) == [512, 1024]


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
