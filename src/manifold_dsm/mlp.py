"""Score/correction MLP with manual backprop, Adam, and checkpoint I/O.

The network consumes [x || embed(sigma)], where embed is log(sigma) (default)
or sin/cos features of log(sigma) at dyadic frequencies, and outputs a vector
field over the ambient space.  The final layer initializes to zero so a fresh
mad model starts exactly at the base score.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import threading
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace

import numpy as np

from .errors import CheckpointFormatError, TrainingDivergedError
from .rowblocks import BLOCK_ROWS, map_shards, worker_blocks

__all__ = [
    "MlpConfig",
    "NetworkParams",
    "NetworkGrads",
    "init_params",
    "forward",
    "backward",
    "adam_step",
    "train",
    "drop_workspace",
    "save_checkpoint",
    "load_checkpoint",
    "json_fields",
]

_MAGIC = b"SCORENET"
_VERSION = 1

# JSON types a field of each annotated type accepts
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "tuple": list}


def json_fields(cls, data: dict) -> dict:
    """Keyword arguments for the dataclass `cls` from the JSON object `data`.

    Every key must name a field of `cls` and hold a value of the field's JSON
    type; an int is accepted, and stored as a float, for a float field, which
    must be finite (Python's json reads NaN and Infinity).  Raises ValueError.
    """
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in types:
            raise ValueError(f"unknown key {key!r}")
        want = _JSON_TYPES[types[key]]
        if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
            raise ValueError(f"{key} must be {types[key]}, got {value!r}")
        # nan, inf and an int past the float range all fail `<=`
        if types[key] == "float" and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{key} must be finite, got {value!r}")
        kwargs[key] = float(value) if types[key] == "float" else value
    return kwargs


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_dim: int = 128
    num_hidden_layers: int = 3
    activation: str = "silu"
    sigma_embedding: str = "log_sigma_concat"
    fourier_dim: int = 0
    antisymmetrize: bool = False

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_dim < 1 or self.num_hidden_layers < 1:
            raise ValueError("input_dim, hidden_dim, num_hidden_layers must be >= 1")
        if self.activation not in ("relu", "silu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.sigma_embedding == "log_sigma_concat":
            if self.fourier_dim != 0:
                raise ValueError("fourier_dim only applies to the fourier embedding")
        elif self.sigma_embedding == "fourier":
            if self.fourier_dim < 2 or self.fourier_dim % 2 != 0:
                raise ValueError("fourier embedding needs a positive even fourier_dim")
        else:
            raise ValueError(f"unknown sigma_embedding {self.sigma_embedding!r}")

    @property
    def embed_dim(self) -> int:
        return 1 if self.sigma_embedding == "log_sigma_concat" else self.fourier_dim

    def layer_shapes(self) -> list[tuple[int, int]]:
        dims = (
            [self.input_dim + self.embed_dim]
            + [self.hidden_dim] * self.num_hidden_layers
            + [self.input_dim]
        )
        return list(zip(dims[:-1], dims[1:]))


def _flat_size(shapes) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in shapes)


@dataclass
class _FlatLayers:
    """Per-layer arrays in one vector `flat`, laid out w0, b0, w1, b1, ...
    for layers of (fan_in, fan_out) `shapes`; `weights` and `biases` are views
    into it."""

    flat: np.ndarray
    shapes: list[tuple[int, int]]

    def __post_init__(self):
        if self.flat.shape != (_flat_size(self.shapes),):
            raise ValueError("flat vector does not match the layer shapes")
        self.weights, self.biases, off = [], [], 0
        for fan_in, fan_out in self.shapes:
            self.weights.append(self.flat[off : off + fan_in * fan_out].reshape(fan_in, fan_out))
            off += fan_in * fan_out
            self.biases.append(self.flat[off : off + fan_out])
            off += fan_out

    def __reduce__(self):  # a copy builds its views over its own copy of flat
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class NetworkParams(_FlatLayers):
    """Layer weights and biases in the flat layout, with Adam moments `m` and
    `v` of the same size; moments not given start at zero."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0

    def __post_init__(self):
        super().__post_init__()
        self.m = np.zeros_like(self.flat) if self.m is None else self.m
        self.v = np.zeros_like(self.flat) if self.v is None else self.v


class NetworkGrads(_FlatLayers):
    """Loss gradients in the parameters' flat layout."""


def init_params(config: MlpConfig, rng: np.random.Generator) -> NetworkParams:
    """Scaled-uniform init, except the final layer which starts at zero."""
    shapes = config.layer_shapes()
    params = NetworkParams(np.zeros(_flat_size(shapes)), shapes)
    for w, b in zip(params.weights[:-1], params.biases):
        bound = 1.0 / np.sqrt(w.shape[0])
        w[:] = rng.uniform(-bound, bound, w.shape)
        b[:] = rng.uniform(-bound, bound, b.shape)
    return params


def _embed_sigma(config: MlpConfig, sigma: np.ndarray, n: int) -> np.ndarray:
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (n,))
    if not np.all(np.isfinite(sig) & (sig > 0.0)):
        raise ValueError("sigma must be positive and finite")
    log_sig = np.log(sig)
    if config.sigma_embedding == "log_sigma_concat":
        return log_sig[:, None]
    # dyadic ladder starting at 1/8 so the slowest component stays injective
    # over schedules spanning up to ~25 e-folds of sigma
    freqs = 2.0 ** np.arange(config.fourier_dim // 2) / 8.0
    ang = log_sig[:, None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _finite(z: np.ndarray) -> bool:
    return bool(np.isfinite(z).all())


def _diverged(layer: int) -> TrainingDivergedError:
    return TrainingDivergedError(f"non-finite activations at layer {layer}")


_BOUND = 1e37  # a layer bound below this proves the layer finite in float32


def _bounded(params: NetworkParams, *inputs: np.ndarray) -> bool:
    """Whether no layer of the float32 net can hold nan or inf on the float64
    input columns `inputs`, with the float64 `params`.

    With a_0 = max |input| and a_{i+1} = 2 (a_i max_j sum_k |W_kj| + max_j |b_j|),
    a_{i+1} bounds layer i's matmul output, since |relu(z)| <= |z| and
    |silu(z)| = |z/2| (1 + tanh(z/2)) <= |z|, which rounding keeps because
    0 <= 1 + tanh <= 2 holds exactly; the factor 2 covers the rounding of the
    float32 cast, the matmul and the bound itself.  Every a_i and every
    column sum below _BOUND, which float32 holds with room to spare, proves
    every weight and every layer finite, the output layer's included, in
    float32 and so in float64.  nan or inf in the input, weights that break
    the bound and the empty batch give False.  `forward` and `backward` check
    their layers for nan or inf only where this gives False.
    """
    if any(h.size == 0 for h in inputs):
        return False
    with np.errstate(all="ignore"):
        a = max(np.abs(h).max() for h in inputs)
        for w, b in zip(params.weights, params.biases):
            col = np.abs(w).sum(axis=0).max()
            if not (a < _BOUND and col < _BOUND):
                return False
            a = 2.0 * (a * col + np.abs(b).max())
    return bool(a < _BOUND)


def _layers(params: _FlatLayers, silu: bool, h, zs, sgs, acts, check=True):
    """Run every layer from input h: layer i's matmul into zs[i] and, below
    the output layer, silu's 1 + tanh(z/2) into sgs[i] and its activation
    into acts[i], which may be zs[i].  Returns the first layer with a
    non-finite entry, or None, as it does untested with `check` false."""
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(h, w, out=zs[i])
        z += b
        if check and not _finite(z):
            return i
        if i == last:
            return None
        if silu:  # (z/2) * sg with sg = 1 + tanh(z/2) = 2 sigmoid(z)
            h = np.multiply(z, 0.5, out=acts[i])
            sg = np.tanh(h, out=sgs[i])
            sg += 1.0
            h *= sg
        else:
            h = np.maximum(z, 0.0, out=acts[i])


def _walk(params: _FlatLayers, config: MlpConfig, h, zs, sgs, acts, dest, check: bool):
    """Run the net by `_layers` into zs on h, whose first len(dest) rows hold
    [x || embed]; without antisymmetrize zs[-1] is dest.  With it, the odd
    net: h's next len(dest) rows take the mirror [-x || embed], one walk
    runs over both halves, and if it fails at no layer, dest gets
    (top - bottom) / 2 of zs[-1].  Returns the walk's first non-finite
    layer, or None."""
    rows = len(dest)
    if config.antisymmetrize:
        h[rows:] = h[:rows]
        np.negative(h[rows:, : config.input_dim], out=h[rows:, : config.input_dim])
    layer = _layers(params, config.activation == "silu", h, zs, sgs, acts, check)
    if layer is None and config.antisymmetrize:
        np.subtract(zs[-1][:rows], zs[-1][rows:], out=dest)
        dest *= 0.5
    return layer


def _blocked_forward(params: _FlatLayers, config: MlpConfig, ws: SimpleNamespace,
                     check: bool, out: np.ndarray) -> None:
    """Run the net on the input rows in ws.inputs into `out`, one `_walk` per
    block of `worker_blocks`' grid while the block's rows stay in cache.

    A GEMM's bytes depend on its row count (OpenBLAS runs a few rows through
    other kernels, GEMV for one), so blocks that depend on the row count
    alone keep the bytes independent of the CPU count.  With antisymmetrize
    a block's rows are copied into the stacked block input, over which
    `_walk` builds the odd net.  With `check`, the error names the lowest
    failing layer over all blocks.
    """
    layers = len(params.weights) - 1

    def run_blocks(shard):  # per block of the run: its first non-finite layer, or None
        blocks, pair, stack_in, stack_out = shard
        failed = []
        for start, stop in blocks:
            rows = stop - start
            h, dest = ws.inputs[start:stop], out[start:stop]
            top = dest  # the output layer's rows: dest itself, or the stacked block output
            if stack_in is not None:
                h, top = stack_in[: 2 * rows], stack_out[: 2 * rows]
                h[:rows] = ws.inputs[start:stop]
            # hidden layer i writes zs[i + 1] and 1 + tanh(z/2) into zs[i], its input if i > 0
            zs = [pair[(i + 1) % 2][: len(h)] for i in range(layers + 1)]
            failed.append(_walk(params, config, h, zs[1:] + [top], zs, zs[1:], dest, check))
        return failed

    failed = [f for run in map_shards(run_blocks, ws.shards) for f in run if f is not None]
    if failed:
        raise _diverged(min(failed))


def forward(params: NetworkParams, config: MlpConfig, x, sigma) -> np.ndarray:
    """Network output for a batch, as a fresh float64 array; odd in x when
    antisymmetrize is set.  The net runs in float32 on a copy of the
    parameters taken at each call, so weights edited in place are seen; an
    input or weight past float32's range becomes inf, and the lowest
    non-finite layer over all blocks is named.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != config.input_dim:
        raise ValueError(f"expected input dim {config.input_dim}, got {x.shape[1]}")
    emb = _embed_sigma(config, sigma, x.shape[0])
    ws = _forward_workspace(config, x.shape[0])
    check = not _bounded(params, x, emb)  # -x has the same bound
    with np.errstate(over="ignore"):  # past float32's range: inf, which a layer check names
        ws.params.flat[:] = params.flat
        ws.inputs[:, : config.input_dim] = x
        ws.inputs[:, config.input_dim :] = emb
    out = np.empty((x.shape[0], config.input_dim), dtype=np.float32)
    _blocked_forward(ws.params, config, ws, check, out)
    return out.astype(np.float64)


# the calling thread's one workspace (forward or training) and Adam temporaries, if any
_workspaces = threading.local()


def _slot(key, build) -> SimpleNamespace:
    """The calling thread's workspace for `key`.  A workspace under another
    key is released before `build()` makes this one, so at most one is alive."""
    if getattr(_workspaces, "ws", None) is None or _workspaces.ws.key != key:
        _workspaces.ws = None  # no local name may keep the old one alive
        _workspaces.ws = build()
        _workspaces.ws.key = key
    return _workspaces.ws


def drop_workspace() -> None:
    """Release the calling thread's workspace and Adam temporaries."""
    _workspaces.ws = _workspaces.adam = None


def _forward_workspace(config: MlpConfig, n: int) -> SimpleNamespace:
    """float32 buffers for a forward on n rows: the parameter copy, the
    assembled input, and per run of `worker_blocks` the run's blocks, two
    hidden block buffers and, with antisymmetrize, the stacked block input and
    output (else None), all owned by the caller, so pool threads keep none."""
    runs = worker_blocks(n)
    shapes = config.layer_shapes()
    width = config.input_dim + config.embed_dim
    anti = config.antisymmetrize

    def build():
        block = lambda cols: np.empty((min(n, BLOCK_ROWS) * (1 + anti), cols), dtype=np.float32)
        return SimpleNamespace(
            params=_FlatLayers(np.empty(_flat_size(shapes), dtype=np.float32), shapes),
            inputs=np.empty((n, width), dtype=np.float32),
            shards=[(blocks, (block(config.hidden_dim), block(config.hidden_dim)),
                     block(width) if anti else None, block(config.input_dim) if anti else None)
                    for blocks in runs],
        )

    return _slot(("forward", tuple(shapes), n, anti, tuple(map(tuple, runs))), build)


def _workspace(config: MlpConfig, rows: int) -> SimpleNamespace:
    """The calling thread's workspace for a training step on a stacked input
    of `rows` rows (2n with antisymmetrize)."""
    shapes = config.layer_shapes()
    silu = config.activation == "silu"

    def build():
        new = lambda dims, dtype=np.float64: [np.empty(d, dtype=dtype) for d in dims]
        hidden = [(rows, fan_out) for _, fan_out in shapes[:-1]]
        zs = new(hidden + [(rows, config.input_dim)])
        return SimpleNamespace(
            input=np.empty((rows, shapes[0][0])), zs=zs,
            sgs=new(hidden) if silu else [], acts=new(hidden) if silu else zs[:-1],
            params=_FlatLayers(np.empty(_flat_size(shapes), dtype=np.float32), shapes),
            posts=new([(rows, shapes[0][0]), (rows, config.hidden_dim)], np.float32),
            ups=new(hidden, np.float32),
            prods=new(shapes, np.float32),
        )

    return _slot((tuple(shapes), rows, config.activation), build)


def backward(params: NetworkParams, config: MlpConfig, x, residual_target, sigma):
    """Loss mean ||sigma f - target||^2 over rows, and its parameter gradients.

    One float64 `_walk` on [x || embed], stacked over [-x || embed] with
    antisymmetrize, gives the loss and its output gradient g, or the first
    non-finite layer to name.  From g, stacked over -g and halved with
    antisymmetrize, each layer from the last down adds each half's post.T @ g
    and g.sum(axis=0), positive half first, taken in float32 on casts of the
    weights, g and the layer's input post, into a fresh float64 vector, and g
    becomes (g @ W.T) * act'.  Summing per half rounds as a pass per branch
    does and keeps an odd net's output bias gradient exactly 0.  A product
    past float32's range makes the gradient non-finite quietly.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.atleast_2d(np.asarray(residual_target, dtype=np.float64))
    if x.shape != t.shape or x.shape[1] != config.input_dim:
        raise ValueError("batch and targets must align with the network input dim")
    n, dim = x.shape
    emb = _embed_sigma(config, sigma, n)
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (n,))[:, None]

    scales = (0.5, -0.5) if config.antisymmetrize else (1.0,)
    halves = [slice(k * n, (k + 1) * n) for k in range(len(scales))]
    ws = _workspace(config, len(scales) * n)
    h = ws.input
    h[:n, :dim], h[:n, dim:] = x, emb
    out = ws.zs[-1][:n]
    failed = _walk(params, config, h, ws.zs, ws.sgs, ws.acts, out, not _bounded(params, x, emb))
    if failed is not None:
        raise _diverged(failed)

    resid = sig * out - t
    loss = float(np.mean(np.sum(resid * resid, axis=1)))
    d_out = 2.0 * sig * resid / n
    grads = NetworkGrads(np.zeros_like(params.flat), params.shapes)
    w = ws.params.weights
    silu = config.activation == "silu"
    with np.errstate(over="ignore", invalid="ignore"):  # past float32's range: inf or nan
        ws.params.flat[:] = params.flat
        g = np.concatenate([d_out * scale for scale in scales], dtype=np.float32)
        for i in reversed(range(len(w))):  # g: the loss gradient at layer i's matmul
            post = ws.posts[min(i, 1)]  # layer i's input, then act' of layer i - 1
            post[:] = ws.acts[i - 1] if i else h
            for rows in halves:
                grads.weights[i] += np.matmul(post[rows].T, g[rows], out=ws.prods[i])
                grads.biases[i] += g[rows].sum(axis=0)
            if i:
                g = np.matmul(g, w[i].T, out=ws.ups[i - 1])
                if silu:  # silu'(z) = (sg/2) (1 + z - silu(z)), in float64 over act
                    a = np.subtract(ws.zs[i - 1], ws.acts[i - 1], out=ws.acts[i - 1])
                    a += 1.0
                    a *= ws.sgs[i - 1]
                    np.multiply(a, 0.5, out=post)
                else:  # relu's output is > 0 exactly where its input is
                    np.greater(ws.acts[i - 1], 0.0, out=post)
                g *= post
    return loss, grads


def _adam_scratch(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The calling thread's two Adam temporaries for a parameter vector of size."""
    scratch = getattr(_workspaces, "adam", None)
    if scratch is None or scratch[0].size != size:
        scratch = _workspaces.adam = (np.empty(size), np.empty(size))
    return scratch


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's standard moment decays and denominator floor


def adam_step(params: NetworkParams, grads: NetworkGrads, lr: float) -> NetworkParams:
    """Standard bias-corrected Adam, applied in place as one pass over the
    flat vectors.

    The parameters and both moments are overwritten in the arrays `params`
    already owns; the same object is returned with its step advanced.  The
    gradient and moment vectors must match the parameter vector in size; a
    mismatch raises ValueError before anything is updated.
    """
    p, g, m, v = params.flat, grads.flat, params.m, params.v
    if not p.shape == g.shape == m.shape == v.shape:
        raise ValueError("gradient and moment vectors must match the parameter vector in size")
    t = params.step + 1
    c1 = 1.0 - _BETA1**t
    c2 = 1.0 - _BETA2**t
    step, denom = _adam_scratch(p.size)
    # same rounding as p - lr * (m/c1) / (sqrt(v/c2) + eps) with
    # m = beta1 m + (1-beta1) g and v = beta2 v + ((1-beta2) g) g
    np.multiply(g, 1.0 - _BETA1, out=step)
    m *= _BETA1
    m += step
    np.multiply(g, 1.0 - _BETA2, out=denom)
    denom *= g
    v *= _BETA2
    v += denom
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += _EPS
    np.divide(m, c1, out=step)
    step *= lr
    step /= denom
    p -= step
    params.step = t
    return params


def train(
    config: MlpConfig,
    loss_kind: str,
    dataset: np.ndarray,
    manifold,
    schedule,
    steps: int,
    batch_size: int,
    lr: float,
    seed: int,
):
    """Sequential Adam loop over perturbed minibatches; deterministic per seed.

    Each step: sample rows with replacement, draw one noise scale per row
    uniformly over the schedule's discrete levels, perturb, regress against
    the dsm or mad residual target.  Returns (params, per-step loss array).

    Steps share the calling thread's `_workspace`, dropped however training
    ends.
    """
    from .diffusion import dsm_target, mad_target, perturb

    if loss_kind not in ("dsm", "mad"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    dataset = np.asarray(dataset, dtype=np.float64)
    if dataset.ndim != 2 or dataset.shape[0] == 0:
        raise ValueError("dataset must be a nonempty (n, d) array")
    if dataset.shape[1] != config.input_dim:
        raise ValueError("dataset dimension does not match the network input_dim")
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    curve = np.empty(steps)
    try:
        for step in range(steps):
            x0 = dataset[rng.integers(dataset.shape[0], size=batch_size)]
            sig = schedule.sigmas[rng.integers(schedule.num_scales, size=batch_size)]
            xt = perturb(x0, sig, rng)
            if loss_kind == "dsm":
                target = dsm_target(x0, xt, sig)
            else:
                target = mad_target(x0, xt, sig, manifold)
            loss, grads = backward(params, config, xt, target, sig)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at step {step}", step=step)
            if not _finite(grads.flat):  # float32 products can overflow where float64 did not
                raise TrainingDivergedError(f"non-finite gradient at step {step}", step=step)
            params = adam_step(params, grads, lr)
            curve[step] = loss
    finally:
        drop_workspace()
    return params, curve


def save_checkpoint(path, params: NetworkParams, config: MlpConfig, extras: dict | None = None):
    """Write magic | version | header_len | JSON header (config, layer shapes,
    caller extras) | little-endian float64 parameters | sha256 of all before;
    the header's config follows a run config's `model` rules (`json_fields`)."""
    header = {
        "config": asdict(config),
        "layer_shapes": [list(s) for s in config.layer_shapes()],
        "extras": extras or {},
    }
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<II", _VERSION, len(hdr))
    blob += hdr
    blob += params.flat.astype("<f8", copy=False).tobytes()
    blob += hashlib.sha256(bytes(blob)).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_checkpoint(path):
    """Read a checkpoint; returns (params, config, extras).

    Adam state is not persisted: loaded parameters carry fresh moments.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 8 + 32:
        raise CheckpointFormatError("checkpoint file is truncated")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointFormatError("bad magic; not a checkpoint file")
    digest = blob[-32:]
    if hashlib.sha256(blob[:-32]).digest() != digest:
        raise CheckpointFormatError("checksum mismatch; file corrupted")
    off = len(_MAGIC)
    version, hdr_len = struct.unpack_from("<II", blob, off)
    off += 8
    if version != _VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(blob[off : off + hdr_len].decode("utf-8"))
        config = MlpConfig(**json_fields(MlpConfig, header["config"]))
        extras = header.get("extras", {})
        if not isinstance(extras, dict):
            raise ValueError(f"extras must be a JSON object, got {extras!r}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointFormatError(f"invalid checkpoint header: {exc}") from exc
    off += hdr_len
    shapes = config.layer_shapes()
    if header.get("layer_shapes") != [list(s) for s in shapes]:
        raise CheckpointFormatError("layer shapes in header disagree with config")
    size = _flat_size(shapes)
    if off + size * 8 != len(blob) - 32:
        raise CheckpointFormatError("layer data truncated" if off + size * 8 > len(blob) - 32
                                    else "trailing bytes after layer data")
    flat = np.frombuffer(blob, dtype="<f8", count=size, offset=off).astype(np.float64)
    return NetworkParams(flat, shapes), config, extras
