"""Recurrent generator of per-step causal graph pairs.

For every window of T_in ticks the model emits, per step, a lag-0 graph
(contemporaneous edges, diagonal forced to zero) and a lag-1 graph (edges
from the previous tick), both with entries in (0, 1):

1. node features per tick: the reading, the time of day, and optionally a
   prior-graph convolution of the reading;
2. pairwise correlation features: multi-head scaled dot products (no
   softmax; raw correlation strengths, not attention weights) between the
   current tick and itself (lag 0) or the previous tick (lag 1), flattened
   to one row per ordered node pair;
3. two disjoint GRUs carry the pairwise features across steps, one per lag;
4. a three-layer 1x1 convolution head turns each pair's hidden state into
   an edge logit, pushed through a sigmoid at low temperature; training
   adds a two-sample Gumbel perturbation so near-binary graphs keep
   gradients, evaluation is deterministic;
5. the graph pair reconstructs each tick's readings from its parents'
   readings (lag-0 parents at the same tick, lag-1 parents at the previous
   one) through a small MLP; the reconstruction error is the
   structure-learning fit term. A node's own current reading never enters
   its reconstruction: lag-0 aggregation is a single hop over a graph with
   a zero diagonal.

Steps are indexed 2..T_in: each needs a predecessor tick. Graphs at step t
depend only on ticks 1..t (the recurrence never looks ahead).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import write_table
from .errors import ConfigError, ShapeError
from .graphops import GconvParams, gconv_spectral
from .numerics import Params, Tensor, concat, glorot_uniform, no_grad
from .numerics.tensor import _from_op, _stable_sigmoid, _tracking, _unbroadcast

# Columns of every graph edge CSV: estimated graphs, true graphs, static graph files.
EDGE_CSV_HEADER = ["window_start_ts", "step", "lag", "src_id", "dst_id", "weight"]

# Lag 0 (edges within a tick) and lag 1 (edges from the previous tick).
LAGS = 2
# Threads that run the GRU and graph-head tasks: one per core of the two-core
# machine the kernels were measured on; BLAS runs one thread inside each.
WORKERS = 2
# Row partitions per lag. No pair's rows meet another's, so each partition
# runs through every step as one task. With 4 per lag, a task that a busy
# host starves holds back at most an eighth of a kernel's work, and each
# task's (rows, H) arrays are a quarter of the lag's.
PARTS = 4
# The dtype of the windows that `graph_stacks` and `constraint.train_grcsl` hand the forward
# pass, and so of the pair kernels' arithmetic (`gru_step`, `graph_head`).
PAIR_DTYPE = np.float32


# --------------------------------------------------------------------- #
# parameter containers
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class GrcslDims:
    """Width configuration of the structure learner, checked when built."""

    heads: int = 4
    d_att: int = 16
    h_r: int = 32
    d_s: int = 8
    h_m: int = 32
    sem_width: int = 16
    gconv_layers: int = 2
    tau: float = 0.2
    use_prior: bool = True

    @property
    def d_feat(self) -> int:
        return 2 + (self.d_s if self.use_prior else 0)

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ConfigError(f"temperature must be positive, got {self.tau}")
        for name in ("heads", "d_att", "h_r", "h_m", "sem_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.use_prior and self.d_s < 1:
            raise ConfigError("d_s must be >= 1 when the prior branch is on")


@dataclass
class AttnParams(Params):
    """Query/key projections of every head, (heads, d_in, d_att) each, shared by both lags."""

    w_q: Tensor
    w_k: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_att: int, heads: int) -> "AttnParams":
        shape = (heads, d_in, d_att)
        return cls(
            w_q=Tensor(glorot_uniform(rng, d_in, d_att, shape), requires_grad=True),
            w_k=Tensor(glorot_uniform(rng, d_in, d_att, shape), requires_grad=True),
        )


@dataclass
class GruCells(Params):
    """Every lag's recurrent cell over pairwise features, stacked on a leading lag axis L.

    The gates are [r, z, h~]: `w_c` (L, 3, d_in, H) holds their input
    weights, `w_h` (L, 2, H, H) the recurrent weights of r and z, `w_hh`
    (L, H, H) h~'s weights on r * h, and `b` (L, 3, H) their biases.
    """

    w_c: Tensor
    w_h: Tensor
    w_hh: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, lags: int, d_in: int, hidden: int) -> "GruCells":
        # Lag by lag, the input and recurrent weights of r, z and h~ in turn: w_cr, w_hr, ..., w_ch, w_hh.
        draws = [[glorot_uniform(rng, fan_in, hidden) for fan_in in (d_in, hidden) * 3] for _ in range(lags)]
        return cls(
            w_c=Tensor(np.array([lag[0::2] for lag in draws]), requires_grad=True),
            w_h=Tensor(np.array([lag[1:4:2] for lag in draws]), requires_grad=True),
            w_hh=Tensor(np.array([lag[5] for lag in draws]), requires_grad=True),
            b=Tensor(np.zeros((lags, 3, hidden)), requires_grad=True),
        )


@dataclass
class GraphHeads(Params):
    """Every lag's three stacked 1x1 convolutions mapping hidden state to an edge logit.

    Each weight has a leading lag axis L: `w1` and `w2` are (L, H, H), `b1`
    and `b2` (L, H), `w3` (L, H, 1) and `b3` (L, 1). Acting per node pair, a
    1x1 convolution over the unflattened hidden map is exactly a shared
    affine map over the channel axis, which is how it is implemented here.
    The final bias starts at -1 so initial graphs lean sparse:
    sigmoid(-1 / tau) is small at low temperature.
    """

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, lags: int, hidden: int) -> "GraphHeads":
        # Lag by lag: w1, w2, w3.
        draws = [[glorot_uniform(rng, hidden, width) for width in (hidden, hidden, 1)] for _ in range(lags)]
        w1, w2, w3 = (Tensor(np.array(w), requires_grad=True) for w in zip(*draws))
        return cls(
            w1=w1, b1=Tensor(np.zeros((lags, hidden)), requires_grad=True),
            w2=w2, b2=Tensor(np.zeros((lags, hidden)), requires_grad=True),
            w3=w3, b3=Tensor(np.full((lags, 1), -1.0), requires_grad=True),
        )


@dataclass
class SemParams(Params):
    """Reconstruction head: one projection per lag's parent sum, then a two-layer MLP."""

    w_intra: Tensor
    w_inter: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, width: int, h_m: int) -> "SemParams":
        return cls(
            w_intra=Tensor(glorot_uniform(rng, 1, width), requires_grad=True),
            w_inter=Tensor(glorot_uniform(rng, 1, width), requires_grad=True),
            w1=Tensor(glorot_uniform(rng, width, h_m), requires_grad=True),
            b1=Tensor(np.zeros(h_m), requires_grad=True),
            w2=Tensor(glorot_uniform(rng, h_m, 1), requires_grad=True),
            b2=Tensor(np.zeros(1), requires_grad=True),
        )


@dataclass
class GrcslParams(Params):
    """All trainable weights of the structure learner."""

    dims: GrcslDims
    attn: AttnParams
    gru: GruCells
    head: GraphHeads
    sem: SemParams
    feature_gconv: GconvParams | None = None  # prior branch, absent when use_prior is off

    @classmethod
    def init(cls, rng: np.random.Generator, dims: GrcslDims) -> "GrcslParams":
        feature = GconvParams.init(rng, 1, dims.d_s, dims.gconv_layers) if dims.use_prior else None
        return cls(
            dims=dims,
            attn=AttnParams.init(rng, dims.d_feat, dims.d_att, dims.heads),
            gru=GruCells.init(rng, LAGS, dims.heads, dims.h_r),
            head=GraphHeads.init(rng, LAGS, dims.h_r),
            sem=SemParams.init(rng, dims.sem_width, dims.h_m),
            feature_gconv=feature,
        )


# --------------------------------------------------------------------- #
# emitted graphs
# --------------------------------------------------------------------- #


@dataclass
class CausalGraphSeq:
    """Per-step graph pairs for one window.

    intra[j] / inter[j] are the lag-0 / lag-1 graphs of window step j + 2
    (the first step with a predecessor), each (N, N) with entries in [0, 1]
    and a zero lag-0 diagonal. Entry (i, j) weights the edge j -> i.
    """

    intra: np.ndarray  # (S, N, N)
    inter: np.ndarray  # (S, N, N)
    start_index: int = 0
    start_ts: int = 0

    def __post_init__(self):
        self.intra = np.asarray(self.intra, dtype=np.float64)
        self.inter = np.asarray(self.inter, dtype=np.float64)
        if self.intra.shape != self.inter.shape or self.intra.ndim != 3:
            raise ShapeError("graph sequence arrays must share shape (S, N, N)")
        if self.intra.shape[-1] != self.intra.shape[-2]:
            raise ShapeError("graphs must be square")
        for name, arr in (("intra", self.intra), ("inter", self.inter)):
            if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both comparisons
                raise ValueError(f"{name} entries must lie in [0, 1]")
        if self.intra.size and np.abs(np.diagonal(self.intra, axis1=-2, axis2=-1)).max() > 0:
            raise ValueError("lag-0 graphs must have zero diagonals")

    @property
    def steps(self) -> int:
        return self.intra.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.intra.shape[-1]


# --------------------------------------------------------------------- #
# forward pieces
# --------------------------------------------------------------------- #


def extract_features(
    values: Tensor,
    tod: Tensor,
    prior: np.ndarray | None,
    params: GrcslParams,
) -> Tensor:
    """Per-tick node features: reading, time of day, optional prior smoothing.

    `values` and `tod` are (..., N, 1); the result is (..., N, d_feat).
    """
    parts = [values, tod]
    if params.dims.use_prior:
        if prior is None or params.feature_gconv is None:
            raise ConfigError("prior branch enabled but no prior graph given")
        parts.append(gconv_spectral(values, prior, params.feature_gconv))
    return concat(parts, axis=-1)


def _part(rows: int, k: int) -> slice:
    """Partition k of `rows` rows, one of PARTS nearly equal slices."""
    return slice(rows * k // PARTS, rows * (k + 1) // PARTS)


def _map_rows(body: Callable[[int, int], object], lags: int) -> list[list]:
    """body(lag, k) for every lag and row partition k on WORKERS threads: per lag, the results in partition order.

    The threads live for this call only. Every task has ended before it
    returns, and the first error in task order is raised, so no thread
    outlives a kernel call and a forked child inherits none.

    A body does numpy arithmetic on arrays only and writes only into its own
    rows: it makes no Tensor and touches no tape, so every tape op and
    gradient accumulation stays on the calling thread, and which thread runs
    a task never changes a bit. The parameter gradients are summed partition
    by partition, and BLAS may round a product of fewer rows differently, so
    another PARTS may move results in their last bits.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, so that no CLI start-up pays for it

    with ThreadPoolExecutor(WORKERS) as pool:  # leaving the block waits for every task
        futures = [[pool.submit(body, lag, k) for k in range(PARTS)] for lag in range(lags)]
    return [[future.result() for future in lag_futures] for lag_futures in futures]


def msdot(q: Tensor, keys: Sequence[Tensor], attn: AttnParams) -> Tensor:
    """Multi-head scaled dot products of one query node set with one key node set per lag.

    `q` and the L key sets are (..., N, d_in); entry (l, ..., i, j, m) of the
    (L, ..., N, N, heads) result is the head-m correlation of node i's query
    with node j's key in set l, scaled by 1 / sqrt(d_att). No softmax: these
    are correlation strengths, not attention weights. One tape op that
    projects the queries once and keeps only its inputs: the backward
    projects again instead of keeping the projections.
    """
    w_q, w_k = attn.w_q.data, attn.w_k.data
    scale = 1.0 / float(np.sqrt(w_q.shape[-1]))
    qr, *krs = (x.data.reshape(x.shape[:-2] + (1,) + x.shape[-2:]) for x in (q, *keys))  # a heads axis
    qp = qr @ w_q  # (..., heads, N, d_att)
    out = np.stack([np.moveaxis((qp @ (kr @ w_k).swapaxes(-1, -2)) * scale, -3, -1) for kr in krs])
    if not _tracking(q, *keys, attn.w_q, attn.w_k):
        return Tensor(out)

    def backward_fn(g: np.ndarray) -> None:
        # The composed ops' rules in their order (scale, scores, projections), lag by lag: their bits.
        qp, key_grads, grads = qr @ w_q, [], []
        for g_l, kr in zip(g, krs):
            g_s = np.moveaxis(g_l, -1, -3) * scale
            d_qp = g_s @ (kr @ w_k)
            d_kp = (qp.swapaxes(-1, -2) @ g_s).swapaxes(-1, -2)
            grads += [(q, _unbroadcast(d_qp @ w_q.swapaxes(-1, -2), qr.shape).reshape(q.shape))]
            grads += [(attn.w_q, qr.swapaxes(-1, -2) @ d_qp), (attn.w_k, kr.swapaxes(-1, -2) @ d_kp)]
            key_grads.append(_unbroadcast(d_kp @ w_k.swapaxes(-1, -2), kr.shape))
        # q's own gradients come first: a key set may be q itself.
        for x, grad in grads + [(k, d.reshape(k.shape)) for k, d in zip(keys, key_grads)]:
            if x.requires_grad:
                x._accum(grad)

    return _from_op(out, (q, *keys, attn.w_q, attn.w_k), backward_fn)


def gru_step(c: Tensor, h0: Tensor, cells: GruCells) -> Tensor:
    """Each lag's recurrence over a window: the stacks of states after every step.

    Lag l runs slice l of the cells: r = sigmoid(c w_c[l, 0] + h w_h[l, 0] + b[l, 0]),
    z = sigmoid(c w_c[l, 1] + h w_h[l, 1] + b[l, 1]),
    h~ = tanh(c w_c[l, 2] + (r * h) w_hh[l] + b[l, 2]), and the next state
    is z * h + (1 - z) * h~, starting from h = h0[l]. `c`
    is (L, S, ..., P, d_in) and `h0` is (L, ..., P, H); the result is
    (L, S, ..., P, H). One tape op: each lag's (..., P) rows are split into
    PARTS partitions, and each partition runs through every step as one task
    on 2-D rows (`_map_rows`). A task's gate products land gate-major in one
    (3, rows, H) block [r, z, h~], reused at every step, so every elementwise
    op runs on contiguous memory; its biases are tiled to that shape once and
    its temporaries live in preallocated scratch, so no step allocates a
    temporary. The op keeps only its inputs and the states: the backward
    recomputes each step's gate block from the state before it with the
    forward's own arithmetic, so the gates it differentiates are the
    forward's bit for bit.

    The recurrence runs in the dtype of `h0`: `c` and the cells' weights
    are cast to it on entry, and so are the states, the scratch and their
    gradients. The gradients of `c` and of the cells keep those tensors'
    own dtypes (float64 for float64 weights).
    """
    lags, steps, hid = cells.w_c.shape[0], c.shape[1], h0.shape[-1]
    if c.shape[0] != lags or h0.shape[0] != lags or c.shape[2:-1] != h0.shape[1:-1]:
        raise ShapeError(f"gru_step needs ({lags}, S, ..., P, d) and ({lags}, ..., P, H), "
                         f"got {c.shape} and {h0.shape}")
    params = cells.parameters()
    track = _tracking(c, h0, *params)
    h02 = h0.data.reshape(lags, -1, hid)
    dtype = h02.dtype
    c3 = c.data.reshape(lags, steps, -1, c.shape[-1]).astype(dtype, copy=False)
    w_c3, w_h2, w_hh, biases = (p.data.astype(dtype, copy=False) for p in params)
    states, rows = np.empty((lags, steps) + h02.shape[1:], dtype), h02.shape[1]

    def buffers(lag: int, shape: tuple, count: int) -> tuple[np.ndarray, np.ndarray]:
        """One task's `count` (rows, H) scratch arrays, and its biases tiled to (3, rows, H).

        The arrays are one block: allocated one by one, they split the heap's
        free space, and structure training peaked about 10 MB higher.
        """
        return np.empty((count,) + shape, dtype), np.repeat(biases[lag][:, None], shape[0], axis=1)

    def gates(lag: int, j: int, part: slice, h: np.ndarray, scratch: np.ndarray, bias: np.ndarray) -> None:
        """Step j's gate block [r, z, h~] of partition `part` from the state `h` before it, into scratch[:3].

        Forward and backward both run this, so the backward's gates are the
        forward's bit for bit. scratch[3:5] (`a_h`) takes h [w_hr, w_hz], then
        r * h, which it keeps, and its product with w_hh.
        """
        gate, a_h = scratch[:3], scratch[3:5]
        r, _, h_tilde = gate
        np.matmul(c3[lag, j, part], w_c3[lag], out=gate)
        gate[:2] += np.matmul(h, w_h2[lag], out=a_h)
        gate[:2] += bias[:2]
        _stable_sigmoid(gate[:2], out=gate[:2])
        h_tilde += np.matmul(np.multiply(r, h, out=a_h[0]), w_hh[lag], out=a_h[1])
        h_tilde += bias[2]
        np.tanh(h_tilde, out=h_tilde)

    def forward(lag: int, k: int) -> None:  # partition k's states
        part = _part(rows, k)
        h = h02[lag, part]
        scratch, bias = buffers(lag, h.shape, 5)
        _, z, h_tilde, tmp, _ = scratch
        for j in range(steps):
            gates(lag, j, part, h, scratch, bias)
            h = np.multiply(z, h, out=states[lag, j, part])
            h += np.multiply(np.subtract(1.0, z, out=tmp), h_tilde, out=tmp)

    _map_rows(forward, lags)
    out = states.reshape((lags, steps) + h0.shape[1:])
    if not track:
        return Tensor(out)

    def backward_fn(grad: np.ndarray) -> None:
        grad = grad.reshape(states.shape).astype(dtype, copy=False)
        d_c = np.empty(c3.shape, dtype) if c.requires_grad else None
        d_h0 = np.empty(h02.shape, dtype) if h0.requires_grad else None
        # Each lag's weights side by side, (d_in, 3H) and (H, 2H), the gate layout of the (rows, 3H) buffer below.
        w_c, w_h = ([np.concatenate(w, axis=1) for w in stack] for stack in (w_c3, w_h2))

        def backward(lag: int, k: int) -> tuple:  # partition k's parameter gradients
            # Steps in reverse, recomputing each step's gate block from the state before it. The
            # pre-activation gradients are computed gate-major in `d`, then copied once into the
            # (rows, 3H) buffer [r | z | h~] that every product and sum reads; the state's gradient
            # becomes the carry in place.
            part = _part(rows, k)
            h_0 = h02[lag, part]
            scratch, bias = buffers(lag, h_0.shape, 11)
            gate, d, one_minus, d_rh = scratch[:3], scratch[5:8], scratch[8:10], scratch[10]
            r, z, h_tilde, r_h, tmp = scratch[:5]  # r_h: r * h_prev, left by `gates`
            d_rzh = np.empty(h_0.shape[:-1] + (3 * hid,), dtype)
            d_rz, d_h = d_rzh[:, : 2 * hid], d_rzh[:, 2 * hid :]
            carry = d_h0[lag, part] if d_h0 is not None else np.empty(h_0.shape, dtype)
            g_wc, g_wh, g_whh, g_b = 0.0, 0.0, 0.0, 0.0
            for j in reversed(range(steps)):
                g = grad[lag, j, part] if j == steps - 1 else np.add(grad[lag, j, part], carry, out=carry)
                h_prev = states[lag, j - 1, part] if j else h_0
                gates(lag, j, part, h_prev, scratch, bias)
                np.subtract(1.0, gate[:2], out=one_minus)
                np.multiply(g, one_minus[1], out=d[2])
                d[2] *= np.subtract(1.0, np.multiply(h_tilde, h_tilde, out=tmp), out=tmp)
                np.multiply(g, np.subtract(h_prev, h_tilde, out=tmp), out=d[1])
                np.multiply(np.matmul(d[2], w_hh[lag].T, out=d_rh), h_prev, out=d[0])
                d[:2] *= gate[:2]
                d[:2] *= one_minus
                d_rzh.reshape(-1, 3, hid)[:] = d.swapaxes(0, 1)
                g_wc = g_wc + c3[lag, j, part].T @ d_rzh
                g_wh = g_wh + h_prev.T @ d_rz
                g_whh = g_whh + r_h.T @ d_h
                g_b = g_b + d_rzh.sum(axis=0)
                if d_c is not None:
                    np.matmul(d_rzh, w_c[lag].T, out=d_c[lag, j, part])
                if j or d_h0 is not None:
                    np.multiply(g, z, out=carry)
                    d_rh *= r
                    carry += d_rh
                    carry += np.matmul(d_rz, w_h[lag].T, out=d_rh)
            return g_wc, g_wh, g_whh, g_b

        sums = [[sum(grads) for grads in zip(*parts)] for parts in _map_rows(backward, lags)]
        g_wc, g_wh, g_whh, g_b = (np.stack(grads) for grads in zip(*sums))
        # Back from side by side to gate-major, as the cells store them.
        g_wc, g_wh = (g.reshape(lags, -1, g.shape[-1] // hid, hid).swapaxes(1, 2) for g in (g_wc, g_wh))
        for param, grad in zip(params, (g_wc, g_wh, g_whh, g_b.reshape(lags, 3, hid))):
            if param.requires_grad:
                param._accum(grad)
        if d_c is not None:
            c._accum(d_c.reshape(c.shape))
        if d_h0 is not None:
            h0._accum(d_h0.reshape(h0.shape))

    return _from_op(out, (c, h0, *params), backward_fn)


def _gumbel(u: np.ndarray) -> np.ndarray:
    """Standard Gumbel samples from uniform draws."""
    return -np.log(-np.log(np.clip(u, 1e-12, 1.0 - 1e-12)))


def graph_head(
    h: Tensor,
    heads: GraphHeads,
    n: int,
    tau: float,
    noise: np.ndarray | None = None,
) -> Tensor:
    """Map each lag's stack of pairwise hidden states (L, S, ..., N*N, H) to graphs (L, S, ..., N, N).

    Lag l runs slice l of the heads. Without `noise` (evaluation) an edge is
    sigmoid(logit / tau). In training `noise` holds one difference of two
    standard Gumbel samples per edge, of the result's shape, and the edge is
    sigmoid((logit + noise) / tau), a reparameterized near-binary sample.
    Lag 0's diagonal is zeroed. One tape op: each lag's (..., N*N)
    rows are split into PARTS partitions, and each partition's logits at
    every step are one task on 2-D rows (`_map_rows`); the noise, 1/tau, the
    sigmoid and the mask then act on all lags at once. A task writes its
    ReLU layers (and, backward, their gradients) into one scratch array
    reused at every step, and adds b1 and b2 tiled to its rows once, so no
    step allocates a (rows, H) temporary. The op keeps only its input and
    the graphs, and the backward recomputes the two ReLU layers.

    The ReLU layers run in the dtype of `h`, with the heads' weights cast to
    it on entry. The last layer's (rows, H) @ (H, 1) product is taken in
    float64 on the float64 w3, which casts a float32 layer to a float64
    temporary at each step: a float32 matrix-vector product rounds a row by
    its place in the partition, so the batch size would move the graphs by
    1e-7. The logits land in float64 graphs, and the noise, 1/tau, the
    sigmoid and the mask act in float64, so a sigmoid saturated at a low
    temperature keeps its float64 slope. The backward runs in the dtype of
    `h`; the heads' gradients keep their weights' dtype.
    """
    lags = heads.w1.shape[0]
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    if h.ndim < 4 or h.shape[0] != lags or h.shape[-2] != n * n:
        raise ShapeError(f"graph_head needs ({lags}, S, ..., {n * n}, H) hidden states, got {h.shape}")
    params = heads.parameters()
    h3 = h.data.reshape(lags, h.shape[1], -1, h.shape[-1])
    dtype = h3.dtype
    # Per lag: w1, b1, w2, b2, w3, b3, in the dtype of `h`.
    weights = [[p.data[lag].astype(dtype, copy=False) for p in params] for lag in range(lags)]
    steps, rows = h3.shape[1:3]
    graph = np.empty(h.shape[:-2] + (n, n))
    inv_tau = 1.0 / tau

    def buffers(lag: int, part: slice, count: int) -> tuple[np.ndarray, np.ndarray]:
        """`count` (rows, H) scratch arrays of partition `part`, and b1 and b2 tiled to (2, rows, H)."""
        shape = (part.stop - part.start, h3.shape[-1])
        biases = np.repeat(np.stack(weights[lag][1:4:2])[:, None], shape[0], axis=1)
        return np.empty((count,) + shape, dtype), biases

    def hidden(lag: int, j: int, part: slice, y: Sequence[np.ndarray], b: np.ndarray) -> None:  # ReLUs into y
        w1, _, w2 = weights[lag][:3]
        for x, w, y_l, b_l in ((h3[lag, j, part], w1, y[0], b[0]), (y[0], w2, y[1], b[1])):
            np.matmul(x, w, out=y_l)
            y_l += b_l
            np.maximum(y_l, 0.0, out=y_l)

    def forward(lag: int, k: int) -> None:  # partition k's logits, written into `graph`
        part, logits = _part(rows, k), graph.reshape(lags, steps, rows, 1)
        w3, b3 = (p.data[lag] for p in params[4:])  # float64, as the docstring says
        y, b = buffers(lag, part, 2)
        for j in range(steps):
            hidden(lag, j, part, y, b)
            logit = np.matmul(y[1], w3, out=logits[lag, j, part])
            logit += b3

    _map_rows(forward, lags)
    if noise is not None:
        graph += noise
    graph *= inv_tau
    _stable_sigmoid(graph, out=graph)
    graph[0] *= 1.0 - np.eye(n)
    if not _tracking(h, *params):
        return Tensor(graph)

    def backward_fn(g: np.ndarray) -> None:
        d_h = np.empty(h3.shape, dtype) if h.requires_grad else None
        # A masked diagonal entry is 0 in `graph`, so its slope graph * (1 - graph) is 0 too.
        d_logits = (g * graph * (1.0 - graph) * inv_tau).astype(dtype, copy=False).reshape(lags, steps, rows, 1)

        def backward(lag: int, k: int) -> list:  # partition k's parameter gradients
            part, (w1, _, w2, _, w3, _), sums = _part(rows, k), weights[lag], [0.0] * 6
            (y1, y2, d_y1, d_y2), b = buffers(lag, part, 4)
            active = np.empty(y1.shape, dtype=bool)
            for j in range(steps):
                d_logit = d_logits[lag, j, part]
                hidden(lag, j, part, (y1, y2), b)
                np.matmul(d_logit, w3.T, out=d_y2)
                d_y2 *= np.greater(y2, 0.0, out=active)
                np.matmul(d_y2, w2.T, out=d_y1)
                d_y1 *= np.greater(y1, 0.0, out=active)
                grads = (
                    h3[lag, j, part].T @ d_y1, d_y1.sum(axis=0),
                    y1.T @ d_y2, d_y2.sum(axis=0),
                    y2.T @ d_logit, d_logit.sum(axis=0),
                )
                sums = [total + grad for total, grad in zip(sums, grads)]
                if d_h is not None:
                    np.matmul(d_y1, w1.T, out=d_h[lag, j, part])
            return sums

        sums = [[sum(grads) for grads in zip(*parts)] for parts in _map_rows(backward, lags)]
        for param, grads in zip(params, zip(*sums)):
            if param.requires_grad:
                param._accum(np.stack(grads))
        if d_h is not None:
            h._accum(d_h.reshape(h.shape))

    return _from_op(graph, (h, *params), backward_fn)


def sem_reconstruct(
    x_prev: Tensor,
    x_cur: Tensor,
    intra: Tensor,
    inter: Tensor,
    sem: SemParams,
) -> Tensor:
    """Reconstruct a tick's readings from its parents under the graph pair.

    `x_prev` and `x_cur` are the (..., N, 1) readings of the previous and
    the current tick. Node i sees two parent sums: sum_j intra[i, j] x_cur[j]
    over its lag-0 parents and sum_j inter[i, j] x_prev[j] over its lag-1
    parents, itself included when its lag-1 self-loop is on. Both are one
    hop, unnormalized, so an edge counts in proportion to its weight; with
    the zero lag-0 diagonal, x_cur[i] never reaches row i. (A multi-hop
    lag-0 term would hand a node its own reading back around a 2-cycle.)
    A two-layer MLP maps the sums to the (..., N, 1) reconstruction.
    """
    agg = (intra @ x_cur) @ sem.w_intra + (inter @ x_prev) @ sem.w_inter
    hidden = (agg @ sem.w1 + sem.b1).relu()
    return hidden @ sem.w2 + sem.b2


# --------------------------------------------------------------------- #
# full forward
# --------------------------------------------------------------------- #


@dataclass
class GrcslForward:
    """Differentiable outputs of one batched forward pass, step-major.

    `readings` is (T_in, B, N, 1), one slice per window tick. The graph
    stacks `intra` and `inter` are (S, B, N, N) and `reconstructions` is
    (S, B, N, 1), with S = T_in - 1: slice j belongs to window step j + 2,
    and its reconstruction targets readings[j + 1].
    """

    readings: Tensor
    intra: Tensor
    inter: Tensor
    reconstructions: Tensor


def grcsl_forward_batch(
    values: np.ndarray,
    tod: np.ndarray,
    prior: np.ndarray | None,
    params: GrcslParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> GrcslForward:
    """Run the structure learner over a batch of windows.

    `values` and `tod` are (B, T_in, N, 1). Features, correlation scores,
    each lag's recurrence and graph head, and reconstructions cover every
    step in one call each; both GRUs start from zero hidden state at the
    window head, and the same tick features feed both lags. Train mode draws
    all its Gumbel noise up front, in the order a step-by-step pass would.
    The GRUs and graph heads run in the dtype of `values` (float32 windows
    stay float32, anything else is float64); every other op, and the graphs,
    are float64.
    """
    if values.ndim != 4 or values.shape != tod.shape:
        raise ShapeError(f"expected (B, T, N, 1) inputs, got {values.shape} and {tod.shape}")
    b, t_in, n, _ = values.shape
    if t_in < 2:
        raise ShapeError("windows need at least two ticks to form a step")
    dims = params.dims
    readings = Tensor(values.swapaxes(0, 1))
    x = extract_features(readings, Tensor(tod.swapaxes(0, 1)), prior, params)
    cur, prev = x[1:], x[:-1]
    # Lag 0 pairs tick t with itself, lag 1 with tick t - 1; row i * N + j is the ordered pair (i, j).
    c = msdot(cur, (cur, prev), params.attn).reshape((LAGS, t_in - 1, b, n * n, dims.heads))
    noise = None
    if train:
        if rng is None:
            raise ConfigError("train-mode graph sampling needs a random generator")
        g = _gumbel(rng.random((t_in - 1, LAGS, 2, b, n, n)))  # (step, lag, sample, B, N, N)
        noise = (g[:, :, 0] - g[:, :, 1]).swapaxes(0, 1)
    h0 = np.zeros((b, n * n, dims.h_r), readings.data.dtype)
    h0 = Tensor(np.broadcast_to(h0, (LAGS, b, n * n, dims.h_r)))
    h = gru_step(c, h0, params.gru)
    graphs = graph_head(h, params.head, n, dims.tau, noise)
    intra, inter = graphs[0], graphs[1]
    x_hat = sem_reconstruct(readings[:-1], readings[1:], intra, inter, params.sem)
    return GrcslForward(readings=readings, intra=intra, inter=inter, reconstructions=x_hat)


def graph_stacks(
    values: np.ndarray,
    tod: np.ndarray,
    prior: np.ndarray | None,
    params: GrcslParams,
    batch_size: int,
    on_batch: Callable[[slice, GrcslForward], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode graph stacks of every window, generated `batch_size` windows at a time.

    `values` and `tod` are (W, T_in, N, 1). Each batch is cast to
    PAIR_DTYPE, so the pair kernels run in float32, as they do in training.
    Returns the lag-0 and lag-1 stacks, each float64 (W, T_in - 1, N, N);
    slice [k, j] is window k's graph of step j + 2. `on_batch`, if given,
    sees each batch's rows and forward pass in window order, still without
    gradient tracking.
    """
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    w, t_in, n, _ = values.shape
    intra = np.empty((w, t_in - 1, n, n))
    inter = np.empty((w, t_in - 1, n, n))
    with no_grad():
        for lo in range(0, w, batch_size):
            rows = slice(lo, min(lo + batch_size, w))
            batch = (x[rows].astype(PAIR_DTYPE) for x in (values, tod))
            fwd = grcsl_forward_batch(*batch, prior, params, train=False)
            if on_batch is not None:
                on_batch(rows, fwd)
            intra[rows] = fwd.intra.data.swapaxes(0, 1)
            inter[rows] = fwd.inter.data.swapaxes(0, 1)
    return intra, inter


# --------------------------------------------------------------------- #
# export
# --------------------------------------------------------------------- #


def export_graph_edges(
    path: str,
    intra: np.ndarray,
    inter: np.ndarray,
    start_ts: np.ndarray,
    sensor_ids: list[str],
    threshold: float,
) -> int:
    """Write thresholded edges as CSV rows, one per surviving edge.

    `intra` and `inter` are (W, S, N, N) stacks as `graph_stacks` returns
    them and `start_ts` holds the W window start timestamps. Rows run by
    window, then step, then lag, then receiving and sending node. Columns:
    window_start_ts, step, lag, src_id, dst_id, weight. `step` is the
    1-based window position of the receiving tick (first emitted pair is
    step 2). Entry (i, j) of a graph is the edge src=j -> dst=i. Returns the
    number of edge rows written.
    """
    graphs = np.stack([intra, inter], axis=2)  # (W, S, lag, N, N)
    win, step, lag, dst, src = np.nonzero(graphs > threshold)
    weights = graphs[win, step, lag, dst, src]
    ts = np.asarray(start_ts)[win].tolist()
    cells = zip(ts, step.tolist(), lag.tolist(), src.tolist(), dst.tolist(), weights.tolist())
    rows = ((t, j + 2, k, sensor_ids[s], sensor_ids[d], f"{w:.10g}") for t, j, k, s, d, w in cells)
    write_table(path, EDGE_CSV_HEADER, rows)
    return len(weights)
