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

import csv
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .graphops import GconvParams, gconv_spectral
from .numerics import Params, Tensor, concat, glorot_uniform, no_grad
from .numerics.tensor import _from_op, _stable_sigmoid, _tracking

__all__ = [
    "GrcslDims",
    "AttnParams",
    "GruCell",
    "GraphHead",
    "SemParams",
    "GrcslParams",
    "CausalGraphSeq",
    "extract_features",
    "msdot",
    "gru_step",
    "graph_head",
    "sem_reconstruct",
    "grcsl_forward_batch",
    "graph_stacks",
    "export_graph_edges",
    "EDGE_CSV_HEADER",
]

# Columns of every graph edge CSV: estimated graphs, true graphs, static graph files.
EDGE_CSV_HEADER = ["window_start_ts", "step", "lag", "src_id", "dst_id", "weight"]


# --------------------------------------------------------------------- #
# parameter containers
# --------------------------------------------------------------------- #


@dataclass
class GrcslDims:
    """Width configuration of the structure learner."""

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

    def validate(self) -> None:
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
class GruCell(Params):
    """One lag's recurrent cell over pairwise features."""

    w_cr: Tensor
    w_hr: Tensor
    b_r: Tensor
    w_cz: Tensor
    w_hz: Tensor
    b_z: Tensor
    w_ch: Tensor
    w_hh: Tensor
    b_h: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, hidden: int) -> "GruCell":
        def inp():
            return Tensor(glorot_uniform(rng, d_in, hidden), requires_grad=True)

        def rec():
            return Tensor(glorot_uniform(rng, hidden, hidden), requires_grad=True)

        def bias():
            return Tensor(np.zeros(hidden), requires_grad=True)

        return cls(
            w_cr=inp(), w_hr=rec(), b_r=bias(),
            w_cz=inp(), w_hz=rec(), b_z=bias(),
            w_ch=inp(), w_hh=rec(), b_h=bias(),
        )


@dataclass
class GraphHead(Params):
    """Three stacked 1x1 convolutions mapping hidden state to an edge logit.

    Acting per node pair, a 1x1 convolution over the unflattened hidden map
    is exactly a shared affine map over the channel axis, which is how it is
    implemented here. The final bias starts at -1 so initial graphs lean
    sparse: sigmoid(-1 / tau) is small at low temperature.
    """

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor
    tau: float

    @classmethod
    def init(cls, rng: np.random.Generator, hidden: int, tau: float) -> "GraphHead":
        if tau <= 0:
            raise ConfigError(f"temperature must be positive, got {tau}")
        return cls(
            w1=Tensor(glorot_uniform(rng, hidden, hidden), requires_grad=True),
            b1=Tensor(np.zeros(hidden), requires_grad=True),
            w2=Tensor(glorot_uniform(rng, hidden, hidden), requires_grad=True),
            b2=Tensor(np.zeros(hidden), requires_grad=True),
            w3=Tensor(glorot_uniform(rng, hidden, 1), requires_grad=True),
            b3=Tensor(np.full(1, -1.0), requires_grad=True),
            tau=tau,
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
    gru_intra: GruCell
    gru_inter: GruCell
    head_intra: GraphHead
    head_inter: GraphHead
    sem: SemParams
    feature_gconv: GconvParams | None = None  # prior branch, absent when use_prior is off

    @classmethod
    def init(cls, rng: np.random.Generator, dims: GrcslDims) -> "GrcslParams":
        dims.validate()
        feature = GconvParams.init(rng, 1, dims.d_s, dims.gconv_layers) if dims.use_prior else None
        return cls(
            dims=dims,
            attn=AttnParams.init(rng, dims.d_feat, dims.d_att, dims.heads),
            gru_intra=GruCell.init(rng, dims.heads, dims.h_r),
            gru_inter=GruCell.init(rng, dims.heads, dims.h_r),
            head_intra=GraphHead.init(rng, dims.h_r, dims.tau),
            head_inter=GraphHead.init(rng, dims.h_r, dims.tau),
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
            if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
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


def msdot(q: Tensor, k: Tensor, attn: AttnParams) -> Tensor:
    """Multi-head scaled dot products between node feature sets.

    Returns (..., N, N, heads); entry (i, j, m) is the head-m correlation of
    node i's query with node j's key, scaled by sqrt(d). No softmax: these
    are correlation strengths, not attention weights.
    """
    scale = 1.0 / float(np.sqrt(attn.w_q.shape[-1]))
    qp = q.reshape(q.shape[:-2] + (1,) + q.shape[-2:]) @ attn.w_q  # (..., heads, N, d_att)
    kp = k.reshape(k.shape[:-2] + (1,) + k.shape[-2:]) @ attn.w_k
    scores = (qp @ kp.swap_last()) * scale  # (..., heads, N, N)
    nd = scores.ndim
    return scores.transpose(tuple(range(nd - 3)) + (nd - 2, nd - 1, nd - 3))


def gru_step(c: Tensor, h_prev: Tensor, cell: GruCell) -> Tensor:
    """One recurrent update; the update gate blends the previous state in.

    r = sigmoid(c w_cr + h w_hr + b_r), z = sigmoid(c w_cz + h w_hz + b_z),
    h~ = tanh(c w_ch + (r * h) w_hh + b_h), and the output is
    z * h + (1 - z) * h~ with h = h_prev. `c` is (..., P, d_in) and `h_prev`
    is (..., P, H) with the same leading axes. One tape op: the forward works
    on 2-D rows and keeps r, z, h~ and r * h for the backward.
    """
    if c.shape[:-1] != h_prev.shape[:-1]:
        raise ShapeError(f"gru_step needs matching leading axes, got {c.shape} and {h_prev.shape}")
    hid = h_prev.shape[-1]
    c2 = c.data.reshape(-1, c.shape[-1])
    h2 = h_prev.data.reshape(-1, hid)
    w_c = np.concatenate([cell.w_cr.data, cell.w_cz.data, cell.w_ch.data], axis=1)
    w_h = np.concatenate([cell.w_hr.data, cell.w_hz.data], axis=1)
    a_cr, a_cz, a_ch = np.split(c2 @ w_c, 3, axis=1)
    a_hr, a_hz = np.split(h2 @ w_h, 2, axis=1)
    r = _stable_sigmoid(a_cr + a_hr + cell.b_r.data)
    z = _stable_sigmoid(a_cz + a_hz + cell.b_z.data)
    rh = r * h2
    h_tilde = np.tanh(a_ch + rh @ cell.w_hh.data + cell.b_h.data)
    out = (z * h2 + (1.0 - z) * h_tilde).reshape(h_prev.shape)
    params = cell.parameters()
    if not _tracking(c, h_prev, *params):
        return Tensor(out)

    def backward_fn(g: np.ndarray) -> None:
        g = g.reshape(-1, hid)
        d_h = g * (1.0 - z) * (1.0 - h_tilde * h_tilde)
        d_z = g * (h2 - h_tilde) * z * (1.0 - z)
        d_rh = d_h @ cell.w_hh.data.T
        d_r = d_rh * h2 * r * (1.0 - r)
        d_c = np.concatenate([d_r, d_z, d_h], axis=1)  # pre-activation grads, [r | z | h~]
        d_rz = d_c[:, : 2 * hid]
        gw_cr, gw_cz, gw_ch = np.split(c2.T @ d_c, 3, axis=1)
        gw_hr, gw_hz = np.split(h2.T @ d_rz, 2, axis=1)
        gb_r, gb_z, gb_h = np.split(d_c.sum(axis=0), 3)
        grads = (gw_cr, gw_hr, gb_r, gw_cz, gw_hz, gb_z, gw_ch, rh.T @ d_h, gb_h)
        for param, grad in zip(params, grads):
            if param.requires_grad:
                param._accum(grad)
        if c.requires_grad:
            c._accum((d_c @ w_c.T).reshape(c.shape))
        if h_prev.requires_grad:
            d_prev = g * z + d_rh * r + d_rz @ w_h.T
            h_prev._accum(d_prev.reshape(h_prev.shape))

    return _from_op(out, (c, h_prev, *params), backward_fn)


def _gumbel(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    u = np.clip(rng.random(shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


def graph_head(
    h: Tensor,
    head: GraphHead,
    n: int,
    train: bool = False,
    rng: np.random.Generator | None = None,
    mask_diag: bool = False,
) -> Tensor:
    """Map pairwise hidden state (..., N*N, H) to a graph (..., N, N).

    Training draws two independent standard Gumbel samples per edge and
    pushes (logit + g1 - g2) / tau through a sigmoid, a reparameterized
    near-binary sample; evaluation uses sigmoid(logit / tau) directly.
    `mask_diag` zeroes the diagonal. One tape op: the forward works on 2-D
    rows and keeps the two hidden ReLU outputs and the graph for the backward.
    """
    if head.tau <= 0:
        raise ConfigError(f"temperature must be positive, got {head.tau}")
    if train and rng is None:
        raise ConfigError("train-mode graph sampling needs a random generator")
    params = head.parameters()
    w1, b1, w2, b2, w3, b3 = (t.data for t in params)
    h2 = h.data.reshape(-1, h.shape[-1])
    y1 = np.maximum(h2 @ w1 + b1, 0.0)
    y2 = np.maximum(y1 @ w2 + b2, 0.0)
    logits = (y2 @ w3 + b3).reshape(h.shape[:-2] + (n, n))
    if train:
        noise = _gumbel(rng, logits.shape) - _gumbel(rng, logits.shape)
        graph = _stable_sigmoid((logits + noise) * (1.0 / head.tau))
    else:
        graph = _stable_sigmoid(logits * (1.0 / head.tau))
    if mask_diag:
        graph *= 1.0 - np.eye(n)
    if not _tracking(h, *params):
        return Tensor(graph)

    def backward_fn(g: np.ndarray) -> None:
        # A masked diagonal entry is 0 in `graph`, so its slope graph * (1 - graph) is 0 too.
        d_logit = (g * graph * (1.0 - graph) * (1.0 / head.tau)).reshape(-1, 1)
        d_y2 = (d_logit @ w3.T) * (y2 > 0.0)
        d_y1 = (d_y2 @ w2.T) * (y1 > 0.0)
        grads = (
            h2.T @ d_y1, d_y1.sum(axis=0),
            y1.T @ d_y2, d_y2.sum(axis=0),
            y2.T @ d_logit, d_logit.sum(axis=0),
        )
        for param, grad in zip(params, grads):
            if param.requires_grad:
                param._accum(grad)
        if h.requires_grad:
            h._accum((d_y1 @ w1.T).reshape(h.shape))

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

    `values` and `tod` are (B, T_in, N, 1). Features, correlation scores and
    reconstructions cover every step in one call each; only the two GRUs and
    their graph heads walk the steps, both GRUs starting from zero hidden
    state at the window head. The same tick features feed both lags.
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
    pairs = (t_in - 1, b, n * n, dims.heads)  # row i * N + j is the ordered pair (i, j)
    c0 = msdot(cur, cur, params.attn).reshape(pairs)  # lag 0: tick t with itself
    c1 = msdot(cur, prev, params.attn).reshape(pairs)  # lag 1: tick t with tick t - 1
    h_intra = Tensor(np.zeros((1, b, n * n, dims.h_r)))
    h_inter = Tensor(np.zeros((1, b, n * n, dims.h_r)))
    intra, inter = [], []
    for j in range(t_in - 1):
        h_intra = gru_step(c0[j : j + 1], h_intra, params.gru_intra)
        h_inter = gru_step(c1[j : j + 1], h_inter, params.gru_inter)
        intra.append(graph_head(h_intra, params.head_intra, n, train, rng, mask_diag=True))
        inter.append(graph_head(h_inter, params.head_inter, n, train, rng, mask_diag=False))
    intra, inter = concat(intra, axis=0), concat(inter, axis=0)
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

    `values` and `tod` are (W, T_in, N, 1). Returns the lag-0 and lag-1
    stacks, each (W, T_in - 1, N, N); slice [k, j] is window k's graph of
    step j + 2. `on_batch`, if given, sees each batch's rows and forward
    pass in window order, still without gradient tracking.
    """
    w, t_in, n, _ = values.shape
    intra = np.empty((w, t_in - 1, n, n))
    inter = np.empty((w, t_in - 1, n, n))
    with no_grad():
        for lo in range(0, w, batch_size):
            rows = slice(lo, min(lo + batch_size, w))
            fwd = grcsl_forward_batch(values[rows], tod[rows], prior, params, train=False)
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
    threshold: float = 0.5,
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGE_CSV_HEADER)
        writer.writerows(
            (t, j + 2, k, sensor_ids[s], sensor_ids[d], f"{w:.10g}")
            for t, j, k, s, d, w in zip(
                ts, step.tolist(), lag.tolist(), src.tolist(), dst.tolist(), weights.tolist()
            )
        )
    return len(weights)
