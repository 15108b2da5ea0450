"""Differentiable acyclicity constraint and the structure-learning loop.

The lag-0 graph of every step must be acyclic. The smooth surrogate is
``h(B) = trace(expm(B o B)) - N``, which is non-negative and zero exactly
when B's support is acyclic, with gradient ``2 * expm(B o B)^T o B``. The
training loop minimizes

    fit(params) + alpha * S + (rho / 2) * S^2,
    S = sum over steps of h(lag-0 graph),

and after each inner minimization updates ``alpha += rho * S`` and escalates
``rho *= eta`` whenever S failed to shrink by factor gamma, until S drops
below the tolerance xi. The in-loss S uses the sampled (train-mode) graphs
averaged over the batch; the S driving multiplier updates, history rows, and
termination is recomputed in eval mode (deterministic graphs) over all
training windows, so the stopping rule is not a coin flip.
"""

from __future__ import annotations

import copy
import csv
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .data import WindowSet
from .errors import ConfigError, NumericalError, ShapeError
from .grcsl import GrcslDims, GrcslForward, GrcslParams, graph_stacks, grcsl_forward_batch
from .numerics import Adam, Tensor, expm, peak_rss_mb, trace_expm

__all__ = [
    "notears_h",
    "AugLagState",
    "GrcslTrainConfig",
    "GrcslTrainResult",
    "grcsl_loss",
    "constraint_sum",
    "auglag_objective",
    "auglag_update",
    "train_grcsl",
    "save_history",
]

log = logging.getLogger(__name__)

# Edge weight above which an eval-mode graph entry counts as an edge in the history.
EDGE_LEVEL = 0.5


def notears_h(b):
    """Acyclicity measure of (batched) square matrices; 0 iff acyclic support.

    Accepts a plain ndarray (returns float or ndarray of batch shape) or a
    Tensor (returns a Tensor, differentiable). Mathematically non-negative;
    clamped at zero against floating-point noise.
    """
    if isinstance(b, Tensor):
        if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
            raise ShapeError(f"notears_h needs square matrices, got {b.shape}")
        n = b.shape[-1]
        return (trace_expm(b * b) - float(n)).relu()
    arr = np.asarray(b, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ShapeError(f"notears_h needs square matrices, got {arr.shape}")
    n = arr.shape[-1]
    h = np.trace(expm(arr * arr), axis1=-2, axis2=-1) - float(n)
    h = np.maximum(h, 0.0)
    return float(h) if h.ndim == 0 else h


@dataclass
class AugLagState:
    """Multiplier state of the outer loop."""

    alpha: float
    rho: float
    iteration: int = 0
    last_s: float = float("inf")


@dataclass
class GrcslTrainConfig:
    """Knobs of the structure-learning loop."""

    lam: float = 2e-5
    eta: float = 10.0
    gamma: float = 0.5
    xi: float = 1e-8
    alpha0: float = 0.0
    rho0: float = 1e-3
    inner_epochs: int = 5
    max_outer_iters: int = 30
    lr: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.eta <= 1:
            raise ConfigError(f"eta must exceed 1, got {self.eta}")
        if not 0 < self.gamma < 1:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.xi <= 0 or self.rho0 <= 0 or self.lr <= 0:
            raise ConfigError("xi, rho0, and lr must be positive")
        if self.lam < 0 or self.alpha0 < 0:
            raise ConfigError("lam and alpha0 must be non-negative")
        if self.inner_epochs < 0 or self.max_outer_iters < 1 or self.batch_size < 1:
            raise ConfigError("bad loop sizes")


@dataclass
class GrcslTrainResult:
    """The returned parameters and their eval-mode graph stacks.

    `intra` and `inter` are (W, T_in - 1, N, N), equal bit for bit to
    `graph_stacks(values, tod, prior, params, cfg.batch_size)` over the
    training windows: the eval epoch that scored `params` generated them.
    """

    params: GrcslParams
    intra: np.ndarray
    inter: np.ndarray
    history: list[dict] = field(default_factory=list)
    converged: bool = False
    warning: str | None = None
    final_s: float = float("inf")


def grcsl_loss(fwd: GrcslForward, masks: np.ndarray | None, lam: float) -> Tensor:
    """Fit term: mean over steps of reconstruction error plus L1 sparsity.

    Per step: 0.5 * squared error of the reading reconstruction (missing
    readings excluded through `masks`, batch-major (B, T, N, 1) like the
    windows) plus lam * (L1 of both graphs). Averaged over the batch.
    """
    steps, batch = fwd.reconstructions.shape[:2]
    if steps == 0:
        raise ShapeError("no steps to score")
    diff = fwd.reconstructions - fwd.readings[1:]
    if masks is not None:
        diff = diff * Tensor(masks[:, 1:].swapaxes(0, 1).astype(np.float64))
    sparsity = fwd.intra.abs().sum() + fwd.inter.abs().sum()
    return ((diff * diff).sum() * 0.5 + lam * sparsity) * (1.0 / (steps * batch))


def constraint_sum(fwd: GrcslForward) -> Tensor:
    """S: per-window sum over steps of h(lag-0 graph), averaged over the batch."""
    return notears_h(fwd.intra).sum() * (1.0 / fwd.intra.shape[1])


def auglag_objective(f: Tensor, s: Tensor, alpha: float, rho: float) -> Tensor:
    """Penalized objective f + alpha * S + (rho / 2) * S^2."""
    return f + alpha * s + 0.5 * rho * (s * s)


def auglag_update(state: AugLagState, s_new: float, eta: float = 10.0, gamma: float = 0.5) -> AugLagState:
    """Multiplier step: alpha absorbs rho * S; rho escalates on slow progress.

    rho is multiplied by eta exactly when s_new > gamma * s_old; on the first
    update s_old is infinite, so rho never escalates then.
    """
    if s_new < 0:
        raise ValueError("constraint total cannot be negative")
    alpha = state.alpha + state.rho * s_new
    rho = state.rho * eta if s_new > gamma * state.last_s else state.rho
    return AugLagState(alpha=alpha, rho=rho, iteration=state.iteration + 1, last_s=s_new)


# --------------------------------------------------------------------- #
# training loop
# --------------------------------------------------------------------- #


def _eval_epoch(
    values: np.ndarray,
    tod: np.ndarray,
    mask: np.ndarray,
    prior: np.ndarray | None,
    params: GrcslParams,
    lam: float,
    batch_size: int,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Deterministic (eval-mode) f and S averaged over all windows, and the graph stacks they scored.

    The stacks are `graph_stacks(values, tod, prior, params, batch_size)`,
    bit for bit: they come from that generator, which hands each batch's
    forward pass here to be scored.
    """
    f_total = 0.0
    s_total = 0.0

    def score(rows: slice, fwd: GrcslForward) -> None:
        nonlocal f_total, s_total
        b = rows.stop - rows.start
        f_total += float(grcsl_loss(fwd, mask[rows], lam).data) * b
        s_total += float(constraint_sum(fwd).data) * b

    intra, inter = graph_stacks(values, tod, prior, params, batch_size, on_batch=score)
    w = values.shape[0]
    return f_total / w, s_total / w, intra, inter


def _edges_per_graph(stack: np.ndarray) -> float:
    """Mean number of entries above EDGE_LEVEL per (N, N) graph of a (W, S, N, N) stack."""
    return float(np.count_nonzero(stack > EDGE_LEVEL) / (stack.shape[0] * stack.shape[1]))


def train_grcsl(
    windows: WindowSet,
    prior: np.ndarray | None,
    dims: GrcslDims,
    cfg: GrcslTrainConfig,
) -> GrcslTrainResult:
    """Learn per-step causal graphs under the augmented-Lagrangian loop.

    Returns the parameters at termination (constraint satisfied) or, if the
    outer loop exhausts max_outer_iters first, the parameters with the
    smallest eval-mode S seen, with a warning recorded; either way with the
    eval-mode graph stacks that scored them. History rows hold, per outer
    iteration, the eval-mode f and S after inner minimization, the
    multipliers after the update driven by that S, the mean number of
    lag-0 and lag-1 edges per eval-mode graph (`edges_lag0`, `edges_lag1`),
    the iteration's wall time (`seconds`) and the process's peak RSS so far
    (`peak_rss_mb`).
    """
    cfg.validate()
    if len(windows) == 0:
        raise ConfigError("no training windows")
    seq = np.random.SeedSequence(cfg.seed)
    init_seed, train_seed = seq.spawn(2)
    params = GrcslParams.init(np.random.default_rng(init_seed), dims)
    rng = np.random.default_rng(train_seed)
    opt = Adam(params.parameters(), lr=cfg.lr)

    values, tod, mask = windows.values, windows.tod, windows.mask
    w = values.shape[0]
    state = AugLagState(alpha=cfg.alpha0, rho=cfg.rho0)
    history: list[dict] = []
    best_s = float("inf")
    converged = False

    for outer in range(1, cfg.max_outer_iters + 1):
        start = time.perf_counter()
        for _ in range(cfg.inner_epochs):
            order = rng.permutation(w)
            for lo in range(0, w, cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                fwd = grcsl_forward_batch(
                    values[idx], tod[idx], prior, params, train=True, rng=rng
                )
                f = grcsl_loss(fwd, mask[idx], cfg.lam)
                s = constraint_sum(fwd)
                loss = auglag_objective(f, s, state.alpha, state.rho)
                if not np.isfinite(loss.data):
                    raise NumericalError(
                        f"non-finite loss at outer iter {outer} "
                        f"(f={float(f.data):.6g}, S={float(s.data):.6g}, "
                        f"alpha={state.alpha:.6g}, rho={state.rho:.6g})"
                    )
                opt.zero_grad()
                loss.backward()
                opt.step()
                del fwd, f, s, loss  # free this step's graph before the next step builds its own

        f_eval, s_eval, intra, inter = _eval_epoch(
            values, tod, mask, prior, params, cfg.lam, cfg.batch_size
        )
        if not np.isfinite(f_eval) or not np.isfinite(s_eval):
            raise NumericalError(f"non-finite evaluation at outer iter {outer}")
        state = auglag_update(state, s_eval, eta=cfg.eta, gamma=cfg.gamma)
        row = {
            "outer_iter": outer,
            "f": f_eval,
            "S": s_eval,
            "alpha": state.alpha,
            "rho": state.rho,
            "edges_lag0": _edges_per_graph(intra),
            "edges_lag1": _edges_per_graph(inter),
            "seconds": time.perf_counter() - start,
            "peak_rss_mb": peak_rss_mb(),
        }
        history.append(row)
        log.info(
            "outer %d: f=%.6g S=%.3e alpha=%.6g rho=%.3e edges lag0=%.2f lag1=%.2f "
            "%.2f s, peak RSS %.0f MB",
            outer, f_eval, s_eval, state.alpha, state.rho, row["edges_lag0"], row["edges_lag1"],
            row["seconds"], row["peak_rss_mb"],
        )
        if s_eval < best_s:
            # Converging always sets a new best: S < xi <= every earlier S.
            best_s = s_eval
            best_params = copy.deepcopy(params)
            best_intra, best_inter = intra, inter
        if s_eval < cfg.xi:
            converged = True
            break

    warning = None
    if not converged:
        warning = (
            f"constraint not satisfied after {cfg.max_outer_iters} outer iterations "
            f"(best S={best_s:.3e}, tolerance {cfg.xi:.1e}); returning best parameters"
        )
        log.warning(warning)
    return GrcslTrainResult(
        params=best_params,
        intra=best_intra,
        inter=best_inter,
        history=history,
        converged=converged,
        warning=warning,
        final_s=best_s,
    )


def save_history(path: str, history: list[dict]) -> None:
    """Write outer-loop history as CSV: outer_iter,f,S,alpha,rho."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outer_iter", "f", "S", "alpha", "rho"])
        for row in history:
            writer.writerow(
                [
                    row["outer_iter"],
                    f"{row['f']:.10g}",
                    f"{row['S']:.10g}",
                    f"{row['alpha']:.10g}",
                    f"{row['rho']:.10g}",
                ]
            )
