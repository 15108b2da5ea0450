"""Time-varying dynamic Bayesian network learning and graph-based forecasting.

The package learns, from a multivariate sensor series, one pair of causal
graphs per time step — an acyclic same-tick graph and an unconstrained
one-tick-lag graph — by training a recurrent graph generator under a
differentiable acyclicity penalty inside an augmented-Lagrangian loop.
The learned graph sequences then drive a dynamic graph-convolution
forecaster trained with a masked-error curriculum.

Names are imported from the module that defines them, for example
``from tvdbn.grcsl import graph_stacks``; ``import tvdbn`` loads nothing.

Layout:

* ``numerics``  — reverse-mode autodiff over float64 (and float32) numpy
  arrays, the matrix exponential, gradient checking, Adam;
* ``graphops``  — spectral and row-normalized graph convolutions and the
  two-hop dynamic propagation step;
* ``data``      — speed/distance table IO, normalization, windowing,
  chronological splits;
* ``grcsl``     — the recurrent structure generator (attention
  correlations, per-lag GRUs, Gumbel-Sigmoid graph heads, and the
  self-reconstruction objective);
* ``constraint``— acyclicity measure ``h`` and the augmented-Lagrangian
  training loop;
* ``dgcpm``     — the forecaster, its curriculum trainer, and forecast
  export;
* ``synth``     — ground-truth samplers, the linear-SEM simulator, and
  structure-recovery scoring;
* ``metrics``   — masked MAE/RMSE/MAPE evaluation and report rendering;
* ``checkpoint``— versioned ``.npz`` files: model checkpoints, the graph
  store and the synthetic ground truth;
* ``cli``       — the ``tvdbn`` command.
"""

__version__ = "0.1.0"
