import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def finite_difference(op, arrays, eps=1e-6):
    """Central-difference gradient of sum(op(*arrays)) for each input array.

    Independent of the library's own checker on purpose: plain numpy, no
    Tensor machinery, so the two implementations can disagree.
    """
    import tvdbn.numerics as N

    def value(arrs):
        with N.no_grad():
            out = op(*[N.Tensor(a) for a in arrs])
        return float(out.data.sum())

    grads = []
    for i, base in enumerate(arrays):
        g = np.zeros_like(base, dtype=float)
        flat = g.reshape(-1)
        for k in range(flat.size):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[i].reshape(-1)[k] += eps
            minus[i].reshape(-1)[k] -= eps
            flat[k] = (value(plus) - value(minus)) / (2 * eps)
        grads.append(g)
    return grads


def analytic_gradients(op, arrays):
    import tvdbn.numerics as N

    tensors = [N.Tensor(a.astype(float), requires_grad=True) for a in arrays]
    out = op(*tensors)
    out.sum().backward()
    return [t.grad for t in tensors]


def without_measurements(history):
    """History rows minus the wall time and peak RSS, which no seed fixes."""
    for row in history:
        assert row["seconds"] > 0 and row["peak_rss_mb"] > 0
    return [{k: v for k, v in row.items() if k not in ("seconds", "peak_rss_mb")} for row in history]


def reference_backward(root):
    """The engine's reverse walk, node order included, without releasing the graph."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents if id(parent) not in seen)
    root._accum(np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
