"""Autodiff engine, matrix exponential, and optimizer tests.

Expected gradients come from plain-numpy central differences (see
conftest.finite_difference); expm values are checked against scipy and a
truncated power series — three independent computations per claim.
"""

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from conftest import analytic_gradients, finite_difference, reference_backward
from tvdbn.errors import ShapeError
from tvdbn.numerics import Adam, Params, Tensor, concat, expm, grad_check, no_grad, trace_expm
from tvdbn.numerics.tensor import _from_op, _released


def assert_grads_close(op, arrays, atol=1e-8, rtol=1e-5):
    num = finite_difference(op, arrays)
    ana = analytic_gradients(op, arrays)
    for a, n in zip(ana, num):
        np.testing.assert_allclose(a, n, atol=atol, rtol=rtol)


class TestElementwiseOps:
    def test_add_mul_chain(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        assert_grads_close(lambda x, y: x * y + x - y * 2.0, [a, b])

    def test_div_pow(self, rng):
        a = rng.uniform(0.5, 2.0, (2, 5))
        b = rng.uniform(0.5, 2.0, (2, 5))
        assert_grads_close(lambda x, y: (x / y) * (x / y), [a, b])

    def test_sigmoid_tanh_exp(self, rng):
        a = rng.standard_normal((4, 3))
        assert_grads_close(lambda x: x.sigmoid() * x.tanh() + x.sigmoid(), [a])

    def test_sigmoid_extreme_inputs_stay_finite(self):
        t = Tensor(np.array([-800.0, 0.0, 800.0]), requires_grad=True)
        out = t.sigmoid()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)
        out.sum().backward()
        assert np.all(np.isfinite(t.grad))

    def test_relu_abs(self, rng):
        # Entries kept away from the kinks so differences are clean.
        a = rng.uniform(0.2, 1.0, (6,)) * rng.choice([-1.0, 1.0], 6)
        assert_grads_close(lambda x: x.relu() + x.abs(), [a])

    def test_rsub_rdiv_scalars(self, rng):
        a = rng.uniform(0.5, 1.5, (3,))
        assert_grads_close(lambda x: 2.0 - x, [a])
        assert_grads_close(lambda x: Tensor(2.0) / x, [a])


class TestBroadcasting:
    """Gradients must be summed back over broadcast axes."""

    def test_bias_row_broadcast(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3,))
        assert_grads_close(lambda x, y: x + y, [a, b])

    def test_scalar_times_matrix(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((1, 1))
        assert_grads_close(lambda x, y: x * y, [a, b])

    def test_keepdim_axis_broadcast(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 1))
        assert_grads_close(lambda x, y: x * y + y, [a, b])


class TestMatmulAndShape:
    def test_matmul_2d(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        assert_grads_close(lambda x, y: x @ y, [a, b])

    def test_matmul_batched_with_broadcast(self, rng):
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((4, 2))  # broadcast over the batch axis
        assert_grads_close(lambda x, y: x @ y, [a, b])

    def test_matmul_rejects_a_vector_operand(self, rng):
        a, v = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal(4))
        for x, y in ((a, v), (v, a.transpose((1, 0))), (v, v)):
            with pytest.raises(ShapeError, match="at least 2 dimensions"):
                x @ y

    def test_reshape_transpose_swaplast(self, rng):
        a = rng.standard_normal((2, 3, 4))
        assert_grads_close(lambda x: x.reshape(6, 4).tanh(), [a])
        assert_grads_close(lambda x: x.transpose((2, 0, 1)).sigmoid(), [a])
        assert_grads_close(lambda x: (x.transpose((0, 2, 1)) @ x).sum(axis=-1), [a])

    def test_sum_mean_axes(self, rng):
        a = rng.standard_normal((2, 3, 4))
        assert_grads_close(lambda x: x.sum(axis=1).tanh(), [a])
        assert_grads_close(lambda x: x.sum(axis=(0, 2)).sigmoid(), [a])
        assert_grads_close(lambda x: x.sum(axis=-1, keepdims=True) * x, [a])

    def test_concat_stack(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 5))
        assert_grads_close(lambda x, y: concat([x, y], axis=1).tanh(), [a, b])
        c = rng.standard_normal((2, 3, 4))
        d = rng.standard_normal((2, 1, 4))
        assert_grads_close(lambda x, y: concat([x, y], axis=-2).sigmoid(), [c, d])


class TestIndexing:
    """Basic indexing: ints and slices, gradients written back into zeros of the input's shape."""

    def test_int_index_and_slice_pass_grad_check(self, rng):
        a = rng.standard_normal((4, 3, 2))
        assert grad_check(lambda x: x[2].tanh(), [a]).ok()
        assert grad_check(lambda x: x[1:3, :, 1].sigmoid(), [a]).ok()

    def test_slice_backward_fills_zeros_elsewhere(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x[1:3].sum().backward()
        np.testing.assert_array_equal(x.grad, [[0.0] * 3, [1.0] * 3, [1.0] * 3, [0.0] * 3])

    def test_iterating_yields_the_axis_0_slices(self, rng):
        data = rng.standard_normal((3, 2, 2))
        parts = list(Tensor(data))
        assert len(parts) == 3
        for part, want in zip(parts, data):
            assert isinstance(part, Tensor)
            np.testing.assert_array_equal(part.data, want)

    def test_overlapping_slices_add_both_gradients(self, rng):
        # The x[1:] / x[:-1] pattern of the structure learner's lag-1 pairs.
        a = rng.standard_normal((5, 3))
        w = rng.standard_normal((4, 3))
        assert_grads_close(lambda x: (x[1:] * w * x[:-1]).tanh(), [a])
        x = Tensor(a, requires_grad=True)
        (x[1:] + 2.0 * x[:-1]).sum().backward()
        np.testing.assert_array_equal(x.grad[:, 0], [2.0, 3.0, 3.0, 3.0, 1.0])

    def test_no_grad_slice_is_a_view_off_the_tape(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with no_grad():
            part = x[1:]
        assert part._parents == () and not part.requires_grad
        assert np.shares_memory(part.data, x.data)


class TestEngineSemantics:
    def test_reused_node_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x  # x used three times
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_blocks_taping(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y._parents == ()
        assert not y.requires_grad

    def test_backward_is_iterative_on_deep_chain(self):
        # A recursion-based traversal would hit the interpreter limit here.
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_non_differentiable_leaf_gets_no_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2))
        (x * c).sum().backward()
        assert c.grad is None
        assert x.grad is not None


# Every op that records through the shared recorder: the op and its input shapes.
RECORDED_OPS = {
    "add": (lambda x, y: x + y, [(3, 4), (4,)]),
    "sub": (lambda x, y: x - y, [(3, 4), (3, 1)]),
    "mul": (lambda x, y: x * y, [(2, 3, 4), (3, 4)]),
    "truediv": (lambda x, y: x / y, [(3, 4), (4,)]),
    "matmul": (lambda x, y: x @ y, [(2, 3, 4), (4, 5)]),
    "relu": (Tensor.relu, [(3, 4)]),
    "sigmoid": (Tensor.sigmoid, [(3, 4)]),
    "tanh": (Tensor.tanh, [(3, 4)]),
    "abs": (Tensor.abs, [(3, 4)]),
    "sum": (lambda x: x.sum(axis=1), [(2, 3, 4)]),
    "sum_all": (lambda x: x.sum(), [(2, 3)]),
    "sum_keepdims": (lambda x: x.sum(axis=(0, -1), keepdims=True), [(2, 3, 4)]),
    "reshape": (lambda x: x.reshape(4, 3), [(2, 6)]),
    "transpose": (lambda x: x.transpose((2, 0, 1)), [(2, 3, 4)]),
    "getitem": (lambda x: x[1:, ::2], [(3, 4)]),
    "concat": (lambda *xs: concat(xs, axis=-1), [(2, 3), (2, 2), (2, 1)]),
    "trace_expm": (trace_expm, [(2, 3, 3)]),
}


@pytest.mark.parametrize("name", list(RECORDED_OPS))
def test_recorded_op_tapes_and_differentiates_only_tracked_inputs(name, rng):
    op, shapes = RECORDED_OPS[name]
    # Magnitudes in [0.5, 1.5]: away from relu's and abs's kinks and from zero denominators.
    arrays = [rng.uniform(0.5, 1.5, s) * rng.choice([-1.0, 1.0], s) for s in shapes]
    out = op(*[Tensor(a) for a in arrays])
    assert out._parents == () and out._backward is None and not out.requires_grad
    weights = rng.standard_normal(out.shape)  # a non-uniform seed exposes permuted gradients
    expected = finite_difference(lambda *xs: op(*xs) * weights, arrays)
    for tracked in range(len(arrays)):
        inputs = [Tensor(a, requires_grad=i == tracked) for i, a in enumerate(arrays)]
        op(*inputs).backward(weights)
        for i, t in enumerate(inputs):
            if i == tracked:
                np.testing.assert_allclose(t.grad, expected[i], rtol=1e-6, atol=1e-8)
            else:
                assert t.grad is None


class TestGraphRelease:
    """backward() frees the graph it walks, and a freed graph cannot be walked again."""

    @staticmethod
    def build(arrays):
        x, w = (Tensor(a, requires_grad=True) for a in arrays)
        h = (x @ w).tanh()
        inner = [h, h * h, h.sigmoid(), w * w]  # h feeds two consumers
        out = concat(inner[1:3], axis=-1).sum() + trace_expm(inner[3])
        return [x, w], inner + [out], out

    def test_frees_non_leaves_and_keeps_leaf_grads_bit_identical(self, rng):
        arrays = [rng.standard_normal((3, 4)), rng.uniform(-0.5, 0.5, (4, 4))]
        ref_leaves, ref_inner, ref_out = self.build(arrays)
        reference_backward(ref_out)
        leaves, inner, out = self.build(arrays)
        out.backward()
        for leaf, ref in zip(leaves, ref_leaves):
            assert np.array_equal(leaf.grad, ref.grad)
        for t, ref in zip(inner, ref_inner):
            assert t.grad is None and t._parents == () and t._backward is _released
            assert np.array_equal(t.data, ref.data)

    def test_second_backward_raises_and_leaves_grads_alone(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        grad = x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, grad)

    def test_new_graph_through_a_released_tensor_raises(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        h = x * 2.0
        h.sum().backward()
        grad = x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            (h * 3.0).sum().backward()  # x would silently get no gradient through h
        np.testing.assert_array_equal(x.grad, grad)


@dataclass
class Inner(Params):
    w: Tensor
    scale: float


@dataclass
class Outer(Params):
    theta: list[Tensor]
    inner: Inner
    absent: Inner | None
    b: Tensor
    tau: float


def param(*shape):
    return Tensor(np.zeros(shape), requires_grad=True)


class TestParamsWalk:
    def test_names_follow_field_order_and_skip_non_tensors(self):
        model = Outer(
            theta=[param(2, 3), param(3, 3)], inner=Inner(w=param(3), scale=0.5),
            absent=None, b=param(1), tau=0.2,
        )
        named = list(model.named_parameters("m."))
        assert [n for n, _ in named] == ["m.theta0", "m.theta1", "m.inner.w", "m.b"]
        expected = [*model.theta, model.inner.w, model.b]
        assert all(got is want for got, want in zip(model.parameters(), expected))
        assert len(model.parameters()) == len(expected)


def wrong_product(x: np.ndarray, w: Tensor) -> Tensor:
    """x * w whose backward deliberately doubles the gradient of w."""

    def backward_fn(g: np.ndarray) -> None:
        w._accum(2.0 * g * x)

    return _from_op(x * w.data, (w,), backward_fn)


class TestGradCheckOnLiveTensors:
    def test_parameter_is_checked_in_place_and_restored_bit_identical(self, rng):
        model = Inner(w=Tensor(rng.standard_normal((3, 4)), requires_grad=True), scale=1.0)
        model.w.grad = np.full((3, 4), 7.0)  # a stale gradient must not leak into the check
        before = model.w.data.copy()
        x = Tensor(rng.standard_normal((2, 3)))
        report = grad_check(lambda *_: (x @ model.w).tanh(), model.parameters())
        assert report.ok(), report
        assert model.w.data.tobytes() == before.tobytes()

    def test_wrong_backward_through_a_parameter_fails(self, rng):
        model = Inner(w=Tensor(rng.standard_normal(4), requires_grad=True), scale=1.0)
        x = rng.standard_normal(4)
        report = grad_check(lambda *_: wrong_product(x, model.w), model.parameters())
        assert not report.ok()
        assert report.max_rel_error == pytest.approx(0.5, rel=1e-6)

    def test_non_contiguous_parameter_is_still_perturbed(self, rng):
        model = Inner(w=Tensor(np.zeros((3, 4)), requires_grad=True), scale=1.0)
        model.w.data = rng.standard_normal((4, 3)).T
        assert not model.w.data.flags.c_contiguous
        before = model.w.data.copy()
        x = Tensor(rng.standard_normal((2, 3)))
        report = grad_check(lambda *_: (x @ model.w).tanh(), model.parameters())
        assert report.ok(), report
        np.testing.assert_array_equal(model.w.data, before)


class TestExpm:
    def test_matches_scipy_on_random_matrices(self, rng):
        for _ in range(20):
            n = rng.integers(2, 7)
            a = rng.standard_normal((n, n))
            np.testing.assert_allclose(expm(a), scipy.linalg.expm(a), rtol=1e-10, atol=1e-12)

    def test_matches_truncated_power_series_in_unit_ball(self, rng):
        # For ||A||_1 <= 1 a 20-term Horner evaluation is accurate to ~1e-19.
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            a /= max(np.abs(a).sum(axis=0).max(), 1.0)
            ref = np.eye(4)
            for k in range(20, 0, -1):
                ref = np.eye(4) + a @ ref / k
            err = np.linalg.norm(expm(a) - ref) / np.linalg.norm(ref)
            assert err < 1e-10

    def test_diagonal(self):
        np.testing.assert_allclose(
            expm(np.diag([1.0, 2.0])), np.diag([np.e, np.e**2]), rtol=1e-12
        )

    def test_nilpotent_is_exact_polynomial(self):
        # Strictly triangular A has A^4 = 0, so e^A is a finite sum; the
        # series must reproduce it to the last ulp since no scaling kicks in.
        a = np.triu(np.arange(1.0, 17.0).reshape(4, 4), 1)
        ref = np.eye(4) + a + a @ a / 2 + a @ a @ a / 6
        np.testing.assert_array_equal(expm(a), ref)

    def test_batched_matches_loop(self, rng):
        batch = rng.standard_normal((3, 2, 4, 4))
        out = expm(batch)
        for i in range(3):
            for j in range(2):
                np.testing.assert_allclose(
                    out[i, j], scipy.linalg.expm(batch[i, j]), rtol=1e-9, atol=1e-12
                )

    def test_large_norm_uses_scaling(self, rng):
        a = rng.standard_normal((5, 5)) * 10.0
        np.testing.assert_allclose(expm(a), scipy.linalg.expm(a), rtol=1e-8, atol=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            expm(np.ones((2, 3)))


class TestTraceExpm:
    def test_value_matches_scipy(self, rng):
        a = rng.uniform(0.0, 0.6, (5, 5))
        t = trace_expm(Tensor(a))
        assert t.data == pytest.approx(np.trace(scipy.linalg.expm(a)), rel=1e-12)

    def test_gradient_is_transposed_exponential(self, rng):
        # d/dA tr(e^A) = (e^A)^T, a closed form worth pinning exactly.
        a = rng.uniform(0.0, 0.6, (4, 4))
        t = Tensor(a, requires_grad=True)
        trace_expm(t).backward()
        np.testing.assert_allclose(t.grad, scipy.linalg.expm(a).T, rtol=1e-10)

    def test_batched_values(self, rng):
        a = rng.uniform(0.0, 0.5, (3, 4, 4))
        out = trace_expm(Tensor(a))
        expected = [np.trace(scipy.linalg.expm(a[i])) for i in range(3)]
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_finite_difference_gradient(self, rng):
        a = rng.uniform(0.05, 0.4, (3, 3))
        assert_grads_close(lambda x: trace_expm(x * x), [a])


class TestAdam:
    def test_quadratic_convergence(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(x.data, [0.0, 0.0], atol=1e-4)

    def test_first_step_size_is_lr(self):
        # Bias correction makes the very first update lr * sign(g), up to
        # the eps term in the denominator.
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([x], lr=0.01)
        (x * 3.0).sum().backward()
        opt.step()
        np.testing.assert_allclose(x.data, [1.0 - 0.01], rtol=1e-8)

    def test_skips_params_without_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([x], lr=0.5)
        opt.step()  # no backward ran; must not touch x
        np.testing.assert_array_equal(x.data, [1.0])
