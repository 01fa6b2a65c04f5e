"""Tests for the tape-based autodiff core.

Forward values are pinned against hand or triple-loop oracles; adjoints
are validated with the built-in central-difference checker, including a
negative control proving the checker can actually fail.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bolf.tensor import (
    DTYPE,
    GradCheckReport,
    NumericError,
    ShapeMismatch,
    Tape,
    TapeError,
    Tensor,
    add,
    backward,
    concat,
    dropout,
    exp,
    gelu,
    grad_check,
    layer_norm,
    log,
    matmul,
    mean_all,
    mul,
    narrow,
    neg,
    reshape,
    softmax_rows,
    sub,
    sum_all,
    take,
    transpose,
)


def _grad_of(f, x_data):
    """Run f under a tape and return the gradient at x."""
    x = Tensor(np.array(x_data, dtype=DTYPE), requires_grad=True)
    with Tape() as tape:
        loss = f(x)
    backward(loss, tape)
    return x.grad


class TestTensorBasics:
    def test_data_coerced_to_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == DTYPE
        assert t.shape == (3,)
        assert t.size == 3
        assert t.ndim == 1

    def test_grad_starts_empty(self):
        t = Tensor([1.0], requires_grad=True)
        assert t.grad is None
        t.grad = np.array([2.0])
        t.zero_grad()
        assert t.grad is None

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5
        # any size-1 tensor is a scalar, whatever its rank
        for data in ([3.0], [[3.0]]):
            value = Tensor(data).item()
            assert value == 3.0 and type(value) is float

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ShapeMismatch):
            Tensor([1.0, 2.0]).item()

    def test_operator_sugar_matches_primitives(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal((a + b).data, add(a, b).data)
        assert np.array_equal((a - b).data, sub(a, b).data)
        assert np.array_equal((a * b).data, mul(a, b).data)
        assert np.array_equal((a @ b).data, matmul(a, b).data)
        assert np.array_equal((-a).data, neg(a).data)

    def test_scalar_operands_are_wrapped(self):
        a = Tensor([2.0, 4.0])
        assert np.array_equal((a - 1.0).data, [1.0, 3.0])
        assert np.array_equal((a * 0.5).data, [1.0, 2.0])
        assert np.array_equal((3.0 * a).data, [6.0, 12.0])
        assert np.array_equal((1.0 - a).data, [-1.0, -3.0])

    def test_requires_grad_propagates(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])
        assert add(a, b).requires_grad
        assert mul(b, b).requires_grad is False


class TestTapeMechanics:
    def test_ops_outside_tape_record_nothing(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            pass
        mul(a, a)  # after the context has exited
        assert len(tape) == 0

    def test_empty_tape_backward_leaves_leaf_grads_none(self):
        a = Tensor([1.0], requires_grad=True)
        loss = Tensor(0.0, requires_grad=True)
        with Tape() as tape:
            pass
        backward(loss, tape)
        assert a.grad is None
        assert loss.grad == 1.0

    def test_backward_rejects_non_scalar_loss(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(a, a)
        with pytest.raises(TapeError):
            backward(y, tape)

    def test_tape_is_single_use(self):
        a = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(a, a))
        backward(loss, tape)
        with pytest.raises(TapeError):
            backward(loss, tape)

    def test_gradients_accumulate_additively(self):
        # a appears twice: d/da (a*a + a*a) = 4a
        g = _grad_of(lambda x: sum_all(add(mul(x, x), mul(x, x))), [1.5, -2.0])
        assert np.allclose(g, [6.0, -8.0])

    def test_inner_tape_sees_only_inner_ops(self):
        a = Tensor([2.0], requires_grad=True)
        with Tape() as outer:
            outer_y = mul(a, a)
            with Tape() as inner:
                inner_loss = sum_all(mul(a, a))
            outer_loss = sum_all(outer_y)
        backward(inner_loss, inner)
        assert np.allclose(a.grad, [4.0])  # inner product only
        a.zero_grad()
        backward(outer_loss, outer)
        assert np.allclose(a.grad, [4.0])  # outer product only

    def test_tapes_are_thread_local(self):
        results = {}

        def worker():
            x = Tensor([3.0], requires_grad=True)
            with Tape() as tape:
                loss = sum_all(mul(x, x))
            backward(loss, tape)
            results["grad"] = x.grad.copy()

        a = Tensor([1.0], requires_grad=True)
        with Tape() as main_tape:
            y = mul(a, a)
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            loss = sum_all(y)
        assert np.allclose(results["grad"], [6.0])
        # the worker's ops did not leak onto this thread's tape
        assert len(main_tape) == 2
        backward(loss, main_tape)
        assert np.allclose(a.grad, [2.0])

    def test_ops_without_requires_grad_are_not_recorded(self):
        a = Tensor([1.0, 2.0])
        with Tape() as tape:
            mul(a, a)
        assert len(tape) == 0


class TestBroadcasting:
    def test_add_broadcast_row_vector(self):
        a = np.arange(12.0).reshape(3, 4)
        b = Tensor(np.ones(4), requires_grad=True)
        x = Tensor(a, requires_grad=True)
        with Tape() as tape:
            loss = sum_all(add(x, b))
        backward(loss, tape)
        assert np.array_equal(x.grad, np.ones((3, 4)))
        assert np.array_equal(b.grad, np.full(4, 3.0))  # summed down the rows

    def test_mul_broadcast_gradient(self):
        a = np.arange(1.0, 7.0).reshape(2, 3)
        x = Tensor(a, requires_grad=True)
        b = Tensor([2.0, 3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, b))
        backward(loss, tape)
        assert np.array_equal(x.grad, np.broadcast_to(b.data, (2, 3)))
        assert np.array_equal(b.grad, a.sum(axis=0))

    def test_sub_broadcast_gradient_is_negated(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(sub(x, b))
        backward(loss, tape)
        assert np.array_equal(b.grad, [-3.0, -3.0])

    def test_keepdim_axis_broadcast(self):
        x = Tensor(np.ones((3, 1)), requires_grad=True)
        y = Tensor(np.ones((3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(add(x, y))
        backward(loss, tape)
        assert x.grad.shape == (3, 1)
        assert np.array_equal(x.grad, np.full((3, 1), 4.0))


class TestStructuralOps:
    def test_matmul_matches_triple_loop_exactly(self):
        # integer-valued operands make float64 products exact
        rng = np.random.default_rng(11)
        a = rng.integers(-9, 10, size=(3, 4)).astype(float)
        b = rng.integers(-9, 10, size=(4, 2)).astype(float)
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.array_equal(got, want)

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
        with pytest.raises(ShapeMismatch):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_batched_matmul_matches_per_matrix_products(self):
        # integer-valued operands make every product exact
        rng = np.random.default_rng(5)
        stack = rng.integers(-9, 10, size=(3, 4, 5)).astype(float)
        w = rng.integers(-9, 10, size=(5, 2)).astype(float)
        got = matmul(Tensor(stack), Tensor(w)).data
        assert np.array_equal(got, np.stack([m @ w for m in stack]))
        other = rng.integers(-9, 10, size=(3, 5, 6)).astype(float)
        got = matmul(Tensor(stack), Tensor(other)).data
        assert np.array_equal(got, np.stack([m @ o for m, o in zip(stack, other)]))

    def test_batched_matmul_leading_axes_must_broadcast(self):
        with pytest.raises(ShapeMismatch):
            matmul(Tensor(np.zeros((3, 2, 4))), Tensor(np.zeros((2, 4, 5))))

    def test_transpose_value_and_errors(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(transpose(Tensor(a)).data, a.T)
        with pytest.raises(ShapeMismatch):
            transpose(Tensor([1.0, 2.0]))
        with pytest.raises(ShapeMismatch):
            transpose(Tensor(a), axes=(0, 0))

    def test_transpose_default_swaps_last_two_axes(self):
        a = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(transpose(Tensor(a)).data, a.transpose(0, 2, 1))
        assert np.array_equal(transpose(Tensor(a), axes=(2, 0, 1)).data,
                              a.transpose(2, 0, 1))

    def test_transpose_involution_is_exact(self):
        a = np.random.default_rng(0).normal(size=(4, 5))
        assert np.array_equal(transpose(transpose(Tensor(a))).data, a)

    def test_reshape_roundtrip_and_error(self):
        a = np.arange(12.0)
        out = reshape(Tensor(a), (3, 4))
        assert np.array_equal(out.data.reshape(-1), a)
        with pytest.raises(ValueError):
            reshape(Tensor(a), (5, 5))

    def test_narrow_value_and_bounds(self):
        a = np.arange(20.0).reshape(4, 5)
        out = narrow(Tensor(a), 1, 1, 3)
        assert np.array_equal(out.data, a[:, 1:4])
        with pytest.raises(ShapeMismatch):
            narrow(Tensor(a), 1, 3, 3)
        with pytest.raises(ShapeMismatch):
            narrow(Tensor(a), 2, 0, 1)
        with pytest.raises(ShapeMismatch):
            narrow(Tensor(a), 0, -1, 2)

    def test_narrow_gradient_is_zero_padded(self):
        g = _grad_of(lambda x: sum_all(narrow(x, 0, 1, 2)), np.ones((4, 3)))
        want = np.zeros((4, 3))
        want[1:3] = 1.0
        assert np.array_equal(g, want)

    def test_concat_value_and_errors(self):
        a, b = np.ones((2, 3)), np.zeros((1, 3))
        out = concat([Tensor(a), Tensor(b)], axis=0)
        assert out.shape == (3, 3)
        with pytest.raises(ShapeMismatch):
            concat([], axis=0)
        with pytest.raises(ShapeMismatch):
            concat([Tensor(a), Tensor(np.zeros((1, 4)))], axis=0)

    def test_concat_gradient_splits_by_segment(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(concat([a, b], 0), Tensor(np.arange(10.0).reshape(5, 2))))
        backward(loss, tape)
        assert np.array_equal(a.grad, np.arange(4.0).reshape(2, 2))
        assert np.array_equal(b.grad, np.arange(4.0, 10.0).reshape(3, 2))

    def test_take_scalar_and_errors(self):
        v = Tensor([5.0, 6.0, 7.0])
        assert take(v, 2).item() == 7.0
        with pytest.raises(ShapeMismatch):
            take(v, 3)
        with pytest.raises(ShapeMismatch):
            take(Tensor(np.zeros((2, 2))), 0)

    def test_sum_and_mean(self):
        a = np.arange(8.0).reshape(2, 4)
        assert sum_all(Tensor(a)).item() == 28.0
        assert mean_all(Tensor(a)).item() == 3.5
        g = _grad_of(lambda x: mean_all(x), a)
        assert np.array_equal(g, np.full((2, 4), 1.0 / 8.0))


class TestNonlinearOps:
    def test_exp_log_inverse(self):
        x = np.array([0.1, 1.0, 2.5])
        assert np.allclose(log(exp(Tensor(x))).data, x, atol=1e-12)

    def test_exp_overflow_raises(self):
        with pytest.raises(NumericError):
            exp(Tensor([1000.0]))

    def test_log_of_non_positive_raises(self):
        with pytest.raises(NumericError):
            log(Tensor([1.0, 0.0]))
        with pytest.raises(NumericError):
            log(Tensor([-0.5]))

    def test_softmax_known_values(self):
        # softmax(ln 1, ln 2, ln 3) = (1/6, 2/6, 3/6)
        x = Tensor([[np.log(1.0), np.log(2.0), np.log(3.0)]])
        out = softmax_rows(x).data
        assert np.allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)

    def test_softmax_rows_sum_to_one_under_extreme_inputs(self):
        x = np.array([[700.0, -700.0, 0.0], [1e-30, 2e-30, 3e-30]])
        out = softmax_rows(Tensor(x)).data
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-15)
        assert (out >= 0.0).all()

    def test_softmax_normalizes_last_axis_of_a_stack(self):
        x = np.random.default_rng(6).normal(size=(2, 3, 4))
        out = softmax_rows(Tensor(x)).data
        for i in range(2):
            assert np.array_equal(out[i], softmax_rows(Tensor(x[i])).data)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-15)

    def test_softmax_rejects_non_matrix(self):
        with pytest.raises(ShapeMismatch):
            softmax_rows(Tensor([1.0, 2.0]))

    def test_softmax_rejects_non_finite(self):
        with pytest.raises(NumericError):
            softmax_rows(Tensor([[np.inf, 0.0]]))
        with pytest.raises(NumericError):
            softmax_rows(Tensor([[np.nan, 0.0]]))

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 9)) * 4.0 + 2.0
        d = x.shape[1]
        out = layer_norm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d))).data
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
        # population variance, biased toward 1 by the eps in the denominator
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_layer_norm_affine(self):
        x = np.array([[1.0, 2.0, 3.0]])
        gamma, beta = np.full(3, 2.0), np.full(3, 10.0)
        plain = layer_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3))).data
        scaled = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        assert np.allclose(scaled, 2.0 * plain + 10.0, atol=1e-12)

    def test_layer_norm_shape_validation(self):
        x = Tensor(np.zeros((2, 4)))
        with pytest.raises(ShapeMismatch):
            layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))
        with pytest.raises(ShapeMismatch):
            layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros((1, 4))))

    def test_gelu_reference_point(self):
        # x * Phi(x) at x = 1, Phi the standard normal CDF
        assert gelu(Tensor(1.0)).item() == pytest.approx(0.8413447460685429, abs=1e-15)
        assert gelu(Tensor(-1.0)).item() == pytest.approx(-0.15865525393145707, abs=1e-15)
        assert gelu(Tensor(0.0)).item() == 0.0

    def test_dropout_eval_is_identity_object(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.5, None) is x

    def test_dropout_train_scales_survivors(self):
        x = Tensor(np.random.default_rng(2).normal(size=(50, 50)))
        uniforms = np.random.default_rng(3).random(x.shape)
        out = dropout(x, 0.25, uniforms).data
        keep = uniforms >= 0.25
        assert np.array_equal(out, np.where(keep, x.data * (1.0 / 0.75), 0.0))
        # drop fraction lands near p for a large mask
        assert abs((~keep).mean() - 0.25) < 0.05

    def test_dropout_gradient_follows_the_mask(self):
        uniforms = np.random.default_rng(9).random((8, 8))
        grad = _grad_of(lambda t: sum_all(dropout(t, 0.5, uniforms)), np.ones((8, 8)))
        assert np.array_equal(grad, (uniforms >= 0.5) * 2.0)

    def test_dropout_validation(self):
        x = Tensor(np.ones(4))
        with pytest.raises(ValueError):
            dropout(x, 1.0, np.zeros(4))
        with pytest.raises(ValueError):
            dropout(x, -0.1, np.zeros(4))

    def test_dropout_uniforms_never_broadcast(self):
        # a (B, 1, H) slice must not hand every row of a (B, T, H) input
        # the same mask
        x = Tensor(np.ones((2, 3, 4)))
        for shape in [(2, 1, 4), (3, 4), (2, 3, 4, 1)]:
            with pytest.raises(ShapeMismatch):
                dropout(x, 0.5, np.zeros(shape))


class TestGradCheck:
    """The checker itself: analytic-vs-central agreement on compositions,
    plus the failure modes it must detect."""

    def test_passes_on_composite_functions(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(4, 3)))
        x0 = rng.normal(size=(5, 4))

        def f(x):
            h = gelu(matmul(x, w))
            return mean_all(mul(h, h))

        report = grad_check(f, x0)
        assert report.passed, str(report)
        assert report.worst_rel < 1e-3

    def test_attention_like_composition(self):
        rng = np.random.default_rng(4)
        v = Tensor(rng.normal(size=(3, 3)))
        x0 = rng.normal(size=(3, 3))

        def f(x):
            return sum_all(mul(matmul(softmax_rows(x), v), v))

        assert grad_check(f, x0).passed

    def test_batched_matmul_stack_times_matrix(self):
        rng = np.random.default_rng(12)
        w = Tensor(rng.normal(size=(4, 3)))
        x0 = rng.normal(size=(2, 5, 4))
        weight = Tensor(rng.normal(size=(2, 5, 3)))
        assert grad_check(lambda x: sum_all(mul(matmul(x, w), weight)), x0).passed
        # the shared matrix collects its gradient from every stacked product
        stack = Tensor(x0)
        assert grad_check(lambda t: sum_all(mul(matmul(stack, t), weight)),
                          w.data).passed

    def test_batched_matmul_four_dimensional(self):
        rng = np.random.default_rng(13)
        other = Tensor(rng.normal(size=(2, 3, 4, 5)))
        weight = Tensor(rng.normal(size=(2, 3, 6, 5)))
        x0 = rng.normal(size=(2, 3, 6, 4))
        assert grad_check(lambda x: sum_all(mul(matmul(x, other), weight)), x0).passed
        left = Tensor(x0)
        assert grad_check(lambda t: sum_all(mul(matmul(left, t), weight)),
                          other.data).passed
        # a leading axis of one broadcasts, and its gradient sums back
        assert grad_check(lambda t: sum_all(mul(matmul(left, t), weight)),
                          other.data[:1]).passed

    def test_transpose_with_axes(self):
        rng = np.random.default_rng(14)
        weight = Tensor(rng.normal(size=(4, 2, 3)))
        x0 = rng.normal(size=(2, 3, 4))
        assert grad_check(lambda x: sum_all(mul(transpose(x, (2, 0, 1)), weight)),
                          x0).passed

    def test_softmax_rows_of_a_stack(self):
        rng = np.random.default_rng(15)
        weight = Tensor(rng.normal(size=(2, 3, 4)))
        x0 = rng.normal(size=(2, 3, 4))
        assert grad_check(lambda x: sum_all(mul(softmax_rows(x), weight)), x0).passed

    def test_detects_detached_gradient(self):
        # f breaks the tape on purpose: analytic grad is zero while the
        # numeric one is not, so the check has to fail.
        b = Tensor(np.arange(1.0, 7.0).reshape(2, 3))

        def detached(x):
            return sum_all(mul(Tensor(x.data), b))

        report = grad_check(detached, np.ones((2, 3)))
        assert not report.passed
        assert report.worst_rel > 0.5

    def test_rejects_non_deterministic_f(self):
        state = np.random.default_rng(0)

        def noisy(x):
            return sum_all(mul(x, Tensor(state.normal(size=x.shape))))

        with pytest.raises(NumericError):
            grad_check(noisy, np.ones((2, 2)))

    def test_accepts_size_one_f_of_any_rank(self):
        report = grad_check(lambda x: reshape(sum_all(mul(x, x)), (1,)), np.ones(3))
        assert report.passed and report.n_checked == 3

    def test_rejects_non_scalar_f(self):
        with pytest.raises(ShapeMismatch):
            grad_check(lambda x: mul(x, x), np.ones(3))

    def test_samples_at_most_max_coords(self):
        report = grad_check(lambda x: sum_all(mul(x, x)), np.ones(100))
        assert report.n_checked == 16
        assert report.passed

    def test_small_inputs_check_every_coordinate(self):
        report = grad_check(lambda x: sum_all(mul(x, x)), np.ones((2, 3)))
        assert report.n_checked == 6

    def test_report_renders_status(self):
        report = grad_check(lambda x: sum_all(mul(x, x)), np.ones(2))
        assert isinstance(report, GradCheckReport)
        assert str(report).startswith("PASS")


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------

finite_rows = st.lists(
    st.lists(st.integers(-40, 40).map(lambda k: k / 8.0), min_size=2, max_size=6),
    min_size=1, max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(finite_rows)
    def test_softmax_rows_are_distributions(self, rows):
        out = softmax_rows(Tensor(np.array(rows))).data
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out >= 0.0).all()

    @settings(max_examples=40, deadline=None)
    @given(finite_rows, st.integers(-5, 5))
    def test_softmax_shift_invariance(self, rows, shift):
        x = np.array(rows)
        a = softmax_rows(Tensor(x)).data
        b = softmax_rows(Tensor(x + float(shift))).data
        assert np.allclose(a, b, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=24))
    def test_sum_gradient_is_ones(self, values):
        g = _grad_of(lambda x: sum_all(x), np.array(values, dtype=float))
        assert np.array_equal(g, np.ones(len(values)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    def test_matmul_triple_loop_property(self, n, k, m):
        rng = np.random.default_rng(n * 100 + k * 10 + m)
        a = rng.integers(-5, 6, size=(n, k)).astype(float)
        b = rng.integers(-5, 6, size=(k, m)).astype(float)
        want = np.zeros((n, m))
        for i in range(n):
            for j in range(m):
                for t in range(k):
                    want[i, j] += a[i, t] * b[t, j]
        assert np.array_equal(matmul(Tensor(a), Tensor(b)).data, want)
