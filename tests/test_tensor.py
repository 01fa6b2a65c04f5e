"""Tests for the tape-based autodiff core.

Forward values are pinned against hand or triple-loop oracles; adjoints
are validated with the built-in central-difference checker, including a
negative control proving the checker can actually fail.
"""

import itertools
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from bolf.model import ModelConfig, ModelParams, forward, init_params
from bolf.tensor import (
    DTYPE,
    LN_EPS,
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ops_on_0d_tensors_hold_0d_arrays(self, dtype):
        # a ufunc on 0-d operands gives a numpy scalar; a tensor holds an array
        a, b = Tensor(np.array(2.0, dtype)), Tensor(np.array(3.0, dtype))
        for out in (add(a, b), mul(a, b), sub(a, b), neg(a), exp(a), log(a), gelu(a),
                    sum_all(a), mean_all(a), reshape(Tensor(np.ones(1, dtype)), ())):
            assert type(out.data) is np.ndarray
            assert out.data.shape == () and out.data.dtype == dtype

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
        assert np.array_equal((2.0 + a).data, [4.0, 6.0])

    def test_numpy_operands_on_the_left_defer_to_the_tensor(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            out = np.arange(3.0) + t
            assert isinstance(out, Tensor)
            loss = sum_all(mul(out, out))
        backward(loss, tape)
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])
        assert np.array_equal(t.grad, [2.0, 4.0, 6.0])
        assert np.array_equal((np.ones(3) - t).data, np.zeros(3))
        t32 = Tensor(np.ones(2, dtype=np.float32))
        out32 = np.float32(2) * t32
        assert isinstance(out32, Tensor) and out32.data.dtype == np.float32
        # there is no __rmatmul__: numpy's matmul must not iterate the tensor
        with pytest.raises(TypeError):
            np.ones((2, 2)) @ Tensor(np.ones((2, 2)))

    def test_add_of_two_raw_arrays(self):
        out = add(np.array([1.0, 2.0]), np.array([3, 4]))
        assert isinstance(out, Tensor)
        assert np.array_equal(out.data, [4.0, 6.0])
        assert out.data.dtype == DTYPE
        assert out.requires_grad is False

    def test_repr_shows_shape_and_grad_flag(self):
        assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3))"
        assert repr(Tensor([1.0], requires_grad=True)) == \
            "Tensor(shape=(1,), requires_grad=True)"

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
        a.grad = None
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

    def test_eval_forward_records_nothing_on_an_open_tape(self):
        # the model as bolf eval and rollout load it: no tensor needs a gradient
        cfg = ModelConfig()
        trained = init_params(cfg, seed=0)
        params = ModelParams.from_arrays(cfg, {name: t.data for name, t in trained.named()},
                                         requires_grad=False)
        images = np.random.default_rng(0).random((8, cfg.height, cfg.width, cfg.channels))
        with Tape() as tape:
            forward(images, params, cfg)
        assert len(tape) == 0

    # one call of each primitive; `t(shape)` makes one input tensor. A 0-d
    # mul gives a numpy scalar, as sum_all does, not an array
    _PRIMITIVE_CALLS = {
        "add": lambda t: add(t((2, 3)), t((3,))),
        "mul": lambda t: mul(t((2, 3)), t((2, 3))),
        "mul_0d": lambda t: mul(t(()), t(())),
        "matmul": lambda t: matmul(t((2, 3)), t((3, 4))),
        "transpose": lambda t: transpose(t((2, 3))),
        "reshape": lambda t: reshape(t((2, 3)), (3, 2)),
        "narrow": lambda t: narrow(t((2, 3)), 1, 1, 2),
        "concat": lambda t: concat([t((2, 3)), t((1, 3))]),
        "sum_all": lambda t: sum_all(t((2, 3))),
        "exp": lambda t: exp(t((2, 3))),
        "log": lambda t: log(t((2, 3))),
        "softmax_rows": lambda t: softmax_rows(t((2, 3))),
        "layer_norm": lambda t: layer_norm(t((2, 3)), t((3,)), t((3,))),
        "gelu": lambda t: gelu(t((2, 3))),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(_PRIMITIVE_CALLS))
    def test_a_primitive_records_its_output_once(self, name, dtype):
        rng = np.random.default_rng(0)

        def inputs(requires_grad):
            return lambda shape: Tensor(np.asarray(rng.random(shape) + 0.5, dtype=dtype),
                                        requires_grad=requires_grad)

        with Tape() as tape:
            out = self._PRIMITIVE_CALLS[name](inputs(True))
        assert len(tape) == 1
        assert tape._nodes[0][0] is out
        assert out.requires_grad and out.grad is None
        assert type(out.data) is np.ndarray and out.data.dtype == dtype

        with Tape() as tape:
            out = self._PRIMITIVE_CALLS[name](inputs(False))
        assert len(tape) == 0
        assert not out.requires_grad
        assert type(out.data) is np.ndarray and out.data.dtype == dtype

    def test_training_step_records_75_ops(self):
        from bolf.train import cross_entropy  # bolf.train imports this module

        cfg = ModelConfig()  # two blocks, with dropout
        params = init_params(cfg, seed=0)
        images = np.random.default_rng(0).random((8, cfg.height, cfg.width, cfg.channels))
        with Tape() as tape:
            logits, _ = forward(images, params, cfg, train=True,
                                rng=np.random.default_rng(1))
            cross_entropy(logits, np.array([0, 1] * 4))
        assert len(tape) == 75


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


class TestDtypes:
    """A tensor computes in the float dtype it is given: float32 stays
    float32 through every op and its gradient, float64 stays float64."""

    @staticmethod
    def _all_ops(x: Tensor, w: Tensor) -> Tensor:
        """A scalar through every primitive, with constants of the default
        dtype on both sides of add, sub, mul and matmul."""
        c = np.linspace(-1.0, 1.0, 12).reshape(3, 4)  # float64
        h = add(mul(2.0, x), c)
        h = sub(add(1.0, h), 0.5)
        h = sub(c, mul(h, c))
        h = layer_norm(h, Tensor(np.ones(4, dtype=w.data.dtype)), w)
        h = gelu(matmul(h, np.eye(4)))
        h = dropout(h, 0.5, np.random.default_rng(0).random(h.shape))
        h = softmax_rows(matmul(h, transpose(reshape(h, (3, 4)))))
        h = concat([narrow(h, 1, 0, 2), neg(h)], axis=1)
        h = log(add(exp(mul(h, 0.5)), 1.0))
        return add(mean_all(h), mul(sum_all(h), take(reshape(w, (4,)), 1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_op_and_gradient_keeps_the_dtype(self, dtype):
        x = Tensor(np.arange(12.0, dtype=dtype).reshape(3, 4) / 7, requires_grad=True)
        w = Tensor(np.full(4, 0.1, dtype=dtype), requires_grad=True)
        with Tape() as tape:
            loss = self._all_ops(x, w)
        dtypes = {out.data.dtype for out, _ in tape._nodes}
        backward(loss, tape)
        assert dtypes == {np.dtype(dtype)}
        assert x.grad.dtype == dtype and w.grad.dtype == dtype

    @pytest.mark.parametrize("op", [add, sub, mul])
    def test_constants_do_not_promote_float32(self, op):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        for const in (0.25, np.float64(0.25), np.full((2, 3), 0.25)):
            assert op(x, const).data.dtype == np.float32
            assert op(const, x).data.dtype == np.float32
        assert matmul(x, np.ones((3, 2))).data.dtype == np.float32
        assert matmul(np.ones((2, 2)), x).data.dtype == np.float32

    def test_float64_tensor_computes_in_float64(self):
        x = Tensor(np.ones((2, 3)))
        assert x.data.dtype == np.float64
        assert mul(x, np.full((2, 3), 0.1, dtype=np.float32)).data.dtype == np.float64
        assert add(x, 1.0).data.dtype == np.float64
        # a float32 constant is widened exactly, as before
        y = mul(x, np.float32(0.1))
        assert y.data[0, 0] == float(np.float32(0.1))

    def test_non_float_input_becomes_float64(self):
        assert Tensor(np.arange(3)).data.dtype == DTYPE == np.float64
        assert Tensor(1).data.dtype == DTYPE
        assert Tensor(np.ones(2, dtype=np.float16)).data.dtype == DTYPE

    def test_float32_input_is_kept_not_copied(self):
        a = np.ones(3, dtype=np.float32)
        assert Tensor(a).data is a

    def test_fanned_out_gradient_is_not_shared(self):
        # add hands the same g to both operands: each must get its own buffer
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = add(a, b)
            loss = sum_all(mul(reshape(y, (4,)), np.arange(4.0)))
        backward(loss, tape)
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert np.array_equal(b.grad, np.arange(4.0).reshape(2, 2))

    def test_scalar_gradient_is_an_array(self):
        a = Tensor(2.0, requires_grad=True)
        with Tape() as tape:
            loss = neg(a)
        backward(loss, tape)
        assert type(a.grad) is np.ndarray and a.grad == -1.0


class TestCompositions:
    """sub, neg and dropout are built from other primitives; they must
    still give numpy's own values and gradients, bit for bit."""

    @staticmethod
    def _value_and_grads(f, *arrays):
        """f's value and the gradients of sum(f(*arrays) * w), with w a
        fixed weight of f's shape and dtype."""
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = f(*leaves)
            w = np.random.default_rng(1).normal(size=out.shape).astype(out.data.dtype)
            loss = sum_all(mul(out, w))
        backward(loss, tape)
        return out.data, w, [t.grad for t in leaves]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_match_numpy_bit_for_bit(self, dtype):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4)).astype(dtype)
        b = rng.normal(size=(4,)).astype(dtype)

        out, w, (ga, gb) = self._value_and_grads(sub, a, b)
        assert out.dtype == dtype and np.array_equal(out, a - b)
        assert np.array_equal(ga, w) and np.array_equal(gb, -w.sum(axis=0))

        out, w, (ga,) = self._value_and_grads(neg, a)
        assert np.array_equal(out, -a) and np.array_equal(ga, -w)

        u, p = rng.random(a.shape), 0.3
        out, w, (ga,) = self._value_and_grads(lambda t: dropout(t, p, u), a)
        scale = 1.0 / (1.0 - p)
        assert out.dtype == dtype and np.array_equal(out, a * (u >= p) * scale)
        assert ga.dtype == dtype and np.array_equal(ga, w * (u >= p) * scale)

    def test_neg_keeps_a_raw_float32_array(self):
        assert neg(np.ones(3, dtype=np.float32)).data.dtype == np.float32

    def test_sub_shape_error_names_sub(self):
        with pytest.raises(ShapeMismatch, match=r"^sub: shapes \(2, 3\) and \(4,\)"):
            sub(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))

    def test_mul_shape_error_names_mul(self):
        with pytest.raises(ShapeMismatch, match=r"^mul: shapes \(2, 3\) and \(4,\)"):
            mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)))


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

    @pytest.mark.parametrize("ndim", [3, 4])
    def test_transpose_every_permutation_matches_numpy(self, ndim):
        rng = np.random.default_rng(ndim)
        a = rng.normal(size=(2, 3, 4, 5)[:ndim])
        for axes in itertools.permutations(range(ndim)):
            x = Tensor(a, requires_grad=True)
            g = rng.normal(size=tuple(a.shape[i] for i in axes))
            with Tape() as tape:
                out = transpose(x, axes)
                loss = sum_all(mul(out, g))
            backward(loss, tape)
            assert out.data.shape == a.transpose(axes).shape
            assert np.array_equal(out.data, a.transpose(axes))
            assert np.array_equal(x.grad, g.transpose(np.argsort(axes)))

    @pytest.mark.parametrize("axes", [(0, 0, 1), (1, 2, 1), (0, -1, 1), (-3, -2, -1),
                                      (0, 1), (0, 1, 2, 3), (), (0, 1, 3)])
    def test_transpose_rejects_what_does_not_permute_the_axes(self, axes):
        a = Tensor(np.zeros((2, 3, 4)))
        message = f"transpose: axes {axes} do not permute shape (2, 3, 4)"
        with pytest.raises(ShapeMismatch) as info:
            transpose(a, axes)
        assert str(info.value) == message
        with pytest.raises(ShapeMismatch) as info:
            transpose(a, list(axes))
        assert str(info.value) == message

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
        with pytest.raises(ShapeMismatch, match="take expects a vector"):
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

    def test_layer_norm_variance_overflow_raises(self):
        # in float32 a squared deviation beyond about 1.8e19 overflows
        x = Tensor(np.array([[3e19, -3e19, 1.0, 2.0]], dtype=np.float32))
        gamma, beta = Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32))
        with pytest.raises(NumericError, match="layer_norm"):
            layer_norm(x, gamma, beta)

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


# The formulas of layer_norm, softmax_rows and gelu, forward and adjoint, and
# transpose's inverse permutation, written with ndarray.mean, max and argsort
# and a new array per step; the kernels must give their bytes exactly.

def _layer_norm_oracle(x, gamma, beta, g):
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (gamma * xhat + beta, inv * (dxhat - m1 - xhat * m2),
            (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))


def _softmax_oracle(x, g):
    if x.ndim < 2:
        raise ShapeMismatch("softmax_rows needs 2 axes")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return y, y * (g - (g * y).sum(axis=-1, keepdims=True))


def _gelu_oracle(x, g):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)
    return x * cdf, g * (cdf + x * pdf)


def _same_bytes(got, want):
    want = np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


ORACLE_SHAPES = [(), (64,), (7,), (17,), (5, 64), (5, 7), (6, 17), (2, 3, 17),
                 (2, 5, 7), (2, 2, 3, 64), (2, 3, 4, 7), (3, 2, 2, 17)]


class TestKernelOracles:
    """Bit for bit against the oracles above, in float32 and float64, on
    inputs with 0 to 4 axes and rows of 64, 7 and 17; widths that are not a
    power of two catch a mean that divides in the wrong precision."""

    @staticmethod
    def _draw(shape, dtype, seed, scale=3.0):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=shape) * scale).astype(dtype)

    @staticmethod
    def _run(op, g, *args):
        """op's output and the gradients the tape gives each argument when
        the output's gradient is g."""
        tensors = [Tensor(a, requires_grad=True) for a in args]
        with Tape() as tape:
            out = op(*tensors)
            loss = sum_all(mul(out, g))
        backward(loss, tape)
        return out.data, [t.grad for t in tensors]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_layer_norm(self, shape, dtype):
        x, g = self._draw(shape, dtype, 1), self._draw(shape, dtype, 2)
        if not shape:
            with pytest.raises(IndexError):
                _layer_norm_oracle(x, x, x, g)
            with pytest.raises(IndexError):
                layer_norm(Tensor(x), Tensor(x), Tensor(x))
            return
        gamma = self._draw(shape[-1:], dtype, 3, 1.0)
        beta = self._draw(shape[-1:], dtype, 4, 1.0)
        out, grads = self._run(layer_norm, g, x, gamma, beta)
        want = _layer_norm_oracle(x, gamma, beta, g)
        for got, expected in zip([out] + grads, want):
            _same_bytes(got, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_softmax_rows(self, shape, dtype):
        x, g = self._draw(shape, dtype, 5), self._draw(shape, dtype, 6)
        if len(shape) < 2:
            with pytest.raises(ShapeMismatch):
                _softmax_oracle(x, g)
            with pytest.raises(ShapeMismatch):
                softmax_rows(Tensor(x))
            return
        out, (grad,) = self._run(softmax_rows, g, x)
        want_out, want_grad = _softmax_oracle(x, g)
        _same_bytes(out, want_out)
        _same_bytes(grad, want_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_gelu(self, shape, dtype):
        x, g = self._draw(shape, dtype, 7), self._draw(shape, dtype, 8)
        out, (grad,) = self._run(gelu, g, x)
        want_out, want_grad = _gelu_oracle(x, g)
        _same_bytes(out, want_out)
        _same_bytes(grad, want_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (7,), (2, 3, 17)])
    def test_gelu_and_layer_norm_leave_their_inputs_unchanged(self, shape, dtype):
        # off the tape, as eval runs them, and on a strided view as well as
        # a contiguous array: the output is a new array with the oracle's bytes
        x = self._draw(shape, dtype, 13)
        views = [x, self._draw(shape[::-1], dtype, 14).T] if shape else [x]
        for x in views:
            kept = x.copy()
            out = gelu(Tensor(x)).data
            _same_bytes(out, _gelu_oracle(x, x)[0])
            _same_bytes(x, kept)
            assert not np.shares_memory(out, x)
            if not shape:
                continue
            gamma = self._draw(shape[-1:], dtype, 15, 1.0)
            beta = self._draw(shape[-1:], dtype, 16, 1.0)
            kept_gamma, kept_beta = gamma.copy(), beta.copy()
            out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
            _same_bytes(out, _layer_norm_oracle(x, gamma, beta, x)[0])
            for array, before in ((x, kept), (gamma, kept_gamma), (beta, kept_beta)):
                _same_bytes(array, before)
                assert not np.shares_memory(out, array)

    @pytest.mark.parametrize("dtypes", list(itertools.product([np.float32, np.float64],
                                                              repeat=3)))
    def test_layer_norm_output_takes_the_promoted_dtype(self, dtypes):
        # float64 gamma or beta over a float32 x promote the affine map, so
        # its output cannot be written over x's float32 scratch
        x_dtype, gamma_dtype, beta_dtype = dtypes
        x = self._draw((2, 3, 17), x_dtype, 17)
        gamma = self._draw((17,), gamma_dtype, 18, 1.0)
        beta = self._draw((17,), beta_dtype, 19, 1.0)
        out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        assert out.dtype == np.result_type(x, gamma, beta)
        _same_bytes(out, _layer_norm_oracle(x, gamma, beta, x)[0])

    @pytest.mark.parametrize("ndim", range(5))
    def test_transpose_inverse(self, ndim):
        shape = (2, 3, 4, 5)[:ndim]
        x = self._draw(shape, np.float64, 9)
        for axes in itertools.permutations(range(ndim)):
            g = self._draw(tuple(shape[a] for a in axes), np.float64, 10)
            _, (grad,) = self._run(lambda t: transpose(t, axes), g, x)
            _same_bytes(grad, g.transpose(tuple(np.argsort(axes))))

    def test_float32_layer_norm_overflow_row_raises(self):
        x = self._draw((3, 7), np.float32, 11)
        x[1, :2] = (3e19, -3e19)  # this row's squared deviations overflow
        ones, zeros = np.ones(7, np.float32), np.zeros(7, np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="layer_norm"):
                layer_norm(Tensor(x), Tensor(ones), Tensor(zeros))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_softmax_rows_non_finite_input_raises(self, dtype, bad):
        x = self._draw((2, 3, 7), dtype, 12)
        x[1, 2, 4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite"):
                softmax_rows(Tensor(x))

    @pytest.mark.parametrize("width", [3, 7, 17, 63, 64, 100])
    def test_float32_row_sum_over_width_is_ndarray_mean(self, width):
        # ndarray.mean divides a float32 sum in float64 and rounds twice;
        # layer_norm divides once in float32, which gives the same bits
        rng = np.random.default_rng(width)
        scale = 10.0 ** rng.integers(-30, 30, size=(4000, 1))
        x = (rng.normal(size=(4000, width)) * scale).astype(np.float32)
        sums = np.add.reduce(x, axis=-1, keepdims=True)
        sums /= width
        _same_bytes(sums, x.mean(axis=-1, keepdims=True))
