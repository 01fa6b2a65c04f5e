"""Dense tensors with reverse-mode automatic differentiation.

Ops execute eagerly on numpy float32 or float64 arrays. A tensor keeps
the float dtype it is given; other input, such as ints or Python
numbers, becomes :data:`DTYPE` (float64). A constant that meets a tensor
in an elementwise op or a matrix product takes that tensor's dtype, so a
float32 computation stays float32. While a :class:`Tape` is
active, every op whose output requires a gradient records an adjoint
closure; :func:`backward` replays the closures in reverse execution
order, which for a define-by-run graph is a valid topological order.
Gradients accumulate additively across fan-out, so running several
backward passes before clearing grads sums their contributions.

Thirteen primitives have hand-written adjoints: add, mul, matmul,
transpose, reshape, narrow, concat, sum_all, exp, log, softmax_rows,
layer_norm and gelu. Each checks its inputs, computes, defines its
adjoint, and hands both to one helper, ``_output``, which builds the
output tensor and records it with the adjoint. Five more ops are
compositions of them and record no adjoint of their own: sub, neg, take,
mean_all and dropout.

:func:`grad_check` is the independent oracle: central finite differences
on a sampled subset of coordinates, compared against the tape's
analytic gradient. :func:`primitive_checks` is the table of probes it
runs on every primitive.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

DTYPE = np.float64  # the dtype of tensors built from non-float input
_FLOAT_DTYPES = frozenset((np.dtype(np.float32), np.dtype(np.float64)))

LN_EPS = 1e-5  # layer_norm's variance floor
GRAD_CHECK_COORDS = 16  # coordinates grad_check probes per input
GRAD_CHECK_STEP = 1e-3  # grad_check's central-difference step
GRAD_CHECK_TOL = 1e-2  # grad_check's bound on the worst relative error

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


class TapeError(RuntimeError):
    """Tape misuse: non-scalar loss, or backward on a consumed tape."""


class Tensor:
    """A dense float array plus an optional same-shape gradient buffer.

    Tensors are immutable once created except for ``grad`` accumulation.
    """

    __slots__ = ("data", "requires_grad", "grad")

    # numpy operators return NotImplemented for a tensor operand, so
    # ``ndarray + tensor`` reaches __radd__ instead of an object array
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOAT_DTYPES else data.astype(DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item() needs a scalar, got shape {self.shape}")
        return self.data.item()

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{req})"

    # operator sugar; all routed through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of executed primitives, replayed in reverse by backward.

    Use as a context manager around the forward pass::

        with Tape() as tape:
            loss = f(x)
        backward(loss, tape)

    Tapes nest; only the innermost active tape records. A tape belongs to
    the thread that opened it (the active-tape stack is thread-local), so
    the forwards that ``bolf.train.score_samples`` runs on its pool's
    threads never record on the caller's tape.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _tape_stack().pop()
        return False

    def __len__(self) -> int:
        return len(self._nodes)


_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _output(data, requires_grad: bool, adjoint: Callable[[np.ndarray], None]) -> Tensor:
    """A primitive's output tensor, recorded with its adjoint on the
    innermost active tape when it requires a gradient. A numpy result is
    already a float array in its operands' dtype, so it skips Tensor()'s
    conversion; only a numpy scalar, which a reduction or a ufunc on 0-d
    operands gives, still goes through Tensor() to become a 0-d array."""
    if type(data) is np.ndarray:
        out = object.__new__(Tensor)
        out.data = data
        out.requires_grad = requires_grad
        out.grad = None
    else:
        out = Tensor(data, requires_grad)
    if requires_grad:
        stack = _tape_stack()
        if stack:
            stack[-1]._nodes.append((out, adjoint))
    return out


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g to t's gradient, in t's dtype. The first gradient to arrive is
    copied, unless ``fresh`` says that g is a new array that nothing else
    holds: then it becomes the buffer itself, if it is an array (not a
    numpy scalar) of t's dtype."""
    if t.grad is None:
        if fresh and type(g) is np.ndarray and g.dtype == t.data.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Wrap both operands of a binary op; a constant that meets a tensor
    takes its dtype, so a float32 operand is never promoted by one."""
    if isinstance(a, Tensor):
        if isinstance(b, Tensor):
            return a, b
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return Tensor(a), Tensor(b)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, inverting numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatch(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def adjoint(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _output(data, a.requires_grad or b.requires_grad, adjoint)


def sub(a, b) -> Tensor:
    """``a + (-b)``, which IEEE arithmetic rounds exactly as ``a - b``."""
    a, b = _operands(a, b)
    try:
        return add(a, neg(b))
    except ShapeMismatch:
        raise ShapeMismatch(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatch(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def adjoint(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape), fresh=True)

    return _output(data, a.requires_grad or b.requires_grad, adjoint)


def neg(a) -> Tensor:
    # wrapped first, so that a raw float32 array stays float32
    return mul(_wrap(a), -1.0)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy ``@`` semantics over leading axes.

    Both operands need at least two axes; leading axes broadcast, and the
    adjoint sums each gradient back down to its operand's shape. A stack
    times a matrix, the layout of every linear layer, runs as one flat
    product over all the stacked rows.
    """
    a, b = _operands(a, b)
    ad, bd = a.data, b.data
    ash, bsh = ad.shape, bd.shape
    if len(ash) < 2 or len(bsh) < 2 or ash[-1] != bsh[-2]:
        raise ShapeMismatch(f"matmul: incompatible shapes {ash} x {bsh}")
    flat = len(bsh) == 2
    if flat:
        data = (ad.reshape(-1, ash[-1]) @ bd).reshape(ash[:-1] + bsh[-1:])
    else:
        try:
            data = ad @ bd
        except ValueError:
            raise ShapeMismatch(
                f"matmul: leading axes of {ash} and {bsh} do not broadcast") from None

    def adjoint(g):
        if flat:
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accum(a, (g2 @ bd.T).reshape(ash), fresh=True)
            if b.requires_grad:
                _accum(b, ad.reshape(-1, ash[-1]).T @ g2, fresh=True)
            return
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ bd.swapaxes(-1, -2), ash), fresh=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(ad.swapaxes(-1, -2) @ g, bsh), fresh=True)

    return _output(data, a.requires_grad or b.requires_grad, adjoint)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes; by default swap the last two (a matrix transpose on
    every matrix of a stack)."""
    a = _wrap(a)
    ndim = a.data.ndim
    if axes is None:
        if ndim < 2:
            raise ShapeMismatch(f"transpose needs at least 2 axes, got shape {a.shape}")
        axes = (*range(ndim - 2), ndim - 1, ndim - 2)
    else:
        axes = tuple(axes)
        if sorted(axes) != list(range(ndim)):
            raise ShapeMismatch(f"transpose: axes {axes} do not permute shape {a.shape}")

    def adjoint(g):
        _accum(a, g.transpose(sorted(range(ndim), key=axes.__getitem__)))

    return _output(a.data.transpose(axes), a.requires_grad, adjoint)


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)

    def adjoint(g):
        _accum(a, g.reshape(a.data.shape))

    return _output(a.data.reshape(shape), a.requires_grad, adjoint)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    a = _wrap(a)
    if not 0 <= axis < a.ndim:
        raise ShapeMismatch(f"narrow: axis {axis} out of range for shape {a.shape}")
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeMismatch(
            f"narrow: [{start}, {start + length}) exceeds axis {axis} of shape {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def adjoint(g):
        buf = np.zeros_like(a.data)
        buf[index] = g
        _accum(a, buf, fresh=True)

    return _output(a.data[index].copy(), a.requires_grad, adjoint)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeMismatch("concat of an empty sequence")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeMismatch(f"concat: {e}") from None
    sizes = [t.shape[axis] for t in tensors]

    def adjoint(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + n)
                _accum(t, g[tuple(index)])
            offset += n

    return _output(data, any(t.requires_grad for t in tensors), adjoint)


def take(a, index: int) -> Tensor:
    """Select one element of a vector as a scalar tensor."""
    a = _wrap(a)
    if a.ndim != 1:
        raise ShapeMismatch(f"take expects a vector, got shape {a.shape}")
    if not 0 <= index < a.shape[0]:
        raise ShapeMismatch(f"take: index {index} out of range for shape {a.shape}")
    return reshape(narrow(a, 0, index, 1), ())


def sum_all(a) -> Tensor:
    a = _wrap(a)

    def adjoint(g):
        _accum(a, np.full(a.data.shape, float(g), dtype=a.data.dtype), fresh=True)

    return _output(a.data.sum(), a.requires_grad, adjoint)  # a numpy scalar


def mean_all(a) -> Tensor:
    """The sum times 1/size, which may differ from ``ndarray.mean()`` in the
    last bit."""
    a = _wrap(a)
    return mul(sum_all(a), 1.0 / a.size)


def exp(a) -> Tensor:
    a = _wrap(a)
    with np.errstate(over="ignore"):  # overflow is reported as NumericError below
        data = np.exp(a.data)
    if not np.all(np.isfinite(data)):
        raise NumericError("exp overflowed to a non-finite value")

    def adjoint(g):
        _accum(a, g * data, fresh=True)

    return _output(data, a.requires_grad, adjoint)


def log(a) -> Tensor:
    a = _wrap(a)
    if np.any(a.data <= 0.0):
        raise NumericError("log of a non-positive value")

    def adjoint(g):
        _accum(a, g / a.data, fresh=True)

    return _output(np.log(a.data), a.requires_grad, adjoint)


# ---------------------------------------------------------------------------
# fused neural-net primitives
# ---------------------------------------------------------------------------

def softmax_rows(x) -> Tensor:
    """Softmax along the last axis, stabilized by per-row max subtraction.

    Takes a matrix or a stack of matrices. Every output row is nonnegative
    and sums to 1 for any finite input, including extreme magnitudes.
    """
    x = _wrap(x)
    if x.ndim < 2:
        raise ShapeMismatch(f"softmax_rows expects at least 2 axes, got shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise NumericError("softmax_rows received non-finite input")
    y = np.subtract(x.data, np.maximum.reduce(x.data, axis=-1, keepdims=True))
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)

    def adjoint(g):
        # d/dx of softmax: y * (g - sum_j g_j y_j) per row
        dx = g * y
        np.subtract(g, np.add.reduce(dx, axis=-1, keepdims=True), out=dx)
        dx *= y
        _accum(x, dx, fresh=True)

    return _output(y, x.requires_grad, adjoint)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize each vector along the last axis, then apply the affine map.

    Per vector: subtract the mean, divide by sqrt(variance + LN_EPS)
    (population variance), scale by gamma and shift by beta. The output,
    gamma * xhat + beta, is written over the centered input, a scratch
    array of its own, whenever gamma and beta share x's dtype; x itself is
    never written.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeMismatch(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} must both be ({d},) "
            f"to match input {x.shape}")
    # every mean is a sum divided by d. ndarray.mean divides a float32 sum
    # by an intp, in float64, and rounds twice; for any d that float32
    # holds exactly (every d up to 2**24) that gives the bits of this one
    # float32 division
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= d
    centered = x.data - mu
    with np.errstate(over="ignore"):  # overflow is reported as NumericError below
        xhat = centered * centered  # the squares; xhat once var is known
        var = np.add.reduce(xhat, axis=-1, keepdims=True)
        var /= d
    if not np.isfinite(var).all():
        raise NumericError("layer_norm variance is not finite")
    var += LN_EPS
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    np.multiply(centered, inv, out=xhat)
    # centered is spent; when gamma and beta share its dtype, which the
    # output then has too, it takes the output
    scratch = centered if gamma.data.dtype == beta.data.dtype == centered.dtype else None
    out = np.add(np.multiply(gamma.data, xhat, out=scratch), beta.data, out=scratch)

    def adjoint(g):
        if gamma.requires_grad:
            _accum(gamma, np.add.reduce((g * xhat).reshape(-1, d), axis=0), fresh=True)
        if beta.requires_grad:
            _accum(beta, np.add.reduce(g.reshape(-1, d), axis=0), fresh=True)
        if x.requires_grad:
            # inv * (dxhat - m1 - xhat * m2), m1 and m2 the row means of
            # dxhat and dxhat * xhat
            dxhat = g * gamma.data
            prod = dxhat * xhat
            m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
            m1 /= d
            m2 = np.add.reduce(prod, axis=-1, keepdims=True)
            m2 /= d
            dxhat -= m1
            dxhat -= np.multiply(xhat, m2, out=prod)
            dxhat *= inv
            _accum(x, dxhat, fresh=True)

    return _output(out, x.requires_grad or gamma.requires_grad or beta.requires_grad, adjoint)


def gelu(x) -> Tensor:
    """Gaussian-error linear unit, exact erf form x * (0.5 * (1 + erf(x/sqrt(2)))).

    The normal CDF is built in one array of x's dtype, by the same ufuncs in
    the same order as that expression, and when x needs no gradient the
    output is written over that array too; x itself is never written.
    """
    x = _wrap(x)
    # out= keeps a 0-d input a 0-d array, where a bare divide would give a
    # numpy scalar that erf cannot write into
    cdf = np.divide(x.data, _SQRT_2, out=np.empty_like(x.data))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def adjoint(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        _accum(x, g * (cdf + x.data * pdf), fresh=True)

    # only the adjoint reads the CDF again, so without one it takes the output
    out = np.multiply(x.data, cdf, out=None if x.requires_grad else cdf)
    return _output(out, x.requires_grad, adjoint)


def dropout(x, p: float, uniforms: np.ndarray | None) -> Tensor:
    """Inverted dropout: keep the units whose uniform draw is >= p and
    scale them by 1/(1-p).

    ``uniforms`` holds one draw in [0, 1) per unit of ``x``, with exactly
    its shape; it never broadcasts. ``None`` is eval mode, the identity,
    so eval outputs are a pure function of the weights.
    """
    x = _wrap(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if uniforms is None:
        return x
    if uniforms.shape != x.shape:
        raise ShapeMismatch(f"dropout: uniforms {uniforms.shape} != input {x.shape}")
    # the mask is built in x's dtype, so mul need not cast it
    mask = (uniforms >= p) * x.data.dtype.type(1.0 / (1.0 - p))
    return mul(x, mask)


# ---------------------------------------------------------------------------
# backward + gradient checking
# ---------------------------------------------------------------------------

def backward(loss: Tensor, tape: Tape) -> None:
    """Populate grads of every requires_grad leaf reachable from the loss.

    Visits each recorded op exactly once, in reverse execution order.
    The tape is single-use: each op is dropped from it once replayed, which
    frees the activations and gradients nothing else holds while the pass
    runs. ``len(tape)`` still counts the recorded ops.
    """
    if loss.data.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape._consumed:
        raise TapeError("tape already consumed by a previous backward")
    tape._consumed = True
    loss.grad = np.ones_like(loss.data)
    nodes = tape._nodes
    for i in range(len(nodes) - 1, -1, -1):
        out, adjoint = nodes[i]
        nodes[i] = None
        if out.grad is not None:
            adjoint(out.grad)


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference gradient check."""

    passed: bool
    n_checked: int
    worst_rel: float
    worst_coord: tuple[int, ...] | None
    worst_analytic: float
    worst_numeric: float

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        where = "" if self.worst_coord is None else (
            f" at {self.worst_coord} (analytic {self.worst_analytic:.6g}, "
            f"central {self.worst_numeric:.6g})")
        return (f"{status}: worst relative error {self.worst_rel:.3g} over "
                f"{self.n_checked} coordinates (tol {GRAD_CHECK_TOL:g}){where}")


def grad_check(f: Callable[[Tensor], Tensor], x) -> GradCheckReport:
    """Compare the tape's gradient of scalar f against central differences.

    Checks GRAD_CHECK_COORDS coordinates drawn by a fixed-seed generator
    (all of them when the input is no larger), with central differences of
    step GRAD_CHECK_STEP. Relative error per coordinate is
    ``|analytic - central| / max(|analytic|, |central|, 1e-8)``, and the
    check passes if the worst one is below GRAD_CHECK_TOL.

    Raises NumericError if re-evaluating f at the same point gives a
    different value (f must be deterministic).
    """
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=DTYPE, copy=True)
    probe = Tensor(base, requires_grad=True)
    with Tape() as tape:
        y = f(probe)
    if not isinstance(y, Tensor) or y.size != 1:
        raise ShapeMismatch("grad_check needs a scalar-valued f")
    y0 = y.item()
    if f(Tensor(base.copy())).item() != y0:
        raise NumericError("grad_check: f is not deterministic (re-evaluation mismatch)")
    backward(y, tape)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(base)
    flat_analytic = analytic.reshape(-1)

    n = base.size
    if n <= GRAD_CHECK_COORDS:
        coords = np.arange(n)
    else:
        coords = np.sort(np.random.default_rng(0).choice(n, size=GRAD_CHECK_COORDS,
                                                         replace=False))

    worst_rel = 0.0
    worst_coord = None
    worst_a = worst_n = 0.0
    flat_base = base.reshape(-1)
    for c in coords:
        plus = flat_base.copy()
        plus[c] += GRAD_CHECK_STEP
        minus = flat_base.copy()
        minus[c] -= GRAD_CHECK_STEP
        f_plus = f(Tensor(plus.reshape(base.shape))).item()
        f_minus = f(Tensor(minus.reshape(base.shape))).item()
        numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
        a = float(flat_analytic[c])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        if rel >= worst_rel:
            worst_rel = rel
            worst_coord = np.unravel_index(int(c), base.shape)
            worst_a, worst_n = a, numeric
    return GradCheckReport(
        passed=worst_rel < GRAD_CHECK_TOL,
        n_checked=len(coords),
        worst_rel=worst_rel,
        worst_coord=worst_coord,
        worst_analytic=worst_a,
        worst_numeric=worst_n,
    )


def primitive_checks() -> list[tuple[str, object, np.ndarray]]:
    """(name, scalar-valued f, probe point) for every tape primitive, and
    for the cross-entropy loss built from them, for :func:`grad_check`."""
    from .train import cross_entropy  # bolf.train imports this module

    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 7))
    b = Tensor(rng.normal(size=(5, 7)))
    m = Tensor(rng.normal(size=(7, 4)))
    w57 = Tensor(rng.normal(size=(5, 7)))
    w75 = Tensor(rng.normal(size=(7, 5)))
    w35 = Tensor(rng.normal(size=(35,)))
    w53 = Tensor(rng.normal(size=(5, 3)))
    w107 = Tensor(rng.normal(size=(10, 7)))
    gamma = Tensor(rng.normal(size=(7,)))
    beta = Tensor(rng.normal(size=(7,)))
    pos = np.abs(rng.normal(size=(5, 7))) + 0.5
    vec = rng.normal(size=(7,))

    def fixed_dropout(t):
        return sum_all(mul(dropout(t, 0.5, np.random.default_rng(7).random(t.shape)), w57))

    return [
        ("add", lambda t: sum_all(mul(add(t, b), w57)), a),
        ("sub", lambda t: sum_all(mul(sub(t, b), w57)), a),
        ("mul", lambda t: sum_all(mul(mul(t, b), w57)), a),
        ("neg", lambda t: sum_all(mul(neg(t), w57)), a),
        ("matmul", lambda t: sum_all(matmul(t, m)), a),
        ("transpose", lambda t: sum_all(mul(transpose(t), w75)), a),
        ("reshape", lambda t: sum_all(mul(reshape(t, (35,)), w35)), a),
        ("narrow", lambda t: sum_all(mul(narrow(t, 1, 2, 3), w53)), a),
        ("concat", lambda t: sum_all(mul(concat([t, b], 0), w107)), a),
        ("take", lambda t: mul(take(t, 3), take(t, 5)), vec),
        ("sum_all", lambda t: sum_all(t), a),
        ("mean_all", lambda t: mean_all(t), a),
        ("exp", lambda t: sum_all(mul(exp(t), w57)), 0.3 * a),
        ("log", lambda t: sum_all(mul(log(t), w57)), pos),
        ("softmax_rows", lambda t: sum_all(mul(softmax_rows(t), w57)), a),
        ("layer_norm", lambda t: sum_all(mul(layer_norm(t, gamma, beta), w57)), a),
        ("layer_norm_gamma", lambda t: sum_all(mul(layer_norm(b, t, beta), w57)), vec),
        ("layer_norm_beta", lambda t: sum_all(mul(layer_norm(b, gamma, t), w57)), vec),
        ("gelu", lambda t: sum_all(mul(gelu(t), w57)), a),
        ("dropout", fixed_dropout, a),
        ("cross_entropy", lambda t: cross_entropy(t, 1), rng.normal(size=(2,))),
    ]
