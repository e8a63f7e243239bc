"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation appends a node to an implicit tape: the node records one
edge per input (the node that produced it, or the leaf tensor itself) and a
backward rule, and carries a monotonically increasing sequence number.
Because inputs always exist before the node that consumes them, processing
nodes in decreasing sequence order is a valid reverse topological sweep;
``backward`` pops them off one max-heap, so it visits each node exactly once.

A recorded op keeps only what its backward rule reads: the arrays the rule
multiplies by (matmul and mul operands, softmax output, layernorm's
normalized input, conv1d's folded input, GELU's derivative) plus shape tuples
and flags. Inputs no rule reads, such as a conv's output once GELU has
consumed it, are freed during the forward pass.

GELU and conv1d split a large call into tasks on one thread pool (see
``_parallel``); each task writes its own slice of a preallocated output with
the operations, in the order, of the unsplit call, so the results do not
depend on how many CPUs ran them.

Tensors are immutable once created except for gradient accumulation; a tape
and its tensors belong to one worker at a time. Tapes are not reused across
training steps — dropping the loss tensor frees the whole graph. ``backward``
writes ``.grad`` on leaves only and frees each intermediate gradient as soon
as it has been pushed to the node's inputs.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import itertools
import os
from concurrent import futures
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .errors import ContractError, DimensionError

_SEQ = itertools.count()
_GRAD_ENABLED = True

_INV_SQRT_2PI = 0.3989422804014327

# Values a task must get before an op is split: below these the hand-off to a
# pool thread costs more than the task saves. A conv1d backward task does
# several products per value of its block, a GELU or conv1d forward task one.
_TASK_FLOOR = 1 << 18
_CONV_BWD_TASK_FLOOR = 1 << 20
_POOL: futures.ThreadPoolExecutor | None = None


def _drop_pool() -> None:
    # A forked child inherits the executor but none of its threads.
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _pool() -> futures.ThreadPoolExecutor:
    """The process's pool: one thread per CPU the process may run on, less the
    caller's, created on first use."""
    global _POOL
    if _POOL is None:
        _POOL = futures.ThreadPoolExecutor(_cpus() - 1, thread_name_prefix="sst-autodiff")
    return _POOL


def _parallel(task: Callable[[slice], None], count: int, values: int, floor: int) -> None:
    """Run task over the index range [0, count), split into contiguous blocks.

    `values` is the work of the whole range. The block count is the least of
    the CPUs, `count` and `values // floor`, so each task gets at least
    `floor` values; below two blocks, task(slice(None)) runs on the calling
    thread. Otherwise the first block runs on the calling thread and the rest
    on the pool, each in a copy of the caller's context, so numpy's error
    state carries over. Errors are raised once every block has finished.
    """
    tasks = min(count, values // floor)
    if tasks >= 2:
        tasks = min(tasks, _cpus())
    if tasks < 2:
        task(slice(None))
        return
    edges = [count * i // tasks for i in range(tasks + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    pool = _pool()
    pending = [pool.submit(contextvars.copy_context().run, task, b) for b in blocks[1:]]
    try:
        task(blocks[0])
    finally:
        futures.wait(pending)
    for f in pending:
        f.result()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / finite differences)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Node:
    """One tape entry: where each input came from and how to push gradients back.

    An edge is the node that produced the input, the input itself when it is a
    leaf that requires grad, or None when no gradient flows to it; the input
    tensors themselves are not held.
    """

    __slots__ = ("edges", "backward_rule", "seq")

    def __init__(self, inputs: tuple["Tensor", ...], backward_rule: Callable):
        self.edges = tuple([(t.node or t) if t.requires_grad else None for t in inputs])
        self.backward_rule = backward_rule  # grad_out -> tuple of grads (or None) per input
        self.seq = next(_SEQ)


class Tensor:
    """N-dimensional float64 array, optionally attached to the differentiation tape."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def reshape(self, *shape: int) -> "Tensor":
        return reshape(self, shape)

    def permute(self, *axes: int) -> "Tensor":
        return permute(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return shift(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, neg(other))
        return shift(self, -float(other))

    def __rsub__(self, other):
        return shift(neg(self), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return scale(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward_rule: Callable) -> Tensor:
    track = _GRAD_ENABLED and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        out.node = Node(inputs, backward_rule)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and broadcasting arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    out = x * y

    def bwd(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _make(out, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    out = x / y

    def bwd(g):
        ga = _unbroadcast(g / y, x.shape)
        gb = _unbroadcast(-g * x / (y * y), y.shape)
        return ga, gb

    return _make(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, c: float) -> Tensor:
    return _make(a.data * c, (a,), lambda g: (g * c,))


def shift(a: Tensor, c: float) -> Tensor:
    return _make(a.data + c, (a,), lambda g: (g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * 0.5 / out,))


def clamp_min(a: Tensor, c: float) -> Tensor:
    out = np.maximum(a.data, c)
    mask = a.data > c
    return _make(out, (a,), lambda g: (g * mask,))


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is 0."""
    mask = a.data > 0
    return _make(a.data * mask, (a,), lambda g: (g * mask,))


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact erf formulation of the normal CDF.

    Phi is scipy's ndtr, which works through erfc away from zero, so the deep
    negative tail keeps its magnitude instead of cancelling to zero. Large
    inputs are split by blocks of rows (the first axis).
    """
    x = a.data
    x1 = x.reshape(1) if x.ndim == 0 else x
    # Phi goes straight into the output. With a gradient, the derivative
    # Phi + x * pdf(x) is built from it in one buffer, in the same operation
    # order as that expression; that buffer is all the rule keeps. Then x
    # scales the output in place: Phi*x is x*Phi to the bit.
    d = np.empty(x1.shape) if _GRAD_ENABLED and a.requires_grad else None
    out = np.empty(x1.shape)

    def rows(block):
        xb, ob = x1[block], out[block]
        ndtr(xb, out=ob)
        if d is not None:
            db = d[block]
            np.multiply(xb, -0.5, out=db)
            db *= xb
            np.exp(db, out=db)
            db *= _INV_SQRT_2PI
            db *= xb
            db += ob
        ob *= xb

    _parallel(rows, x1.shape[0], x1.size, _TASK_FLOOR)
    d = None if d is None else d.reshape(x.shape)
    return _make(out.reshape(x.shape), (a,), lambda g: (g * d,))


# ---------------------------------------------------------------------------
# reductions and shape manipulation
# ---------------------------------------------------------------------------

def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(out, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)
    a_shape = a.shape
    return _make(out, (a,), lambda g: (g.reshape(a_shape),))


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = np.transpose(a.data, axes)
    inv = np.argsort(axes)
    return _make(out, (a,), lambda g: (np.transpose(g, inv),))


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = np.broadcast_to(a.data, shape).copy()
    a_shape = a.shape
    return _make(out, (a,), lambda g: (_unbroadcast(g, a_shape),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries from `start` along `axis`."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.data[idx].copy()
    a_shape = a.shape

    def bwd(g):
        full = np.zeros(a_shape)
        full[idx] = g
        return (full,)

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra and neural-network operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product [.., m, k] x [.., k, n]; batch extents broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    x, y = a.data, b.data
    out = np.matmul(x, y)

    def bwd(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(y, -1, -2)), x.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), y.shape)
        return ga, gb

    return _make(out, (a, b), bwd)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Max-subtracted softmax; outputs along `axis` sum to 1."""
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (a,), bwd)


def log_softmax(a: Tensor, axis: int) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def bwd(g):
        p = np.exp(out)
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), bwd)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply gain and bias.

    `eps` is added inside the square root; gain and bias are 1-D of the
    normalized extent.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layernorm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    w = gain.data
    out = xhat * w + bias.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        g_gain = (g * xhat).sum(axis=lead)
        g_bias = g.sum(axis=lead)
        gx_hat = g * w
        gx = inv * (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, g_gain, g_bias

    return _make(out, (x, gain, bias), bwd)


def conv1d(x: Tensor, kernel: Tensor, stride: int = 1) -> Tensor:
    """1-D cross-correlation of [n, c_in, t] with [c_out, c_in, k].

    Output length is floor((t - k) / stride) + 1. No kernel flip: learned
    kernels make the correlation convention canonical.

    The stride is folded into the channel axis: the input, cut to nb blocks
    of `stride` samples, becomes (n, c_in*stride, nb), and the kernel, padded
    with zero taps to J*stride where J = ceil(k/stride), becomes J matrices
    (c_out, c_in*stride). Output i reads blocks i..i+J-1, so the forward
    pass, the kernel gradient and the input gradient are J matrix products
    each, one per tap, over shifted views of the folded input. Large calls
    split the forward pass and the input gradient by blocks of samples, and
    the kernel gradient by blocks of taps.
    """
    n, c_in, t = x.shape
    c_out, c_in_k, k = kernel.shape
    if c_in_k != c_in:
        raise DimensionError(f"conv1d channel mismatch: input {x.shape}, kernel {kernel.shape}")
    if stride < 1:
        raise DimensionError(f"conv1d needs stride >= 1, got {stride}")
    if k > t:
        raise DimensionError(f"conv1d kernel ({k}) longer than input ({t})")
    t_out = (t - k) // stride + 1
    taps = -(-k // stride)
    nb = t_out + taps - 1
    width = nb * stride  # samples the output reads, zero taps included
    cs = c_in * stride
    if width <= t:
        xp = x.data[:, :, :width]
    else:
        xp = np.zeros((n, c_in, width))
        xp[:, :, :t] = x.data
    # (n, c, nb*s) -> (n, c*s, nb); a view when stride is 1
    xf = xp.reshape(n, c_in, nb, stride).transpose(0, 1, 3, 2).reshape(n, cs, nb)
    kp = np.zeros((c_out, c_in, taps * stride))
    kp[:, :, :k] = kernel.data
    kf = kp.reshape(c_out, c_in, taps, stride).transpose(2, 0, 1, 3).reshape(taps, c_out, cs)

    out = np.empty((n, c_out, t_out))

    def forward_samples(block):
        ob = out[block]
        np.matmul(kf[0], xf[block, :, :t_out], out=ob)
        for j in range(1, taps):
            ob += np.matmul(kf[j], xf[block, :, j : j + t_out])

    _parallel(forward_samples, n, out.size, _TASK_FLOOR)
    x_grad = x.requires_grad

    def bwd(g):
        gkf = np.empty_like(kf)

        def kernel_taps(block):
            per_sample = np.empty((n, c_out, cs))
            for j in range(taps)[block]:
                np.matmul(g, xf[:, :, j : j + t_out].swapaxes(1, 2), out=per_sample)
                per_sample.sum(axis=0, out=gkf[j])

        _parallel(kernel_taps, taps, taps * g.size, _CONV_BWD_TASK_FLOOR)
        g_kernel = gkf.reshape(taps, c_out, c_in, stride).transpose(1, 2, 0, 3)
        g_kernel = g_kernel.reshape(c_out, c_in, taps * stride)[:, :, :k]
        if not x_grad:
            return None, g_kernel
        gxf = np.zeros((n, cs, nb))

        def input_samples(block):
            gb = g[block]
            for j in range(taps):
                gxf[block, :, j : j + t_out] += np.matmul(kf[j].T, gb)

        _parallel(input_samples, n, taps * g.size, _CONV_BWD_TASK_FLOOR)
        gxp = gxf.reshape(n, c_in, stride, nb).transpose(0, 1, 3, 2).reshape(n, c_in, width)
        if width == t:
            return gxp, g_kernel
        keep = min(t, width)
        gx = np.zeros((n, c_in, t))
        gx[:, :, :keep] = gxp[:, :, :keep]
        return gx, g_kernel

    return _make(out, (x, kernel), bwd)


def adaptive_avg_pool1d(x: Tensor, out_len: int) -> Tensor:
    """Average [n, c, t] into out_len segments with floor-split boundaries."""
    n, c, t = x.shape
    if out_len > t:
        raise DimensionError(f"adaptive_avg_pool1d: out_len {out_len} exceeds input length {t}")
    bounds = np.array([(i * t) // out_len for i in range(out_len + 1)])
    lengths = np.diff(bounds).astype(np.float64)
    sums = np.add.reduceat(x.data, bounds[:-1], axis=2)
    out = sums / lengths

    def bwd(g):
        return (np.repeat(g / lengths, np.diff(bounds), axis=2),)

    return _make(out, (x,), bwd)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into t.grad for every requires_grad leaf.

    Leaves are tensors not produced by a recorded op (``node is None``):
    parameters, inputs, and the loss itself when it is one. Intermediate
    gradients are dropped as soon as their node's rule has run, so their
    ``.grad`` stays None. Repeated calls without zeroing add into the leaves.
    Non-scalar losses are rejected.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    # Gradients are keyed by edge: the producing node, or the leaf tensor itself
    # (`type(e) is Tensor` holds while a tracer rebinds `Node`). A node enters the
    # heap on -seq when it first gets a gradient; every consumer has a higher seq
    # than its producers, so it is popped with its gradient complete, summed in
    # decreasing tape order.
    root = loss if loss.node is None else loss.node
    acc: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    leaves = [root] if type(root) is Tensor else []
    heap = [] if leaves else [(-root.seq, root)]
    while heap:
        _, node = heapq.heappop(heap)
        grads = node.backward_rule(acc.pop(id(node)))
        for inp, g in zip(node.edges, grads):
            if g is None or inp is None:
                continue
            key = id(inp)
            if key in acc:
                acc[key] = acc[key] + g
                continue
            acc[key] = g
            if type(inp) is Tensor:
                leaves.append(inp)
            else:
                heapq.heappush(heap, (-inp.seq, inp))

    for t in leaves:
        g = acc[id(t)]
        t.grad = np.array(g, dtype=np.float64) if t.grad is None else t.grad + g
