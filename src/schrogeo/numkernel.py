"""Deterministic numeric substrate: first- and second-order jets, dense
small-matrix linear algebra, and seeded sampling with rejection of singular
loci.

Matrices are plain ``numpy`` arrays (row-major).  Everything handled here is
at most (d+4) x (d+4) with d <= 8, so no dedicated matrix wrapper is needed.

A ``Jet2`` carries a trailing sample axis: seeding a batch of N points
gives jets whose value, gradient and Hessian hold all N points at once, so
one pass of a closed-form expression yields the second-order Taylor data at
every point (Taylor-mode propagation over a batch).  Points come only as a
batch (N, n); one point is the batch of one ``p[None]``.

A jet has an order.  A second-order jet carries the Hessian; a first-order
jet (``hess`` is None, seeded by ``seed_point(coords, order=1)``) carries the
value and the gradient only, and every operation skips the Hessian work.  No
value or gradient ever reads a Hessian, so the two orders give bitwise equal
values and gradients; a consumer that reads first derivatives only seeds at
order 1 (Taylor-mode propagation truncated at the order read: Griewank &
Walther, *Evaluating Derivatives*, 2008, ch. 13).  Jets of different orders
do not mix.
"""

from __future__ import annotations

import functools
import numbers
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ContractViolationError",
    "JetSingularityError",
    "Jet2",
    "SeededSampler",
    "cos",
    "exp",
    "jet_value",
    "log",
    "max_entry",
    "point_batch",
    "rank_nullspace",
    "sample_max",
    "seed_point",
    "sin",
    "sparse_dot",
]


class JetSingularityError(ZeroDivisionError):
    """Division by a jet whose value vanishes."""


class ContractViolationError(ValueError):
    """An argument violates a documented precondition."""


class Jet2:
    """Taylor data (value, gradient, Hessian) in n chart variables.

    Arithmetic follows the exact product and chain rules, so evaluating a
    closed-form expression on seeded jets returns its derivatives to second
    order with no truncation error beyond floating point.  Values may be real
    or complex.  ``Jet2(value, grad, hess)`` symmetrizes the Hessian (plain
    transpose, not conjugate).  The operations build their results through
    the private ``_symmetric=True`` path, which keeps the Hessian as given:
    sums, scalings, the reciprocal and the chain rule map exactly symmetric
    Hessians to exactly symmetric ones (g_a g_b = g_b g_a bitwise).  The jet
    product alone symmetrizes, since its sum (u h' + u' h + g g'^T) + g' g^T
    rounds differently above and below the diagonal.

    ``hess`` is None on a first-order jet (order 1): it holds the value
    and the gradient only, each bitwise what the second-order jet holds.  An
    operation on two jets of different orders raises ContractViolationError.

    Shapes: over a batch of N points ``value`` is (N,), ``grad`` is (n, N)
    and ``hess`` is (n, n, N).  Scalars broadcast against a jet, and an (N,)
    array acts as a per-sample scalar: ``a * u`` scales sample k of ``u`` by
    ``a[k]``, with the rounding of a scalar product.
    """

    __slots__ = ("value", "grad", "hess")

    # keep ndarray * Jet2 from being swallowed by numpy's broadcasting, so
    # a per-sample array reaches the reflected operator
    __array_ufunc__ = None

    def __init__(self, value, grad, hess=None, _symmetric=False):
        self.value = value
        self.grad = np.asarray(grad)
        if hess is not None and not _symmetric:
            h = np.asarray(hess)
            hess = 0.5 * (h + h.swapaxes(0, 1))
        self.hess = hess

    # -- constructors --------------------------------------------------

    @classmethod
    def variable(cls, value, index: int, dim: int, order: int = 2) -> "Jet2":
        """Seed jet for the ``index``-th of ``dim`` chart coordinates;
        ``value`` is the (N,) array of sample values."""
        batch = np.shape(value)
        g = np.zeros((dim,) + batch)
        g[index] = 1.0
        return cls(value, g, _zero_hessian(dim, batch, order), _symmetric=True)

    @classmethod
    def constant(cls, value, dim: int, order: int = 2) -> "Jet2":
        batch = np.shape(value)
        hess = _zero_hessian(dim, batch, order)
        return cls(value, np.zeros((dim,) + batch), hess, _symmetric=True)

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    # -- helpers -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet2):
            if other.grad.shape != self.grad.shape:
                raise ContractViolationError(
                    f"jet shapes differ: {self.grad.shape} vs {other.grad.shape}"
                )
            if (other.hess is None) != (self.hess is None):
                raise ContractViolationError(
                    "jet orders differ: one jet carries a Hessian, the other not"
                )
            return other
        if isinstance(other, numbers.Number):
            return None  # handled on the scalar fast path
        if isinstance(other, np.ndarray):
            if other.ndim == 0 or other.shape == self.grad.shape[1:]:
                return None  # a per-sample scalar takes the same path
            raise ContractViolationError(
                f"array of shape {other.shape} is not a per-sample scalar "
                f"of a jet batch {self.grad.shape[1:]}"
            )
        return NotImplemented

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet2(self.value + other, self.grad, self.hess, _symmetric=True)
        hess = None if self.hess is None else self.hess + o.hess
        return Jet2(self.value + o.value, self.grad + o.grad, hess, _symmetric=True)

    __radd__ = __add__

    def __neg__(self):
        hess = None if self.hess is None else -self.hess
        return Jet2(-self.value, -self.grad, hess, _symmetric=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet2(self.value - other, self.grad, self.hess, _symmetric=True)
        hess = None if self.hess is None else self.hess - o.hess
        return Jet2(self.value - o.value, self.grad - o.grad, hess, _symmetric=True)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            hess = None if self.hess is None else self.hess * other
            return Jet2(self.value * other, self.grad * other, hess, _symmetric=True)
        value = self.value * o.value
        grad = self.value * o.grad + o.value * self.grad
        if self.hess is None:
            return Jet2(value, grad)
        og = _outer(self.grad, o.grad)
        return Jet2(
            value,
            grad,
            self.value * o.hess + o.value * self.hess + og + og.swapaxes(0, 1),
        )

    __rmul__ = __mul__

    def _reciprocal(self) -> "Jet2":
        v = self.value
        if np.any(v == 0):
            raise JetSingularityError("jet singularity: reciprocal of zero value")
        v2 = _pow(v, 2)
        if self.hess is None:
            return Jet2(1.0 / v, -self.grad / v2)
        og = _outer(self.grad, self.grad)
        hess = -self.hess / v2 + 2.0 * og / _pow(v, 3)
        return Jet2(1.0 / v, -self.grad / v2, hess, _symmetric=True)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            if np.any(other == 0):
                raise JetSingularityError("jet singularity: division by zero scalar")
            return self * (1.0 / other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        if self._coerce(other) is None:
            return self._reciprocal() * other
        return NotImplemented

    def __pow__(self, k):
        if isinstance(k, numbers.Integral):
            k = int(k)
            if k == 0:
                order = 1 if self.hess is None else 2
                return Jet2.constant(np.ones_like(self.value), self.dim, order)
            if k == 1:
                return Jet2(self.value, self.grad, self.hess, _symmetric=True)
            if k < 0:
                return self._reciprocal() ** (-k)
            v = self.value
            # the second derivative is a per-sample power loop: skip it at order 1
            f2 = None if self.hess is None else k * (k - 1) * _pow(v, k - 2)
            return _chain(self, _pow(v, k), k * _pow(v, k - 1), f2)
        if isinstance(k, numbers.Real):
            v = self.value
            if not _positive_real(v):
                raise ContractViolationError(
                    "non-integer powers need a positive real jet value"
                )
            f2 = None if self.hess is None else k * (k - 1.0) * _pow(v, k - 2.0)
            return _chain(self, _pow(v, k), k * _pow(v, k - 1.0), f2)
        return NotImplemented


def _pow(v, k):
    """v ** k with the rounding of a scalar power, sample by sample over the
    (N,) array ``v``: numpy's vectorized power rounds differently, and each
    sample must be bitwise its own scalar power."""
    if getattr(v, "ndim", None) != 1:
        raise ContractViolationError(
            "a jet value must be an (N,) array over a batch of N points, "
            f"got shape {np.shape(v)}"
        )
    return np.array([x**k for x in v.tolist()], dtype=v.dtype)


def _outer(g, h):
    """g_a h_b per sample, (n, n, N)."""
    return g[:, None] * h[None, :]


def _zero_hessian(dim: int, batch: tuple, order: int):
    """The Hessian of a seed or a constant: zeros at order 2, None at 1."""
    if order not in (1, 2):
        raise ContractViolationError(f"jet order must be 1 or 2, got {order}")
    return np.zeros((dim, dim) + batch) if order == 2 else None


def _positive_real(v) -> bool:
    """No sample of ``v`` is complex, zero or negative.  A NaN sample
    passes, and the operation carries it through as NaN: it marks a sample
    that left its chart (``ambient.mark_escapes``)."""
    return np.isrealobj(v) and not np.any(v <= 0)


def _chain(u: Jet2, f0, f1, f2) -> Jet2:
    """Chain rule for a scalar function applied to a jet, to the jet's order
    (``f2`` is not read at order 1)."""
    if u.hess is None:
        return Jet2(f0, f1 * u.grad)
    og = _outer(u.grad, u.grad)
    return Jet2(f0, f1 * u.grad, f1 * u.hess + f2 * og, _symmetric=True)


def exp(x):
    if isinstance(x, Jet2):
        e = np.exp(x.value)
        return _chain(x, e, e, e)
    return np.exp(x)


def log(x):
    if isinstance(x, Jet2):
        v = x.value
        if not _positive_real(v):
            raise ContractViolationError("log needs a positive real jet value")
        return _chain(x, np.log(v), 1.0 / v, -1.0 / _pow(v, 2))
    return np.log(x)


def sin(x):
    if isinstance(x, Jet2):
        s, c = np.sin(x.value), np.cos(x.value)
        return _chain(x, s, c, -s)
    return np.sin(x)


def cos(x):
    if isinstance(x, Jet2):
        s, c = np.sin(x.value), np.cos(x.value)
        return _chain(x, c, -s, -c)
    return np.cos(x)


def point_batch(coords) -> np.ndarray:
    """``coords`` as a float batch of points, (N, n); anything of another
    shape raises ContractViolationError."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim != 2:
        raise ContractViolationError(
            f"points must be a batch (N, n), got shape {pts.shape}; one point is p[None]"
        )
    return pts


def seed_point(coords: Sequence[Sequence[float]], order: int = 2) -> list[Jet2]:
    """Seed one jet per coordinate of a batch of chart points.

    ``coords`` is a batch of shape (N, n) (``point_batch``); the jets carry
    a trailing sample axis (see ``Jet2``).  ``order`` 1 seeds first-order
    jets, for callers that read no second derivative.
    """
    pts = point_batch(coords)
    n, batch = pts.shape[-1], pts.shape[:-1]
    values = np.ascontiguousarray(pts.T)
    # the n seed gradients are the rows of one identity block, and the n
    # seeds share one zero Hessian; both are read-only, so no jet writes
    # into another's derivatives
    grads = np.zeros((n, n) + batch)
    grads.reshape(n * n, -1)[:: n + 1] = 1.0
    grads.flags.writeable = False
    hess = _zero_hessian(n, batch, order)
    if hess is not None:
        hess.flags.writeable = False
    return [Jet2(c, g, hess, _symmetric=True) for c, g in zip(values, grads)]


def jet_value(x):
    return x.value if isinstance(x, Jet2) else x


def sparse_dot(coeffs, terms):
    """Sum of ``coeffs[b] * terms[b]`` over b, added in b order.

    Either side may hold jets, numbers or arrays, and ``coeffs`` may be a
    numpy row.  A term whose coefficient or factor is the constant float 0.0
    is skipped, so a sparse row costs only its nonzero products; jets and
    arrays are never skipped.  The first surviving product is not added to
    zero, so it keeps its own bits and no extra jet is formed.  With no
    surviving term the sum is the constant 0.0.
    """
    if isinstance(coeffs, np.ndarray) and coeffs.ndim == 1:
        # Python floats take the same IEEE products, and reach Jet2's
        # reflected operators without a detour through numpy's dispatch
        coeffs = coeffs.tolist()
    total = None
    for c, x in zip(coeffs, terms):
        if (isinstance(c, float) and c == 0.0) or (isinstance(x, float) and x == 0.0):
            continue
        term = c * x
        total = term if total is None else total + term
    return 0.0 if total is None else total


def max_entry(*values) -> float:
    """The largest entry of ``values`` (numbers or arrays) as a float, NaN if
    any entry is NaN: Python's ``max(0.0, nan)`` is 0.0, and a residual
    accumulated that way would read a NaN as a pass."""
    return float(np.max([np.max(v) for v in values]))


def sample_max(a) -> np.ndarray:
    """The largest |entry| of each sample of ``a``, whose first axis runs
    over the samples, (N,): NaN where one of the sample's entries is NaN."""
    a = np.abs(a)
    return a.reshape(len(a), -1).max(axis=1)


# ---------------------------------------------------------------------------
# dense linear algebra


def rank_nullspace(m, tol: float = 1e-10) -> tuple[int, np.ndarray]:
    """Numerical rank and an orthonormal nullspace basis (rows) by SVD.

    ``tol`` is relative to the largest singular value, so the answer is
    invariant under overall rescaling of ``m``.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return 0, np.eye(m.shape[1])
    rank = int(np.sum(s > tol * smax))
    return rank, vh[rank:]


# ---------------------------------------------------------------------------
# sampling


@functools.lru_cache(maxsize=256)
def _box_array(boxes: tuple) -> np.ndarray:
    """The (n, 2) array of ``boxes``, checked and read-only, built once per
    box tuple."""
    out = np.atleast_2d(np.asarray(boxes, dtype=float))
    if out.shape[1] != 2 or np.any(out[:, 1] <= out[:, 0]):
        raise ContractViolationError("boxes must be (lo, hi) pairs with lo < hi")
    out.flags.writeable = False
    return out


class SeededSampler:
    """Uniform sampler over per-coordinate boxes, reproducible by seed.

    Equal seeds give bitwise-equal sample streams.  ``exclude`` is a
    predicate marking points to reject, and ``rejections`` counts them; no
    report uses either; they stay for ``perfbench/tracer.py``, which wraps
    ``sample`` and reads the counter.
    """

    def __init__(
        self,
        seed: int,
        boxes: Sequence[tuple[float, float]],
        exclude: Callable[[np.ndarray], bool] | None = None,
        max_tries: int = 1000,
    ):
        self.seed = int(seed)
        try:
            self.boxes = _box_array(tuple(map(tuple, boxes)))
        except TypeError as exc:
            raise ContractViolationError("boxes must be (lo, hi) pairs") from exc
        self.exclude = exclude
        self.max_tries = max_tries
        self.rejections = 0
        self._rng = self.generator(self.seed)

    @staticmethod
    def generator(seed: int) -> np.random.Generator:
        """The seeded generator of every draw: the stream of
        ``np.random.default_rng(seed)``, built without its argument
        dispatch, which costs more than the construction itself."""
        return np.random.Generator(np.random.PCG64(seed))

    @property
    def dim(self) -> int:
        return self.boxes.shape[0]

    def sample(self) -> np.ndarray:
        lo, hi = self.boxes[:, 0], self.boxes[:, 1]
        for _ in range(self.max_tries):
            p = lo + (hi - lo) * self._rng.random(self.dim)
            if self.exclude is not None and self.exclude(p):
                self.rejections += 1
                continue
            return p
        raise RuntimeError("sampler exceeded max_tries; excluded region too large")

    def points(self, count: int) -> np.ndarray:
        """``count`` consecutive samples, (count, dim).  With no ``exclude``
        the block is one draw of the generator, bitwise the stream that
        ``count`` calls of ``sample`` read."""
        if self.exclude is not None:
            return np.array([self.sample() for _ in range(count)])
        lo, hi = self.boxes[:, 0], self.boxes[:, 1]
        return lo + (hi - lo) * self._rng.random((count, self.dim))
