"""Deterministic numeric substrate: second-order jets, dense small-matrix
linear algebra, and seeded sampling with rejection of singular loci.

Matrices are plain ``numpy`` arrays (row-major).  Everything handled here is
at most (d+4) x (d+4) with d <= 8, so no dedicated matrix wrapper is needed.

Two kinds of batching exist.  A ``Jet2`` may carry a trailing sample axis:
seeding a batch of N points gives jets whose value, gradient and Hessian
hold all N points at once, so one pass of a closed-form expression yields
the second-order Taylor data at every point (Taylor-mode propagation over a
batch).  ``JetMatrix`` batches the entries of a jet-valued matrix so that
matrix products need a handful of einsums instead of entrywise jet products.
"""

from __future__ import annotations

import numbers
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ContractViolationError",
    "JetSingularityError",
    "Jet2",
    "JetMatrix",
    "SeededSampler",
    "as_jet",
    "cos",
    "exp",
    "jet_det",
    "jet_value",
    "log",
    "max_entry",
    "rank_nullspace",
    "seed_point",
    "sin",
    "sqrt",
]


class JetSingularityError(ZeroDivisionError):
    """Division by a jet whose value vanishes."""


class ContractViolationError(ValueError):
    """An argument violates a documented precondition."""


class Jet2:
    """Second-order Taylor data (value, gradient, Hessian) in n chart variables.

    Arithmetic follows the exact product and chain rules, so evaluating a
    closed-form expression on seeded jets returns its derivatives to second
    order with no truncation error beyond floating point.  Values may be real
    or complex; the Hessian is symmetrized on construction (plain transpose,
    not conjugate) and stays symmetric under every operation.

    Shapes: at one point ``value`` is a scalar, ``grad`` is (n,) and ``hess``
    is (n, n).  A batch of N points adds a trailing sample axis: ``value`` is
    (N,), ``grad`` is (n, N) and ``hess`` is (n, n, N).  Scalars broadcast
    against either form; a batched jet and an unbatched one do not mix.  On
    a batch, an (N,) array acts as a per-sample scalar: ``a * u`` scales
    sample k of ``u`` by ``a[k]``, with the rounding of a scalar product.
    """

    __slots__ = ("value", "grad", "hess")

    # keep ndarray * Jet2 from being swallowed by numpy's broadcasting, so
    # a per-sample array reaches the reflected operator
    __array_ufunc__ = None

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = np.asarray(grad)
        h = np.asarray(hess)
        self.hess = 0.5 * (h + h.swapaxes(0, 1))

    # -- constructors --------------------------------------------------

    @classmethod
    def variable(cls, value, index: int, dim: int) -> "Jet2":
        """Seed jet for the ``index``-th of ``dim`` chart coordinates;
        ``value`` may be an (N,) array of sample values."""
        batch = np.shape(value)
        g = np.zeros((dim,) + batch)
        g[index] = 1.0
        return cls(value, g, np.zeros((dim, dim) + batch))

    @classmethod
    def constant(cls, value, dim: int) -> "Jet2":
        batch = np.shape(value)
        return cls(value, np.zeros((dim,) + batch), np.zeros((dim, dim) + batch))

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    def __repr__(self) -> str:
        return f"Jet2({self.value!r}, grad={self.grad!r})"

    # -- helpers -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet2):
            if other.grad.shape != self.grad.shape:
                raise ContractViolationError(
                    f"jet shapes differ: {self.grad.shape} vs {other.grad.shape}"
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
            return Jet2(self.value + other, self.grad, self.hess)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet2(self.value - other, self.grad, self.hess)
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet2(self.value * other, self.grad * other, self.hess * other)
        og = _outer(self.grad, o.grad)
        return Jet2(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + og + og.swapaxes(0, 1),
        )

    __rmul__ = __mul__

    def _reciprocal(self) -> "Jet2":
        v = self.value
        if (np.any(v == 0) if isinstance(v, np.ndarray) else v == 0):
            raise JetSingularityError("jet singularity: reciprocal of zero value")
        og = _outer(self.grad, self.grad)
        v2 = _pow(v, 2)
        return Jet2(1.0 / v, -self.grad / v2, -self.hess / v2 + 2.0 * og / _pow(v, 3))

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
                v = self.value
                one = np.ones_like(v) if isinstance(v, np.ndarray) else 1.0
                return Jet2.constant(one, self.dim)
            if k == 1:
                return Jet2(self.value, self.grad, self.hess)
            if k < 0:
                return self._reciprocal() ** (-k)
            v = self.value
            return _chain(
                self, _pow(v, k), k * _pow(v, k - 1), k * (k - 1) * _pow(v, k - 2)
            )
        if isinstance(k, numbers.Real):
            v = self.value
            if not _positive_real(v):
                raise ContractViolationError(
                    "non-integer powers need a positive real jet value"
                )
            return _chain(
                self, _pow(v, k), k * _pow(v, k - 1.0), k * (k - 1.0) * _pow(v, k - 2.0)
            )
        return NotImplemented


def _pow(v, k):
    """v ** k with the rounding of a scalar power, sample by sample on an
    array: numpy's vectorized power rounds differently, and a batch must
    reproduce its points bit for bit."""
    if isinstance(v, np.ndarray):
        return np.array([x**k for x in v.tolist()], dtype=v.dtype)
    return v**k


def _outer(g, h):
    """g_a h_b per sample: (n, n) at one point, (n, n, N) on a batch."""
    return g[:, None] * h[None, :]


def _positive_real(v) -> bool:
    if isinstance(v, np.ndarray):
        return np.isrealobj(v) and bool(np.all(v > 0))
    return isinstance(v, numbers.Real) and v > 0


def _chain(u: Jet2, f0, f1, f2) -> Jet2:
    """Second-order chain rule for a scalar function applied to a jet."""
    og = _outer(u.grad, u.grad)
    return Jet2(f0, f1 * u.grad, f1 * u.hess + f2 * og)


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
        return _chain(x, np.log(v), 1.0 / v, -1.0 / v**2)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Jet2):
        v = x.value
        if not _positive_real(v):
            raise ContractViolationError("sqrt needs a positive real jet value")
        s = np.sqrt(v)
        return _chain(x, s, 0.5 / s, -0.25 / (s * v))
    return np.sqrt(x)


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


def seed_point(coords: Sequence[float]) -> list[Jet2]:
    """Seed one jet per coordinate of a chart point.

    ``coords`` is one point of shape (n,) or a batch of shape (N, n); a batch
    gives jets with a trailing sample axis (see ``Jet2``).
    """
    pts = np.asarray(coords, dtype=float)
    n = pts.shape[-1]
    values = pts.tolist() if pts.ndim == 1 else np.ascontiguousarray(pts.T)
    return [Jet2.variable(c, i, n) for i, c in enumerate(values)]


def as_jet(x, dim: int) -> Jet2:
    """Coerce a scalar to a constant jet; pass jets through unchanged."""
    if isinstance(x, Jet2):
        if x.dim != dim:
            raise ContractViolationError(f"jet dimension {x.dim}, expected {dim}")
        return x
    return Jet2.constant(x, dim)


def jet_value(x):
    return x.value if isinstance(x, Jet2) else x


def jet_det(rows) -> "Jet2 | float":
    """Determinant of a small matrix of jets/scalars by cofactor expansion."""
    m = len(rows)
    if m == 1:
        return rows[0][0]
    if m == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for j in range(m):
        minor = [[rows[i][k] for k in range(m) if k != j] for i in range(1, m)]
        term = rows[0][j] * jet_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


class JetMatrix:
    """Matrix with jet entries, stored batched: values (r,c), grad (r,c,n),
    hess (r,c,n,n).  Matrix products use the exact jet product rule via a
    handful of einsums instead of r*c*k individual jet multiplications;
    this is what makes jet-valued variational flows affordable.
    """

    __slots__ = ("values", "grad", "hess")

    # keep ndarray @ JetMatrix from being swallowed by numpy's matmul
    __array_ufunc__ = None

    def __init__(self, values, grad, hess):
        self.values = np.asarray(values)
        self.grad = np.asarray(grad)
        h = np.asarray(hess)
        self.hess = 0.5 * (h + h.transpose(0, 1, 3, 2))

    @classmethod
    def constant(cls, m, dim: int) -> "JetMatrix":
        m = np.asarray(m, dtype=float)
        r, c = m.shape
        return cls(m, np.zeros((r, c, dim)), np.zeros((r, c, dim, dim)))

    @classmethod
    def from_entries(cls, rows, dim: int) -> "JetMatrix":
        r, c = len(rows), len(rows[0])
        values = np.zeros((r, c))
        grad = np.zeros((r, c, dim))
        hess = np.zeros((r, c, dim, dim))
        for i in range(r):
            for j in range(c):
                e = rows[i][j]
                if isinstance(e, Jet2):
                    values[i, j] = e.value
                    grad[i, j] = e.grad
                    hess[i, j] = e.hess
                else:
                    values[i, j] = e
        return cls(values, grad, hess)

    @property
    def dim(self) -> int:
        return self.grad.shape[2]

    def entry(self, i: int, j: int) -> Jet2:
        return Jet2(self.values[i, j], self.grad[i, j], self.hess[i, j])

    def to_entries(self) -> list[list[Jet2]]:
        r, c = self.values.shape
        return [[self.entry(i, j) for j in range(c)] for i in range(r)]

    def __add__(self, other: "JetMatrix") -> "JetMatrix":
        return JetMatrix(
            self.values + other.values, self.grad + other.grad, self.hess + other.hess
        )

    def scale(self, a: float) -> "JetMatrix":
        return JetMatrix(a * self.values, a * self.grad, a * self.hess)

    def __matmul__(self, other):
        if isinstance(other, JetMatrix):
            v = self.values @ other.values
            g = np.einsum("ikn,kj->ijn", self.grad, other.values) + np.einsum(
                "ik,kjn->ijn", self.values, other.grad
            )
            cross = np.einsum("ika,kjb->ijab", self.grad, other.grad)
            h = (
                np.einsum("ikab,kj->ijab", self.hess, other.values)
                + np.einsum("ik,kjab->ijab", self.values, other.hess)
                + cross
                + cross.transpose(0, 1, 3, 2)
            )
            return JetMatrix(v, g, h)
        other = np.asarray(other)
        return JetMatrix(
            self.values @ other,
            np.einsum("ikn,kj->ijn", self.grad, other),
            np.einsum("ikab,kj->ijab", self.hess, other),
        )

    def __rmatmul__(self, other):
        other = np.asarray(other)
        return JetMatrix(
            other @ self.values,
            np.einsum("ik,kjn->ijn", other, self.grad),
            np.einsum("ik,kjab->ijab", other, self.hess),
        )


def max_entry(*values) -> float:
    """The largest entry of ``values`` (numbers or arrays) as a float, NaN if
    any entry is NaN: Python's ``max(0.0, nan)`` is 0.0, and a residual
    accumulated that way would read a NaN as a pass."""
    return float(np.max([np.max(v) for v in values]))


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


class SeededSampler:
    """Uniform sampler over per-coordinate boxes, reproducible by seed.

    ``exclude`` is a predicate marking points to reject (singular loci such
    as small chart denominators); rejected draws are counted so reports can
    surface them.  Equal seeds give bitwise-equal sample streams.
    """

    def __init__(
        self,
        seed: int,
        boxes: Sequence[tuple[float, float]],
        exclude: Callable[[np.ndarray], bool] | None = None,
        max_tries: int = 1000,
    ):
        self.seed = int(seed)
        self.boxes = np.atleast_2d(np.asarray(boxes, dtype=float))
        if self.boxes.shape[1] != 2 or np.any(self.boxes[:, 1] <= self.boxes[:, 0]):
            raise ContractViolationError("boxes must be (lo, hi) pairs with lo < hi")
        self.exclude = exclude
        self.max_tries = max_tries
        self.rejections = 0
        self._rng = np.random.default_rng(self.seed)

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
        return np.array([self.sample() for _ in range(count)])

    def uniform(self, lo: float, hi: float) -> float:
        """One scalar draw from the same stream (for auxiliary parameters)."""
        return float(lo + (hi - lo) * self._rng.random())
