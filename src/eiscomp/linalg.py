"""Dense exact linear algebra over F_p.

Row-echelon forms, kernels, solving, commuting generalized eigenspaces,
the stable idempotent of an endomorphism, and linear closure of commuting
matrix algebras.  Pivoting is deterministic (first nonzero entry), so all
outputs are reproducible bit for bit.

A matrix is one 2-D numpy array of residues in [0, p).  `_residues` and
`_matmul` hold the dtype rules, keyed on the modulus m, for these matrices
and for the q-expansion bases over Z/p^M alike: storage is int64 while
(m-1)^2 < 2^63, which keeps every entrywise a - c*b exact (the largest such
prime is 3037000493), and Python integers above; a product runs on int64
while each entry's sum of ncols products fits, ncols * (m-1)^2 < 2^63, and
on Python integers, exact at any size, above that bound.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .padic import require_admissible_prime


def _residues(modulus: int, entries) -> np.ndarray:
    """entries, an integer array or nested sequence, reduced into [0, modulus).

    The array is int64 while (modulus-1)^2 < 2^63 and holds Python integers above.
    """
    a = entries if isinstance(entries, np.ndarray) else np.array(entries, dtype=object)
    if (modulus - 1) ** 2 < 2**63:
        return (a % modulus).astype(np.int64, copy=False)
    return a.astype(object) % modulus


def _matmul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """a @ b of residue arrays, reduced into [0, modulus); int64 only while exact."""
    if a.shape[-1] * (modulus - 1) ** 2 < 2**63:
        return _residues(modulus, a @ b)
    return _residues(modulus, a.astype(object) @ b.astype(object))


class MatFp:
    """A matrix over F_p, held as one 2-D array `a` of residues in [0, p)."""

    __slots__ = ("p", "a")

    def __init__(
        self, p: int, rows: Sequence[Sequence[int]] | np.ndarray, ncols: int | None = None
    ):
        require_admissible_prime(p)
        a = _residues(p, rows)
        if a.ndim == 1 and a.size == 0:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            a = a.reshape(0, ncols)
        if a.ndim != 2:
            raise ValueError("entries do not form a matrix")
        if ncols is not None and ncols != a.shape[1]:
            raise ValueError("ncols disagrees with row length")
        self.p = p
        self.a = a

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    @classmethod
    def identity(cls, p: int, n: int) -> "MatFp":
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def vstack(cls, mats: Sequence["MatFp"]) -> "MatFp":
        if not mats:
            raise ValueError("nothing to stack")
        p, ncols = mats[0].p, mats[0].ncols
        if any(m.p != p or m.ncols != ncols for m in mats):
            raise ValueError("incompatible stack")
        return cls(p, np.vstack([m.a for m in mats]))

    def transpose(self) -> "MatFp":
        return MatFp(self.p, self.a.T)

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatFp):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.a, other.a)

    def __sub__(self, other: "MatFp") -> "MatFp":
        self._compat(other, same_shape=True)
        return MatFp(self.p, self.a - other.a)

    def scaled(self, c: int) -> "MatFp":
        return MatFp(self.p, self.a * (c % self.p))

    def __mul__(self, other: "MatFp") -> "MatFp":
        self._compat(other)
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions disagree")
        return MatFp(self.p, _matmul(self.a, other.a, self.p))

    def __pow__(self, e: int) -> "MatFp":
        if self.nrows != self.ncols:
            raise ValueError("powers need a square matrix")
        if e < 0:
            raise ValueError("negative powers unsupported")
        acc = MatFp.identity(self.p, self.nrows)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def commutes_with(self, other: "MatFp") -> bool:
        return self * other == other * self

    def _compat(self, other: "MatFp", same_shape: bool = False) -> None:
        if self.p != other.p:
            raise ValueError("mixed characteristics")
        if same_shape and self.a.shape != other.a.shape:
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"MatFp(p={self.p}, {self.nrows}x{self.ncols})"


def rref(a: MatFp) -> tuple[MatFp, list[int], int]:
    """Reduced row-echelon form, pivot columns, and rank."""
    p = a.p
    m = a.a.copy()
    pivots: list[int] = []
    for c in range(a.ncols):
        r = len(pivots)
        if r == a.nrows:
            break
        below = np.flatnonzero(m[r:, c])
        if below.size == 0:
            continue
        i = r + int(below[0])
        m[[r, i]] = m[[i, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        f = m[:, c].copy()
        f[r] = 0
        # columns left of c are zero in the pivot row
        m[:, c:] = (m[:, c:] - f[:, None] * m[r, c:]) % p
        pivots.append(c)
    return MatFp(p, m), pivots, len(pivots)


def rank(a: MatFp) -> int:
    return rref(a)[2]


def kernel(a: MatFp) -> MatFp:
    """Basis of the right null space; rows of the result are basis vectors."""
    red, pivots, rk = rref(a)
    free = [c for c in range(a.ncols) if c not in set(pivots)]
    basis = np.zeros((len(free), a.ncols), dtype=red.a.dtype)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -red.a[:rk, free].T
    out = MatFp(a.p, basis)
    if not (a * out.transpose()).is_zero():
        raise AssertionError("kernel vector not annihilated")
    return out


def solve(a: MatFp, b: MatFp) -> MatFp | None:
    """One solution x of a x = b, or None if some column of b is out of reach."""
    a._compat(b)
    if b.nrows != a.nrows:
        raise ValueError("right-hand side has the wrong number of rows")
    n = a.ncols
    red, pivots, rk = rref(MatFp(a.p, np.hstack([a.a, b.a])))
    if pivots and pivots[-1] >= n:
        return None
    x = np.zeros((n, b.ncols), dtype=red.a.dtype)
    x[pivots] = red.a[:rk, n:]
    out = MatFp(a.p, x)
    if a * out != b:
        raise AssertionError("solution does not satisfy the system")
    return out


def inverse(a: MatFp) -> MatFp:
    if a.nrows != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    # a x = 1 is solvable exactly when a is invertible
    x = solve(a, MatFp.identity(a.p, a.nrows))
    if x is None:
        raise ValueError("matrix is singular")
    return x


def generalized_eigenspace(ops: Sequence[MatFp], dim: int, *, p: int | None = None) -> MatFp:
    """Basis of the common generalized kernel of commuting operators.

    Returns rows spanning the intersection of ker(op^dim) over all ops;
    the exponent equals the ambient dimension, which always suffices.
    Non-commuting inputs are rejected.  An empty operator list cuts
    nothing out, so the whole space comes back (p must then be given).
    """
    mats = list(ops)
    if not mats:
        if p is None:
            raise ValueError("empty operator list needs an explicit p")
        return MatFp.identity(p, dim)
    for m in mats:
        if m.nrows != dim or m.ncols != dim:
            raise ValueError("operator does not act on the given space")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not mats[i].commutes_with(mats[j]):
                raise ValueError("generalized eigenspace needs commuting operators")
    powers = [m**dim for m in mats]
    return kernel(MatFp.vstack(powers))


def stable_idempotent(u: MatFp) -> MatFp:
    """Projector onto im(u^n) along ker(u^n), n = dim.

    This is the limit idempotent of the powers u^(n!): it commutes with u,
    is the identity on the part where u acts invertibly, and kills the
    nilpotent part (Fitting decomposition).
    """
    if u.nrows != u.ncols:
        raise ValueError("idempotent of a non-square matrix")
    v = u**u.nrows
    _, pivots, rk = rref(v)
    im = MatFp(u.p, v.transpose().a[pivots])  # rows: a basis of im(v)
    cols = MatFp.vstack([im, kernel(v)]).transpose()  # column basis of F^n = im + ker
    # cols * diag(1 on im, 0 on ker) * cols^-1
    e = im.transpose() * MatFp(u.p, inverse(cols).a[:rk])
    if e * e != e or e * u != u * e:
        raise AssertionError("stable idempotent is not a commuting projector")
    return e


class EchelonSpace:
    """An incrementally built row space over F_p.

    `rows`, one array, holds the basis with unit leading coefficients at
    `pivots`; inserted vectors are forward-reduced against the existing
    rows (no back-reduction, so the insertion order is visible in the
    stored basis, deterministically).
    """

    def __init__(self, p: int, width: int):
        require_admissible_prime(p)
        self.p = p
        self.width = width
        self.rows = _residues(p, np.zeros((0, width), dtype=np.int64))
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, vecs) -> np.ndarray:
        """Residue of vecs after subtracting its projection on the span.

        vecs is one vector or a 2-D array of them, one per row.
        """
        v = _residues(self.p, vecs)
        if v.shape[-1] != self.width:
            raise ValueError("width mismatch")
        for piv, row in zip(self.pivots, self.rows):
            v = (v - v[..., piv, None] * row) % self.p
        return v

    def insert(self, vec) -> np.ndarray | None:
        """Add vec to the span; returns the normalized new row, or None."""
        v = self.reduce(vec)
        nonzero = np.flatnonzero(v)
        if nonzero.size == 0:
            return None
        piv = int(nonzero[0])
        row = v * pow(int(v[piv]), -1, self.p) % self.p
        self.rows = np.vstack([self.rows, row])
        self.pivots.append(piv)
        return row


def algebra_closure(gens: Sequence[MatFp], *, p: int | None = None, dim: int | None = None) -> list[MatFp]:
    """Linear basis of the unital algebra generated by commuting matrices.

    Breadth-first product-and-reduce until the dimension stabilizes.  The
    returned list starts with the identity; members are reduced
    representatives, so the list is deterministic for a fixed generator
    order.
    """
    mats = list(gens)
    if mats:
        p, dim = mats[0].p, mats[0].nrows
    if p is None or dim is None:
        raise ValueError("empty generator list needs explicit p and dim")
    if dim == 0:
        return []
    ech = EchelonSpace(p, dim * dim)
    basis: list[MatFp] = []

    def push(m: MatFp) -> None:
        row = ech.insert(m.a.ravel())
        if row is not None:
            basis.append(MatFp(p, row.reshape(dim, dim)))

    push(MatFp.identity(p, dim))
    i = 0
    while i < len(basis):
        b = basis[i]
        i += 1
        for g in mats:
            push(b * g)
    return basis
