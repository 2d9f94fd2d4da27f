"""Dense exact linear algebra over F_p.

Row-echelon forms, kernels, solves, restrictions to stable subspaces,
commuting generalized eigenspaces, stable idempotents and the linear
closure of commuting matrix algebras.  Pivoting is deterministic (first
nonzero entry), so all outputs are reproducible bit for bit.

A matrix is one 2-D numpy array of residues in [0, p).  `_residues` and
`_matmul` hold the dtype rules, keyed on the modulus m, for these matrices
and for the q-expansion bases over Z/p^M alike: storage is int64 while
(m-1)^2 < 2^63, which keeps every entrywise a - c*b exact (the largest such
prime is 3037000493), and Python integers above.  A product with inner
dimension ncols takes the first of three tiers whose bound holds:

- float64 (BLAS) while ncols * (m-1)^2 < 2^53: every partial sum is an
  integer below 2^53, exact in double precision whatever the summation
  order or fused multiply-adds (the FFLAS bound of Dumas, Giorgi and Pernet,
  ACM TOMS 35(3), 2008);
- int64 while ncols * (m-1)^2 < 2^63;
- Python integers, exact at any size, above.

A residue array is reduced once, where arithmetic can take it out of
[0, m): a product (`_matmul`), a difference, a scaling or an elimination
step.  What the library's own arithmetic made is passed on without another
`%` pass: `MatFp._wrap` takes such an array as it is, while the public
constructor `MatFp(p, rows)` reduces a copy of whatever it is given.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

from .padic import require_admissible_prime


def _storage(modulus: int) -> type:
    """The dtype of residues mod `modulus`: int64 while (modulus-1)^2 < 2^63, else object."""
    return np.int64 if (modulus - 1) ** 2 < 2**63 else object


def _residues(modulus: int, entries) -> np.ndarray:
    """entries, an integer array or nested sequence, reduced into [0, modulus).

    The array is stored as `_storage(modulus)` gives: int64 or Python integers.
    """
    a = entries if isinstance(entries, np.ndarray) else np.array(entries, dtype=object)
    if _storage(modulus) is np.int64:
        return (a % modulus).astype(np.int64, copy=False)
    return a.astype(object) % modulus


def _matmul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """a @ b of residue arrays, reduced into [0, modulus), on the first exact tier.

    Entries may be any integers of absolute value below modulus.  With n =
    a.shape[-1] inner terms, every partial sum of an entry is at most
    n * (modulus-1)^2 in absolute value: float64 BLAS is exact while that is
    below 2^53 and its result is cast to int64 before reducing; int64 is
    exact while it is below 2^63; Python integers are exact above.
    """
    bound = a.shape[-1] * (modulus - 1) ** 2
    if bound < 2**53:
        return _residues(modulus, (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64))
    if bound < 2**63:
        return _residues(modulus, a @ b)
    return _residues(modulus, a.astype(object) @ b.astype(object))


def _power(x, e: int, mul):
    """x^e for e >= 1 by squaring, from the lowest set bit of e on; mul(a, b) is the product.

    floor(log2 e) + popcount(e) - 1 products: none by the unit.  A square
    passes one operand twice, mul(x, x).
    """
    while not e & 1:
        x = mul(x, x)
        e >>= 1
    acc = x
    while e > 1:
        e >>= 1
        x = mul(x, x)
        if e & 1:
            acc = mul(acc, x)
    return acc


class MatFp:
    """A matrix over F_p, held as one 2-D array `a` of residues in [0, p).

    An empty matrix is given as a 2-D array of shape (0, n); an empty
    nested list has no column count and is rejected.
    """

    __slots__ = ("p", "a")

    def __init__(self, p: int, rows: Sequence[Sequence[int]] | np.ndarray):
        require_admissible_prime(p)
        a = _residues(p, rows)
        if a.ndim != 2:
            raise ValueError("entries do not form a matrix")
        self.p = p
        self.a = a

    @classmethod
    def _wrap(cls, p: int, a: np.ndarray) -> "MatFp":
        """The matrix held by a, a 2-D array of residues mod p in storage dtype.

        For arrays the library's own arithmetic made: no reduction, no copy
        and no check of p, which every operand here has already passed.
        """
        m = cls.__new__(cls)
        m.p = p
        m.a = a
        return m

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
        return cls._wrap(p, np.vstack([m.a for m in mats]))

    def transpose(self) -> "MatFp":
        return MatFp._wrap(self.p, self.a.T)

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
        return MatFp._wrap(self.p, _matmul(self.a, other.a, self.p))

    def __pow__(self, e: int) -> "MatFp":
        if self.nrows != self.ncols:
            raise ValueError("powers need a square matrix")
        if e < 0:
            raise ValueError("negative powers unsupported")
        if e == 0:
            return MatFp.identity(self.p, self.nrows)
        return _power(self, e, operator.mul)  # looked up per product, as `*` is

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
    return MatFp._wrap(p, m), pivots, len(pivots)


def rank(a: MatFp) -> int:
    return rref(a)[2]


def kernel(a: MatFp) -> MatFp:
    """Basis of the right null space; rows of the result are basis vectors."""
    red, pivots, rk = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(a.ncols) if c not in pivot_set]
    basis = np.zeros((len(free), a.ncols), dtype=red.a.dtype)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -red.a[:rk, free].T % a.p
    out = MatFp._wrap(a.p, basis)
    if not (a * out.transpose()).is_zero():
        raise AssertionError("kernel vector not annihilated")
    return out


def solve(a: MatFp, b: MatFp) -> MatFp | None:
    """One solution x of a x = b, or None if some column of b is out of reach."""
    a._compat(b)
    if b.nrows != a.nrows:
        raise ValueError("right-hand side has the wrong number of rows")
    n = a.ncols
    red, pivots, rk = rref(MatFp._wrap(a.p, np.hstack([a.a, b.a])))
    if pivots and pivots[-1] >= n:
        return None
    x = np.zeros((n, b.ncols), dtype=red.a.dtype)
    x[pivots] = red.a[:rk, n:]
    out = MatFp._wrap(a.p, x)
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


def _products(mats: Sequence[MatFp], gens: Sequence[MatFp]) -> np.ndarray:
    """Every m*g flattened to one row, m-major, from one product.

    Row i*len(gens) + j holds mats[i] * gens[j]: block (i, j) of the
    stacked mats times the side-by-side gens.  The matrices are n x n, n = 0
    included.
    """
    p, n = mats[0].p, mats[0].nrows
    if not gens:
        return np.zeros((0, n * n), dtype=mats[0].a.dtype)
    prods = _matmul(np.vstack([m.a for m in mats]), np.hstack([g.a for g in gens]), p)
    blocks = prods.reshape(len(mats), n, len(gens), n).transpose(0, 2, 1, 3)
    return blocks.reshape(len(mats) * len(gens), n * n)


def restrict_operator(ops: Sequence[MatFp], basis_rows: MatFp) -> list[MatFp]:
    """Matrix of each op on the span of basis_rows, which every op must keep.

    Column j of the i-th matrix holds the coordinates of ops[i] applied to
    basis row j.  All ops are restricted at once: one product gives the
    images [A_1 B^T | ... | A_m B^T], and one `solve` (one `rref` and its
    verification product) gives their coordinates, which are unique since
    the rows B are independent.  A span that some op does not keep raises
    ValueError; an empty op list gives [].
    """
    mats = list(ops)
    if not mats:
        return []
    d, r = basis_rows.ncols, basis_rows.nrows
    if any(m.a.shape != (d, d) for m in mats):
        raise ValueError("operator does not act on the ambient space")
    bt = basis_rows.transpose()
    # row block i of the product is A_i B^T; side by side they are the right-hand sides
    images = (MatFp.vstack(mats) * bt).a.reshape(len(mats), d, r)
    coords = solve(bt, MatFp._wrap(bt.p, np.hstack(list(images))))
    if coords is None:
        raise ValueError("subspace is not stable under the operator")
    return [MatFp._wrap(bt.p, coords.a[:, i * r : (i + 1) * r]) for i in range(len(mats))]


def generalized_eigenspace(ops: Sequence[MatFp], dim: int, *, p: int) -> tuple[MatFp, list[MatFp]]:
    """Canonical basis of the common generalized kernel V of commuting operators,
    and the matrix of each operator on V, in the order given.

    One power, op^dim of the first op, acts on the whole space, and V
    starts as its kernel.  Each round restricts every op to V in one
    `restrict_operator` call (every op must keep V).  If some restriction
    is not nilpotent, V becomes the generalized kernel of the first such
    one and the next round starts; otherwise the restrictions are the
    returned matrices.  Each round but the last strictly shrinks V, so the
    loop ends within dim + 1 rounds.  A later round restricts the current
    restrictions to the new V, given in the old V's coordinates, which
    yields each op's matrix on it at the cost of the smaller space.  An op
    nilpotent on V stays nilpotent on the smaller V of a later round, so
    the search goes on from the op that cut V.  The restrictions must
    commute, which one product, `_products(subs, subs)`, shows.  A span
    not kept or a clash raises ValueError.  The rows equal
    kernel(kernel(V)): `kernel`'s coordinates times a basis in `kernel`'s
    reduced form is again in that form.  An empty operator list cuts
    nothing out, so the whole space comes back.  An op that is not a
    dim x dim matrix over F_p raises ValueError.
    """
    mats = list(ops)
    if any(m.p != p or m.a.shape != (dim, dim) for m in mats):
        raise ValueError("operator does not act on the given space")
    if not mats:
        return MatFp.identity(p, dim), []
    basis = kernel(mats[0] ** dim)
    subs = restrict_operator(mats, basis)
    for i in range(1, len(mats)):
        power = subs[i] ** basis.nrows
        if not power.is_zero():
            cut = kernel(power)  # rows in V's coordinates
            basis = cut * basis
            subs = restrict_operator(subs, cut)
    r, n = basis.nrows, len(subs)
    # row (i, j) holds subs[i] * subs[j]
    prods = _products(subs, subs).reshape(n, n, r * r)
    if not np.array_equal(prods, prods.transpose(1, 0, 2)):
        raise ValueError("generalized eigenspace needs commuting operators")
    return basis, subs


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
    im = MatFp._wrap(u.p, v.transpose().a[pivots])  # rows: a basis of im(v)
    cols = MatFp.vstack([im, kernel(v)]).transpose()  # column basis of F^n = im + ker
    # cols * diag(1 on im, 0 on ker) * cols^-1
    e = im.transpose() * MatFp._wrap(u.p, inverse(cols).a[:rk])
    if e * e != e or e * u != u * e:
        raise AssertionError("stable idempotent is not a commuting projector")
    return e


class EchelonSpace:
    """An incrementally built row space over F_p.

    `rows`, one array, holds the basis with unit leading coefficients at
    `pivots`; inserted vectors are forward-reduced against the existing
    rows (no back-reduction, so the insertion order is visible in the
    stored basis, deterministically).  `rows` is a view of the filled part
    of a buffer whose capacity doubles when full, so the stored rows are
    copied O(log dim) times in all, not once per insert.

    Row i vanishes at the pivots of rows 0..i-1, so L = rows[:, pivots] is
    unit upper-triangular.  The forward-reduced residue of v, the one that
    vanishes at every pivot, is therefore v - (v[pivots] L^-1) rows: `reduce`
    is two `_matmul` calls, for one vector or a whole block, against L^-1,
    which is kept and extended by one column per new row.  Both products
    have inner dimension r = dim, so they take `_matmul`'s tier for r:
    float64 while r * (p-1)^2 < 2^53, int64 while r * (p-1)^2 < 2^63, and
    Python integers above.

    `insert` takes one vector or a block: the block is reduced against the
    stored rows in that one `reduce` call, and each new pivot is then
    cleared from the later rows of the block by a rank-1 step, which gives
    row for row what inserting the vectors one at a time would.
    """

    def __init__(self, p: int, width: int):
        require_admissible_prime(p)
        self.p = p
        self.width = width
        self.pivots: list[int] = []
        self._buf = np.zeros((0, width), dtype=_storage(p))
        self._linv = np.zeros((0, 0), dtype=_storage(p))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> np.ndarray:
        return self._buf[: self.dim]

    def reduce(self, vecs) -> np.ndarray:
        """Residue of vecs after subtracting its projection on the span.

        vecs is one vector or a 2-D array of them, one per row.
        """
        v = _residues(self.p, vecs)
        if v.shape[-1] != self.width:
            raise ValueError("width mismatch")
        r = self.dim
        coeffs = _matmul(v[..., self.pivots], self._linv[:r, :r], self.p)
        return _residues(self.p, v - _matmul(coeffs, self.rows, self.p))

    def insert(self, vecs) -> np.ndarray:
        """Add vecs, one vector or a 2-D block of them, to the span in row order.

        Returns the new normalized rows, one per vector that was not yet in
        the span (none, if every one was), as a 2-D array.
        """
        p, start = self.p, self.dim
        block = np.atleast_2d(self.reduce(vecs))
        for i, v in enumerate(block):
            nonzero = np.flatnonzero(v)
            if nonzero.size == 0:
                continue
            piv = int(nonzero[0])
            row = v * pow(int(v[piv]), -1, p) % p
            block[i + 1 :] = (block[i + 1 :] - block[i + 1 :, piv, None] * row) % p
            r = self.dim
            if r == len(self._buf):
                cap = max(4, 2 * r)
                buf = np.zeros((cap, self.width), dtype=self._buf.dtype)
                buf[:r] = self._buf
                linv = np.zeros((cap, cap), dtype=self._buf.dtype)
                linv[:r, :r] = self._linv[:r, :r]
                self._buf, self._linv = buf, linv
            # L^-1 of [[L, x], [0, 1]] is [[L^-1, -L^-1 x], [0, 1]], x the new pivot column
            self._linv[:r, r] = _residues(p, -_matmul(self._linv[:r, :r], self._buf[:r, piv], p))
            self._linv[r, r] = 1
            self._buf[r] = row
            self.pivots.append(piv)
        return self._buf[start : self.dim].copy()


def algebra_closure(gens: Sequence[MatFp], *, p: int, dim: int) -> list[MatFp]:
    """Linear basis of the unital algebra generated by commuting matrices.

    Breadth-first product-and-insert until the dimension stabilizes: each
    basis member is multiplied by all generators in one product, and that
    block of products, in generator order, is inserted in one call, so one
    `reduce` per block.  The returned list starts with the identity;
    members are reduced representatives, so the list is deterministic for
    a fixed generator order.  At dim 0 the identity is empty and inserts
    no row, so the basis is [].  A generator that is not a dim x dim matrix
    over F_p raises ValueError.
    """
    mats = list(gens)
    if any(m.p != p or m.a.shape != (dim, dim) for m in mats):
        raise ValueError("generator does not act on the given space")
    ech = EchelonSpace(p, dim * dim)
    basis = [MatFp._wrap(p, row.reshape(dim, dim)) for row in ech.insert(np.eye(dim, dtype=np.int64).ravel())]
    i = 0
    while i < len(basis):
        block = _products(basis[i : i + 1], mats)
        i += 1
        basis += [MatFp._wrap(p, row.reshape(dim, dim)) for row in ech.insert(block)]
    return basis
