"""Dense exact linear algebra over F_p.

Row-echelon forms, kernels, solving, commuting generalized eigenspaces,
the stable idempotent of an endomorphism, and linear closure of commuting
matrix algebras.  Pivoting is deterministic (first nonzero entry), so all
outputs are reproducible bit for bit.

Spaces handled here are small (a few hundred dimensions at the very most),
so matrices are plain Python integers in row-major lists.  Matrix products
run on numpy: on int64 arrays while every entry's sum of products fits,
that is while ncols * (p-1)^2 < 2^63, and on object arrays of Python
integers, exact at any size, above that bound.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .padic import require_admissible_prime


class MatFp:
    """A matrix over F_p; entries kept reduced into [0, p)."""

    __slots__ = ("p", "nrows", "ncols", "rows")

    def __init__(self, p: int, rows: Sequence[Sequence[int]], ncols: int | None = None):
        require_admissible_prime(p)
        self.p = p
        self.rows = [[e % p for e in r] for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols disagrees with row length")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols

    @classmethod
    def zeros(cls, p: int, nrows: int, ncols: int) -> "MatFp":
        return cls(p, [[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, p: int, n: int) -> "MatFp":
        return cls(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def vstack(cls, mats: Sequence["MatFp"]) -> "MatFp":
        if not mats:
            raise ValueError("nothing to stack")
        p, ncols = mats[0].p, mats[0].ncols
        rows: list[list[int]] = []
        for m in mats:
            if m.p != p or m.ncols != ncols:
                raise ValueError("incompatible stack")
            rows.extend(m.rows)
        return cls(p, rows, ncols)

    @classmethod
    def from_flat(cls, p: int, n: int, flat: Sequence[int]) -> "MatFp":
        return cls(p, [list(flat[i * n : (i + 1) * n]) for i in range(n)], n)

    def copy(self) -> "MatFp":
        return MatFp(self.p, [r[:] for r in self.rows], self.ncols)

    def row(self, i: int) -> list[int]:
        return self.rows[i][:]

    def col(self, j: int) -> list[int]:
        return [r[j] for r in self.rows]

    def flat(self) -> list[int]:
        return [e for r in self.rows for e in r]

    def transpose(self) -> "MatFp":
        return MatFp(
            self.p,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            self.nrows,
        )

    def is_zero(self) -> bool:
        return all(e == 0 for r in self.rows for e in r)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatFp):
            return NotImplemented
        return (self.p, self.nrows, self.ncols, self.rows) == (
            other.p,
            other.nrows,
            other.ncols,
            other.rows,
        )

    def __hash__(self):
        return hash((self.p, tuple(tuple(r) for r in self.rows)))

    def __add__(self, other: "MatFp") -> "MatFp":
        self._compat(other, same_shape=True)
        return MatFp(
            self.p,
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other: "MatFp") -> "MatFp":
        self._compat(other, same_shape=True)
        return MatFp(
            self.p,
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scaled(self, c: int) -> "MatFp":
        return MatFp(self.p, [[c * e for e in r] for r in self.rows], self.ncols)

    def __mul__(self, other: "MatFp") -> "MatFp":
        self._compat(other)
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions disagree")
        p = self.p
        # an entry sums ncols products of residues, each at most (p-1)^2
        dtype = np.int64 if self.ncols * (p - 1) ** 2 < 2**63 else object
        a = np.array(self.rows, dtype=dtype).reshape(self.nrows, self.ncols)
        b = np.array(other.rows, dtype=dtype).reshape(other.nrows, other.ncols)
        return MatFp(p, (a @ b % p).tolist(), other.ncols)

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

    def apply(self, vec: Sequence[int]) -> list[int]:
        """Matrix times column vector."""
        if len(vec) != self.ncols:
            raise ValueError("vector length disagrees")
        p = self.p
        return [sum(a * b for a, b in zip(row, vec)) % p for row in self.rows]

    def commutes_with(self, other: "MatFp") -> bool:
        return self * other == other * self

    def _compat(self, other: "MatFp", same_shape: bool = False) -> None:
        if self.p != other.p:
            raise ValueError("mixed characteristics")
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"MatFp(p={self.p}, {self.nrows}x{self.ncols})"


def rref(a: MatFp) -> tuple[MatFp, list[int], int]:
    """Reduced row-echelon form, pivot columns, and rank."""
    p = a.p
    rows = [r[:] for r in a.rows]
    pivots: list[int] = []
    r = 0
    for c in range(a.ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [e * inv % p for e in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(e - f * l) % p for e, l in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return MatFp(p, rows, a.ncols), pivots, len(pivots)


def rank(a: MatFp) -> int:
    return rref(a)[2]


def kernel(a: MatFp) -> MatFp:
    """Basis of the right null space; rows of the result are basis vectors."""
    red, pivots, rk = rref(a)
    p = a.p
    free = [c for c in range(a.ncols) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [0] * a.ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-red.rows[i][f]) % p
        basis.append(v)
    out = MatFp(p, basis, a.ncols)
    if any(any(a.apply(v)) for v in out.rows):
        raise AssertionError("kernel vector not annihilated")
    return out


def solve(a: MatFp, b: Sequence[int]) -> list[int] | None:
    """One solution of a x = b, or None if the system is inconsistent."""
    if len(b) != a.nrows:
        raise ValueError("right-hand side has the wrong length")
    p = a.p
    aug = MatFp(p, [row + [bb] for row, bb in zip(a.rows, b)], a.ncols + 1)
    red, pivots, _ = rref(aug)
    if a.ncols in pivots:
        return None
    x = [0] * a.ncols
    for i, c in enumerate(pivots):
        x[c] = red.rows[i][a.ncols]
    if a.apply(x) != [e % p for e in b]:
        raise AssertionError("solution does not satisfy the system")
    return x


def inverse(a: MatFp) -> MatFp:
    if a.nrows != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    aug = MatFp(
        a.p,
        [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a.rows)],
        2 * n,
    )
    red, pivots, rk = rref(aug)
    if rk < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return MatFp(a.p, [r[n:] for r in red.rows], n)


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
    p = mats[0].p
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
    n = u.nrows
    if n == 0:
        return u.copy()
    p = u.p
    v = u**n
    _, pivots, rk = rref(v)
    im_cols = [v.col(j) for j in pivots]
    ker_rows = kernel(v).rows
    cols = im_cols + ker_rows  # column basis of F^n = im + ker
    pmat = MatFp(p, [[cols[j][i] for j in range(n)] for i in range(n)], n)
    pinv = inverse(pmat)
    zeroed = MatFp(
        p,
        [[cols[j][i] if j < rk else 0 for j in range(n)] for i in range(n)],
        n,
    )
    e = zeroed * pinv
    if e * e != e or e * u != u * e:
        raise AssertionError("stable idempotent is not a commuting projector")
    return e


class EchelonSpace:
    """An incrementally built row space over F_p.

    Rows are stored with unit leading coefficients; inserted vectors are
    forward-reduced against the existing rows (no back-reduction, so the
    insertion order is visible in the stored basis, deterministically).
    """

    def __init__(self, p: int, width: int):
        require_admissible_prime(p)
        self.p = p
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """Residue of vec after subtracting its projection on the span."""
        p = self.p
        v = [e % p for e in vec]
        if len(v) != self.width:
            raise ValueError("width mismatch")
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def insert(self, vec: Sequence[int]) -> list[int] | None:
        """Add vec to the span; returns the normalized new row, or None."""
        v = self.reduce(vec)
        piv = next((i for i, e in enumerate(v) if e != 0), None)
        if piv is None:
            return None
        inv = pow(v[piv], -1, self.p)
        row = [e * inv % self.p for e in v]
        self.rows.append(row)
        self.pivots.append(piv)
        return row

    def contains(self, vec: Sequence[int]) -> bool:
        return all(e == 0 for e in self.reduce(vec))


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
        row = ech.insert(m.flat())
        if row is not None:
            basis.append(MatFp.from_flat(p, dim, row))

    push(MatFp.identity(p, dim))
    i = 0
    while i < len(basis):
        b = basis[i]
        i += 1
        for g in mats:
            push(b * g)
    return basis
