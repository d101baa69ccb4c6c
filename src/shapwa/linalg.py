"""Sparse exact-rational matrices and vectors.

Transition matrices of weighted automata are mostly zero (chain DFAs,
layered counters, Kronecker products of such), so matrices are kept as
dict-of-rows and vectors as index->value dicts.  scipy.sparse is of no
use here: it has no rational dtype and the contracts demand bit-exact
equality.
"""

from .rational import ZERO, rat


class SpMat:
    """A sparse square matrix over the rationals.

    rows maps a row index to a {col: value} dict; absent entries are 0.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n):
        self.n = n
        self.rows = {}

    def set(self, i, j, v):
        if v == 0:
            self.rows.get(i, {}).pop(j, None)
        else:
            self.rows.setdefault(i, {})[j] = rat(v)

    def add_to(self, i, j, v):
        row = self.rows.setdefault(i, {})
        new = row.get(j, ZERO) + v
        if new == 0:
            row.pop(j, None)
        else:
            row[j] = new

    def get(self, i, j):
        return self.rows.get(i, {}).get(j, ZERO)

    @property
    def nnz(self):
        return sum(len(r) for r in self.rows.values())

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = self.copy()
        for i, row in other.rows.items():
            for j, v in row.items():
                out.add_to(i, j, v)
        return out

    def copy(self):
        out = SpMat(self.n)
        out.rows = {i: dict(row) for i, row in self.rows.items()}
        return out

    def kron(self, other):
        """Kronecker product; index (i, k) of the product is i*other.n + k."""
        m = other.n
        out = SpMat(self.n * m)
        for i, row in self.rows.items():
            for j, a in row.items():
                for k, orow in other.rows.items():
                    base_r = i * m + k
                    target = out.rows.setdefault(base_r, {})
                    for l, b in orow.items():
                        target[j * m + l] = target.get(j * m + l, ZERO) + a * b
        # prune exact cancellations
        for i in list(out.rows):
            row = {j: v for j, v in out.rows[i].items() if v != 0}
            if row:
                out.rows[i] = row
            else:
                del out.rows[i]
        return out

    def block_diag(self, other):
        out = SpMat(self.n + other.n)
        out.rows = {i: dict(row) for i, row in self.rows.items()}
        for i, row in other.rows.items():
            out.rows[i + self.n] = {j + self.n: v for j, v in row.items()}
        return out

    def vecmat(self, v):
        """Row-vector times matrix: v is a sparse dict, result likewise."""
        out = {}
        for i, x in v.items():
            row = self.rows.get(i)
            if not row:
                continue
            for j, a in row.items():
                out[j] = out.get(j, ZERO) + x * a
        return {j: v for j, v in out.items() if v != 0}

    def to_dense(self):
        return [[self.get(i, j) for j in range(self.n)] for i in range(self.n)]

    @classmethod
    def from_dense(cls, rows):
        n = len(rows)
        out = cls(n)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix is not square")
            for j, v in enumerate(row):
                if v != 0:
                    out.rows.setdefault(i, {})[j] = rat(v)
        return out

    def __eq__(self, other):
        if not isinstance(other, SpMat):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __repr__(self):
        return f"SpMat(n={self.n}, nnz={self.nnz})"


def vec_to_sparse(v):
    return {i: x for i, x in enumerate(v) if x != 0}
