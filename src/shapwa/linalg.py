"""Sparse exact-rational matrices and vectors.

Transition matrices of weighted automata are mostly zero (chain DFAs,
layered counters, Kronecker products of such), so matrices are kept as
dict-of-rows and vectors as index->value dicts.  scipy.sparse is of no
use here: it has no rational dtype and the contracts demand bit-exact
equality.

Each entry of a vector-matrix product, and each dot product of two
vectors, is one `rational.dot` of its terms: the integer products over a
common denominator, normalized once, and the shared ZERO or ONE when the
entry is 0 or 1.  The other products are `rational.times`, which skips a
factor that is ZERO or ONE.  Compiled automata are mostly 0/1, and rat
returns the shared ZERO and ONE for 0 and 1, so neither a product by 0 or
1 nor a sum with 0 costs a rational operation.  The matrix-vector product
is the engine's backward step, over ints alone: a matrix and a vector
scaled by `rational.to_ints`, whose product is an int sum per row.
"""

from .rational import (ZERO, as_list, dot, exact, format_rat, rat, rats,
                       times)

# what a file in the dense layout of earlier versions is told
LAYOUT = ("a matrix is a list of [row, col, value] entries; a file in the "
          "older dense layout must be written again by running convert on "
          "its source")


class SpMat:
    """A sparse square matrix over the rationals, or over the ints once
    `rational.to_ints` has scaled its rows.

    rows maps a row index to a {col: value} dict; absent entries are 0.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n, rows=None):
        self.n = n
        self.rows = {} if rows is None else rows

    def set(self, i, j, v):
        if v == 0:
            self.rows.get(i, {}).pop(j, None)
        else:
            self.rows.setdefault(i, {})[j] = rat(v)

    @property
    def nnz(self):
        return sum(len(r) for r in self.rows.values())

    @classmethod
    def sum(cls, n, mats):
        """The sum of n x n matrices in one pass; exact cancellations are
        pruned once, at the end, in the rows that took more than one."""
        out = cls(n)
        rows = out.rows
        mixed = set()
        for m in mats:
            if m.n != n:
                raise ValueError("dimension mismatch")
            for i, row in m.rows.items():
                target = rows.get(i)
                if target is None:
                    rows[i] = dict(row)
                    continue
                mixed.add(i)
                for j, v in row.items():
                    target[j] = target[j] + v if j in target else v
        out._prune(mixed)
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
                    # (i, k, j, l) is the one source of entry (i*m+k, j*m+l)
                    for l, b in orow.items():
                        target[j * m + l] = times(a, b)
        out._prune(list(out.rows))
        return out

    def _prune(self, indices):
        # drop exact cancellations in these rows, and rows left empty; an
        # entry equal to 1 becomes the shared ONE
        for i in indices:
            row = {j: exact(v) for j, v in self.rows[i].items() if v != 0}
            if row:
                self.rows[i] = row
            else:
                del self.rows[i]

    def vecmat(self, v):
        """Row-vector times matrix: v is a sparse dict, result likewise.
        Each output entry is one `rational.dot` of its terms, which is the
        shared ZERO, and dropped, where they cancel."""
        terms = {}
        for i, x in v.items():
            row = self.rows.get(i)
            if not row:
                continue
            for j, a in row.items():
                if j in terms:
                    terms[j].append((x, a))
                else:
                    terms[j] = [(x, a)]
        return {j: y for j, t in terms.items() if (y := dot(t)) is not ZERO}

    def matvec(self, v, rows):
        """Matrix times column vector, at the given rows only, of a matrix
        and a sparse vector over the ints (`rational.to_ints`): each entry
        is a plain int sum of products, dropped where it is 0."""
        out = {}
        for i in rows:
            row = self.rows.get(i)
            if row and (y := sum([a * v[j] for j, a in row.items()
                                  if j in v])):
                out[i] = y
        return out

    def to_entries(self):
        """[row, col, format_rat(value)] of each stored entry, in row-major
        order: the file layout of a matrix, O(nnz)."""
        return [[i, j, format_rat(v)] for i in sorted(self.rows)
                for j, v in sorted(self.rows[i].items())]

    @classmethod
    def from_entries(cls, n, entries):
        """The n x n matrix of [row, col, value] entries, 0-based ints and a
        rational string, as to_entries writes them; each distinct value
        string is parsed once, and exact zeros are dropped.  ValueError
        naming the entry for anything else: a malformed entry, an index that
        is not an int in 0..n-1, a repeated (row, col), a value that is not
        a string (a number too: the int rows of a dense dim-3 matrix would
        read as entries) or that rat refuses."""
        out = cls(n)
        rows = out.rows
        zeros = set()
        parsed = {}
        for entry in as_list(entries, "matrix entries"):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise ValueError(f"matrix entry {entry!r} is not a [row, col, "
                                 f"value] list; {LAYOUT}")
            i, j, x = entry
            for index in (i, j):
                if type(index) is not int:
                    raise ValueError(f"matrix entry {entry!r}: index {index!r}"
                                     f" is not an int; {LAYOUT}")
                if not 0 <= index < n:
                    raise ValueError(f"matrix entry {entry!r}: index {index} "
                                     f"is outside 0..{n - 1}")
            row = rows.setdefault(i, {})
            if j in row:
                raise ValueError(f"matrix entry {entry!r} repeats ({i}, {j})")
            if not isinstance(x, str):
                raise ValueError(f"matrix entry {entry!r}: value {x!r} is "
                                 f"not a rational string; {LAYOUT}")
            y = parsed.get(x)
            if y is None:
                try:
                    y = parsed[x] = rat(x)
                except (TypeError, ValueError) as e:
                    raise ValueError(f"matrix entry {entry!r}: {e}") from None
            row[j] = y
            # rat reads every zero string as the shared ZERO
            if y is ZERO:
                zeros.add(i)
        out._prune(zeros)
        return out

    @classmethod
    def from_dense(cls, rows):
        """The matrix of dense rows read by rats, with exact zeros dropped.
        TypeError for a row that is not a list or tuple, ValueError unless
        the matrix is square."""
        rows = [rats(row) for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix is not square")
        return cls(len(rows), {i: {j: x for j, x in enumerate(row) if x}
                               for i, row in enumerate(rows) if any(row)})

    def __eq__(self, other):
        if not isinstance(other, SpMat):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __repr__(self):
        return f"SpMat(n={self.n}, nnz={self.nnz})"


def vec_to_sparse(v):
    return {i: x for i, x in enumerate(v) if x != 0}


def sparse_pairs(u, v):
    """[(u_j, v_j)] at the indices where both sparse vectors store an entry,
    found over the smaller support: the terms of u . v."""
    if len(u) > len(v):
        return [(x, y) for j, y in v.items() if (x := u.get(j)) is not None]
    return [(x, y) for j, x in u.items() if (y := v.get(j)) is not None]


def sparse_dot(u, v):
    """u . v of sparse vectors, one `rational.dot` of `sparse_pairs`; the
    shared ZERO when the supports do not meet."""
    return dot(sparse_pairs(u, v))
