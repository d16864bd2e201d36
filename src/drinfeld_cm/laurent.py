"""Precision-tracked truncated Laurent series in 1/T over F_{q^m}, in stacks.

A series is sum_{e >= n0} c_e T^(-e) with coefficients in a FieldDesc field;
the integer `prec` means the coefficients at exponents e >= prec are unknown
(`prec = None`: the series is exact, e.g. the image of a polynomial).  With
the valuation normalised by v(T) = -1, v(series) = n0 and |x| = q^(-n0).

A `LaurentSeries` is a stack of R >= 1 such series (rows) that share n0 and
`prec`; a single series is a one-row stack.  n0 is the least exponent with a
nonzero digit in some row, so a row may start with zeros, and `valuation()`
is the least valuation over the rows (`row_valuations()` gives each one).
Arithmetic acts row by row, and a one-row operand is shared by every row of
the other, so the rows of a stack pay the Python and NumPy overhead of one
series.  The shared `prec` is the least precision the rule for each
operation certifies over the rows.

Coefficients are stored as an int64 numpy array of F_p coordinates, shape
(R, s, L) with s = [F_{q^m} : F_p], in the power basis of the field modulus.
A product packs the s coordinates of each column into one int64 as base-2^b
digits (Kronecker substitution), multiplies the packed rows as one stack of
Toeplitz products, unpacks the 2s - 1 digits and reduces them mod the
modulus with one (s x 2s-1) matrix.  The digit width b holds the largest
digit sum, min(La, Lb) * s * (p-1)^2, and the 2s - 1 digits of a product
must fit in 62 bits; when they do not (F_16 operands of 64 or more columns,
say), only one operand is packed and it is multiplied by each coordinate of
the other.  Every operation propagates `prec` exactly: a digit is either
exactly known or beyond `prec`, there is no rounding noise anywhere.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadInputError, PrecisionError
from .ffield import FieldDesc, artin_schreier_solve, embedding_table, sqrt as ff_sqrt
from .polyring import Poly, binary_power

# packed words stay below 2^62, so no int64 sum in a product can overflow
_WORD_BITS = 62


def _tensors(desc: FieldDesc) -> dict:
    """The field's numpy matrices of power reduction and of the q-th and
    p-th power maps and its coordinates-to-code weights, held by the field."""
    return desc.held("tensors", _build_tensors, desc)


def _build_tensors(desc: FieldDesc) -> dict:
    s = desc.s
    # column k: coordinates of x^k mod desc.modulus (x has code p), k = 0..2s-2
    reduce = np.array([desc.coords(desc.pow(desc.p, k)) for k in range(2 * s - 1)], dtype=np.int64).T
    # column j: coordinates of (x^j)^q and of (x^j)^p, F_p-linear maps of the power basis
    # (they differ whenever q != p, as on F_4 and on F_9 with q = 9)
    frob = np.array([desc.coords(desc.frob_q(desc.p**j)) for j in range(s)], dtype=np.int64).T
    frob_p = np.array([desc.coords(desc.pow(desc.p**j, desc.p)) for j in range(s)], dtype=np.int64).T
    codes = desc.p ** np.arange(s, dtype=np.int64)  # coordinates -> code
    return {"reduce": reduce, "frob": frob, "frob_p": frob_p, "codes": codes}


def _dilate(desc: FieldDesc, comps: np.ndarray, key: str, k: int) -> np.ndarray:
    """Coefficientwise Frobenius of a (rows, s, L) array, L >= 1, by the
    matrix `_tensors(desc)[key]` (the k-th power map), its columns placed k
    apart: the digits of x^k."""
    mapped = (_tensors(desc)[key] @ comps) % desc.p
    out = np.zeros((comps.shape[0], desc.s, (comps.shape[2] - 1) * k + 1), dtype=np.int64)
    out[:, :, ::k] = mapped
    return out


def _descent(unit: "LaurentSeries", e: int, y: np.ndarray) -> np.ndarray:
    """The digits, to the relative length ell = unit.prec, of the fixed
    point y = unit^e Frob_p(y) whose leading digits are the one column y;
    `unit` is a stack of valuation 0.

    Frob_p, the coefficientwise p-th power with exponents times p, is the
    ring map x -> x^p, so a y right to m digits gives Frob_p(y) right to p m
    and unit^e Frob_p(y) right to min(p m, ell).  The digits are made at the
    lengths ell_0 = ell, ell_(k+1) = ceil(ell_k / p), from 1 up, one product
    per length, plus those of unit^e (`binary_power`) when ell > 1.
    """
    fld = unit.field
    p = fld.p
    lengths = [unit.prec]
    while lengths[-1] > 1:
        lengths.append(-(-lengths[-1] // p))
    if len(lengths) > 1:
        w = binary_power(unit, e).comps
        for n in reversed(lengths[:-1]):
            y = _raw_mul(fld, w, _dilate(fld, y, "frob_p", p), n)
    return y


def _scalar_matrix(desc: FieldDesc, code: int):
    """The matrix of x -> code * x on coordinates, held by the field: column j
    holds code * x^j (x^j has code p^j)."""

    def build():
        return np.array([desc.coords(desc.mul(code, desc.p**j)) for j in range(desc.s)], dtype=np.int64).T

    return desc.held(("scalar", code), build)


def _packing(p: int, s: int, length: int):
    """(g, h, b): pack g coordinates of A and h of B per int64 word, b bits a digit.

    A digit of a packed product sums at most length * min(g, h) products of
    two coordinates, each at most (p-1)^2, so b bits hold it exactly; a
    product of two words has g + h - 1 digits and must fit in _WORD_BITS.
    Both operands whole (one stacked product) fit unless s and the operand
    length are both large, as for F_16 operands of 64 or more columns; then
    only A is packed, in as few words as fit, against each coordinate of B.
    """
    b = (length * s * (p - 1) ** 2).bit_length()
    if (2 * s - 1) * b <= _WORD_BITS:
        return s, s, b
    b = (length * (p - 1) ** 2).bit_length()
    return max(1, min(s, _WORD_BITS // b)), 1, b


@lru_cache(maxsize=None)
def _digits(b: int, n: int):
    """(weights 2^(b i), shifts b i as a column), i < n, for words of n b-bit digits."""
    shifts = np.arange(0, b * n, b, dtype=np.int64)
    weights = np.left_shift(1, shifts)
    shifts = shifts[:, None]
    weights.setflags(write=False)
    shifts.setflags(write=False)
    return weights, shifts


def _convolve_rows(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """c[r, k] = sum_i a[r, i] b[r, k - i] for k < n, for every row r at once.

    A one-row operand is shared by every row of the other.  The shorter
    operand slides over the zero-padded longer one as a strided (rows, n, m)
    view of Toeplitz windows, so one matmul makes every product and nothing
    of size rows * n * m is ever allocated.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    m = a.shape[1]
    pad = np.zeros((b.shape[0], n + m - 1), dtype=np.int64)
    w = min(b.shape[1], n)
    pad[:, m - 1 : m - 1 + w] = b[:, :w]
    rs, cs = pad.strides
    windows = np.ndarray((pad.shape[0], n, m), np.int64, pad, 0, (rs, cs, cs))
    return (windows @ a[:, ::-1, None])[:, :, 0]


def _raw_mul(desc: FieldDesc, A: np.ndarray, B: np.ndarray, ncols: int | None = None) -> np.ndarray:
    """Row-wise product of stacked coordinate arrays (rows, s, L), optionally
    truncated to ncols; a one-row operand is shared by every row of the other.

    Kronecker substitution: the coordinates of a column are the base-2^b
    digits of one int64, so one stacked convolution yields, for each output
    column, the coefficients of the product of two polynomials of degree < s
    in the field generator x; they are reduced mod desc.modulus by one matrix.
    This is the one product kernel of the series layer.
    """
    s, p = desc.s, desc.p
    La, Lb = A.shape[2], B.shape[2]
    rows = max(A.shape[0], B.shape[0])
    if La == 0 or Lb == 0:
        return np.zeros((rows, s, 0), dtype=np.int64)
    Lout = La + Lb - 1
    if ncols is not None and ncols < Lout:
        Lout = ncols
        A = A[:, :, :Lout]
        B = B[:, :, :Lout]
        La, Lb = A.shape[2], B.shape[2]
    if s == 1:
        return (_convolve_rows(A[:, 0], B[:, 0], Lout) % p)[:, None, :]
    g, h, b = _packing(p, s, min(La, Lb))
    mask = (1 << b) - 1
    digits = np.zeros((rows, 2 * s - 1, Lout), dtype=np.int64)
    for i in range(0, s, g):
        rows_a = A[:, i : i + g]
        pa = _digits(b, rows_a.shape[1])[0] @ rows_a
        for j in range(0, s, h):
            rows_b = B[:, j : j + h]
            nd = rows_a.shape[1] + rows_b.shape[1] - 1
            conv = _convolve_rows(pa, _digits(b, rows_b.shape[1])[0] @ rows_b, Lout)
            unpacked = conv[:, None, :] >> _digits(b, nd)[1]
            unpacked &= mask
            digits[:, i + j : i + j + nd] += unpacked
    out = _tensors(desc)["reduce"] @ digits
    out %= p
    return out


def _strip(comps: np.ndarray, n0: int):
    """Drop the zero columns at both ends of a stack: (comps, n0 of the first kept)."""
    nz = np.flatnonzero(comps.any(axis=(0, 1)))
    if nz.size == 0:
        return comps[:, :, :0], 0
    return comps[:, :, nz[0] : nz[-1] + 1], n0 + int(nz[0])


def _min_prec(*ps):
    vals = [p for p in ps if p is not None]
    return min(vals) if vals else None


class LaurentSeries:
    """Immutable stack of truncated Laurent series with exact precision tracking."""

    __slots__ = ("field", "n0", "comps", "prec")

    def __init__(self, fld: FieldDesc, n0: int, comps, prec, *, reduced: bool = False):
        """`comps` has shape (rows, s, L); an (s, L) array is one row.

        `reduced=True` is for an int64 (rows, s, L) array already reduced
        mod p, with no column at an exponent >= prec: only zero columns at
        either end are stripped.  Otherwise the array is checked, reduced,
        cut at prec and stripped at both ends."""
        if reduced:
            if not comps.shape[2]:
                n0 = 0
            elif not (comps[:, :, 0].any() and comps[:, :, -1].any()):
                comps, n0 = _strip(comps, n0)
        else:
            comps = np.asarray(comps, dtype=np.int64)
            if comps.ndim == 2:
                comps = comps[None]
            if comps.ndim != 3 or comps.shape[1] != fld.s or not comps.shape[0]:
                raise BadInputError("component array must have shape (rows, s, L)")
            comps = comps % fld.p
            # drop columns at exponents >= prec
            if prec is not None and comps.shape[2] > prec - n0:
                comps = comps[:, :, : max(0, prec - n0)]
            # strip leading zeros (raising n0) and trailing zeros (known zeros stay implicit)
            comps, n0 = _strip(comps, n0)
        comps.setflags(write=False)
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(fld: FieldDesc, prec=None) -> "LaurentSeries":
        return LaurentSeries(fld, 0, np.zeros((1, fld.s, 0), dtype=np.int64), prec)

    @staticmethod
    def one(fld: FieldDesc, prec=None) -> "LaurentSeries":
        return LaurentSeries.constant(fld, 1, prec)

    @staticmethod
    def constant(fld: FieldDesc, code: int, prec=None) -> "LaurentSeries":
        comps = np.array(fld.coords(code), dtype=np.int64).reshape(1, fld.s, 1)
        return LaurentSeries(fld, 0, comps, prec)

    @staticmethod
    def from_codes(fld: FieldDesc, n0: int, codes, prec=None) -> "LaurentSeries":
        comps = np.zeros((1, fld.s, len(codes)), dtype=np.int64)
        for j, c in enumerate(codes):
            comps[0, :, j] = fld.coords(c)
        return LaurentSeries(fld, n0, comps, prec)

    @staticmethod
    def from_poly(a: Poly, fld: FieldDesc | None = None) -> "LaurentSeries":
        """Exact series of a polynomial; embeds coefficients if fld extends a.field."""
        return LaurentSeries.from_polys([a], fld)

    @staticmethod
    def from_polys(polys: list, fld: FieldDesc | None = None, shifts: list | None = None) -> "LaurentSeries":
        """The exact stack whose row r is polys[r] T^-shifts[r] (no shift by
        default); embeds coefficients if fld extends the polynomials' field."""
        src = polys[0].field
        dst = fld or src
        table = None if dst == src else embedding_table(src, dst)
        shifts = shifts or [0] * len(polys)
        # the coefficient of T^i in row r sits at exponent shifts[r] - i
        rows = [(r, a, k) for r, (a, k) in enumerate(zip(polys, shifts)) if not a.is_zero()]
        lo = min((k - a.deg for _, a, k in rows), default=0)
        width = max((k + 1 for _, _, k in rows), default=lo) - lo
        comps = np.zeros((len(polys), dst.s, width), dtype=np.int64)
        for r, a, k in rows:
            for i, c in enumerate(a.coeffs):
                if c:
                    comps[r, :, k - i - lo] = dst.coords(c if table is None else table[c])
        return LaurentSeries(dst, lo, comps, None)

    @staticmethod
    def t_power(fld: FieldDesc, k: int, prec=None) -> "LaurentSeries":
        """T^k (any integer k), i.e. the exponent -k in 1/T."""
        return LaurentSeries.from_codes(fld, -k, [1], prec)

    @staticmethod
    def stack(items) -> "LaurentSeries":
        """The rows of every item, in order, as one stack at their least precision."""
        fld = items[0].field
        prec = _min_prec(*(x.prec for x in items))
        full = [x for x in items if x.comps.shape[2]]
        lo = min((x.n0 for x in full), default=0)
        width = max((x.n0 + x.comps.shape[2] for x in full), default=lo) - lo
        comps = np.zeros((sum(x.comps.shape[0] for x in items), fld.s, width), dtype=np.int64)
        r = 0
        for x in items:
            k, L = x.comps.shape[0], x.comps.shape[2]
            if L:
                comps[r : r + k, :, x.n0 - lo : x.n0 - lo + L] = x.comps
            r += k
        return LaurentSeries(fld, lo, comps, prec)

    # -- rows ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.comps.shape[0]

    def take(self, index) -> "LaurentSeries":
        """The stack of rows `index`; a one-row series stands for every row."""
        if self.comps.shape[0] == 1:
            return self
        return LaurentSeries(self.field, self.n0, self.comps[np.asarray(index)], self.prec, reduced=True)

    def spread(self, rows: int, index, shifts) -> "LaurentSeries":
        """The stack of `rows` rows whose row i is the sum of the rows k with
        index[k] = i, each times T^-shifts[k] (its exponents raised by
        shifts[k]), and 0 where no k has index i; a one-row series stands for
        every k.  The precision is the least shifted one, min(prec +
        shifts[k]); digits beyond it are dropped."""
        shifts = np.asarray(shifts, dtype=np.int64)
        index = np.asarray(index, dtype=np.int64)
        K = len(index)
        lo_shift, hi_shift = int(shifts.min()), int(shifts.max())
        R, s, L = self.comps.shape
        if lo_shift == hi_shift and rows == R == K and (index == np.arange(K)).all():
            return self.mul_t_power(-lo_shift) if lo_shift else self  # one shift for every row, in place
        prec = None if self.prec is None else self.prec + lo_shift
        lo = self.n0 + lo_shift
        width = L + hi_shift - lo_shift if L else 0
        if prec is not None:
            width = max(0, min(width, prec - lo))
        comps = self.comps if R == K else np.broadcast_to(self.comps, (K, s, L))
        unique = len(set(index.tolist())) == K
        # rows that share an index are placed apart, then summed by one 0/1 matrix
        out = np.zeros((rows, s, width) if unique else (K, s, width), dtype=np.int64)
        for shift in set(shifts.tolist()):  # one slice per distinct shift
            ks = np.flatnonzero(shifts == shift)
            c0 = shift - lo_shift
            n = min(L, width - c0)
            if n > 0:
                out[index[ks] if unique else ks, :, c0 : c0 + n] = comps[ks, :, :n]
        if not unique:
            gather = np.zeros((rows, K), dtype=np.int64)
            gather[index, np.arange(K)] = 1
            out = (gather @ out.reshape(K, -1)).reshape(rows, s, width) % self.field.p
        return LaurentSeries(self.field, lo, out, prec, reduced=True)

    def row_valuations(self) -> list:
        """The valuation of each row, None for a row indistinguishable from 0."""
        if not self.comps.shape[2]:
            return [None] * self.comps.shape[0]
        nonzero = self.comps.any(axis=1)
        first = nonzero.argmax(axis=1).tolist()
        return [self.n0 + f if any_ else None for f, any_ in zip(first, nonzero.any(axis=1).tolist())]

    # -- inspection --------------------------------------------------------------

    def is_zero_known(self) -> bool:
        """No nonzero digit among the known ones (in any row)."""
        return self.comps.shape[2] == 0

    def valuation(self):
        """v_infinity (the least over the rows), or None when indistinguishable from 0."""
        return self.n0 if self.comps.shape[2] else None

    def val_bound(self):
        """Exact valuation, or (for a 0-looking series) the precision lower bound."""
        if self.comps.shape[2]:
            return self.n0
        return self.prec  # may be None: exact zero has valuation +infinity

    def _column(self, j: int) -> int:
        if self.comps.shape[0] != 1:
            raise BadInputError("coefficients are read from a one-row series")
        return self.field.code(self.comps[0, :, j].tolist())

    def sgn_code(self) -> int:
        """Leading coefficient code (sgn); BadInput on a 0-looking series."""
        if not self.comps.shape[2]:
            raise BadInputError("sgn of (0 mod precision)")
        return self._column(0)

    def coeff_code(self, e: int) -> int:
        """Coefficient code at exponent e (of T^-e); PrecisionError beyond prec."""
        if self.prec is not None and e >= self.prec:
            raise PrecisionError(f"coefficient at exponent {e} beyond precision {self.prec}")
        j = e - self.n0
        if j < 0 or j >= self.comps.shape[2]:
            return 0
        return self._column(j)

    def __repr__(self):
        v = "zero" if self.is_zero_known() else str(self.n0)
        rows = f" rows={self.rows}" if self.rows > 1 else ""
        codes = [self.field.code(self.comps[0, :, j].tolist()) for j in range(min(self.comps.shape[2], 12))]
        more = "..." if self.comps.shape[2] > 12 else ""
        return f"v={v} prec={self.prec}{rows} coeffs=[{','.join(map(str, codes))}{more}]"

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.n0 == other.n0
            and self.prec == other.prec
            and self.comps.shape == other.comps.shape
            and bool((self.comps == other.comps).all())
        )

    def __hash__(self):  # pragma: no cover
        raise TypeError("LaurentSeries is not hashable")

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise BadInputError("series over different coefficient fields")

    def __add__(self, other):
        return self._aligned_sum(other, np.add)

    def __sub__(self, other):
        """x - y in the same aligned pass as x + y (in characteristic 2, the same sum)."""
        return self._aligned_sum(other, np.add if self.field.p == 2 else np.subtract)

    def _aligned_sum(self, other, op) -> "LaurentSeries":
        """op(self, other) for op = np.add or np.subtract, on one aligned column range."""
        self._check(other)
        fld = self.field
        prec = _min_prec(self.prec, other.prec)
        cols = []
        for x in (self, other):
            if x.comps.shape[2]:
                cols.append((x.n0, x.n0 + x.comps.shape[2]))
        rows = max(self.comps.shape[0], other.comps.shape[0])
        if not cols:
            return LaurentSeries(fld, 0, np.zeros((rows, fld.s, 0), dtype=np.int64), prec, reduced=True)
        lo = min(c[0] for c in cols)
        hi = max(c[1] for c in cols)
        if prec is not None:
            hi = min(hi, prec)
        out = np.zeros((rows, fld.s, max(hi - lo, 0)), dtype=np.int64)
        for x, x_op in ((self, np.add), (other, op)):
            L = x.comps.shape[2]
            if L:
                a = x.n0 - lo
                seg = min(L, out.shape[2] - a)
                if seg > 0:
                    view = out[:, :, a : a + seg]
                    x_op(view, x.comps[:, :, :seg], out=view)
        return LaurentSeries(fld, lo, out, prec)

    def __neg__(self):
        """-x; in characteristic 2 that is x itself."""
        if self.field.p == 2:
            return self
        return LaurentSeries(self.field, self.n0, (-self.comps) % self.field.p, self.prec, reduced=True)

    def __mul__(self, other):
        self._check(other)
        fld = self.field
        va, vb = self.val_bound(), other.val_bound()
        pa = self.prec if self.prec is not None else None
        pb = other.prec if other.prec is not None else None
        # prec(xy) = min(prec_x + v(y), prec_y + v(x)), None-aware
        terms = []
        if pa is not None and vb is not None:
            terms.append(pa + vb)
        if pb is not None and va is not None:
            terms.append(pb + va)
        if (pa is not None and vb is None) or (pb is not None and va is None):
            # one factor is an exact zero: product is exact zero
            return LaurentSeries.zero(fld)
        prec = min(terms) if terms else None
        if self.is_zero_known() or other.is_zero_known():
            return LaurentSeries.zero(fld, prec)
        ncols = None if prec is None else prec - (self.n0 + other.n0)
        if ncols is not None and ncols <= 0:
            return LaurentSeries.zero(fld, prec)
        out = _raw_mul(fld, self.comps, other.comps, ncols)
        return LaurentSeries(fld, self.n0 + other.n0, out, prec, reduced=True)

    def scale(self, code: int) -> "LaurentSeries":
        """Multiply by a field constant."""
        if code == 0:
            return LaurentSeries.zero(self.field, self.prec)
        if code == 1:
            return self
        M = _scalar_matrix(self.field, code)
        return LaurentSeries(self.field, self.n0, (M @ self.comps) % self.field.p, self.prec, reduced=True)

    def mul_t_power(self, k: int) -> "LaurentSeries":
        """Multiply by T^k."""
        prec = None if self.prec is None else self.prec - k
        return LaurentSeries(self.field, self.n0 - k, self.comps, prec, reduced=True)

    def truncate(self, prec: int) -> "LaurentSeries":
        new = _min_prec(self.prec, prec)
        if new == self.prec:
            return self  # no known digit lies at or beyond prec
        comps = self.comps
        if new is not None and comps.shape[2] > new - self.n0:
            comps = comps[:, :, : max(0, new - self.n0)]
        return LaurentSeries(self.field, self.n0, comps, new, reduced=True)

    def __pow__(self, e: int):
        if e < 0:
            raise BadInputError("negative power: use inverse() explicitly")
        if e == 0:
            return LaurentSeries.one(self.field, None)
        return binary_power(self, e)

    def frobenius_q(self) -> "LaurentSeries":
        """x -> x^q: coefficientwise Frobenius with exponents dilated by q."""
        return self._frobenius("frob", self.field.q)

    def frobenius_p(self) -> "LaurentSeries":
        """x -> x^p: coefficientwise p-th power with exponents dilated by p
        (for p = 2, the square of x, to precision 2 prec)."""
        return self._frobenius("frob_p", self.field.p)

    def _frobenius(self, key: str, k: int) -> "LaurentSeries":
        prec = None if self.prec is None else k * self.prec
        if not self.comps.shape[2]:
            return LaurentSeries(self.field, 0, self.comps, prec, reduced=True)
        return LaurentSeries(self.field, k * self.n0, _dilate(self.field, self.comps, key, k), prec, reduced=True)

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse of every row; requires finite precision
        and, in a stack, rows of one valuation v.

        Frobenius descent (`_descent`): with u the unit parts, of relative
        length ell = prec - v, 1/u is the fixed point y = u^(p-1) Frob_p(y)
        whose leading digit is the inverse of u's.  Since Frob_p(y) = y^p
        in characteristic p, y = 1/u to m digits gives u^(p-1) Frob_p(y) =
        u^(p-1)/u^p = 1/u to p m digits: from each row's inverse leading
        digit, ceil(log_p ell) products at the lengths ceil(ell / p^k), plus
        those of u^(p-1) (none for p = 2, one for p = 3).  Every digit is
        exact and the precision is prec - 2v, as Newton's iteration gives.
        """
        if self.is_zero_known():
            raise PrecisionError("inversion of a series indistinguishable from 0")
        if self.prec is None:
            raise BadInputError("inverse of an exact series: truncate() first")
        fld = self.field
        v = self.n0
        lead = (self.comps[:, :, 0] @ _tensors(fld)["codes"]).tolist()
        if not all(lead):
            raise PrecisionError("inversion of a row that is 0 or of higher valuation than its stack")
        inv = {c: fld.coords(fld.inv(c)) for c in set(lead)}
        y = np.array([inv[c] for c in lead], dtype=np.int64)[:, :, None]
        unit = LaurentSeries(fld, 0, self.comps, self.prec - v, reduced=True)
        return LaurentSeries(fld, -v, _descent(unit, fld.p - 1, y), self.prec - 2 * v, reduced=True)

    def sqrt(self) -> "LaurentSeries":
        """Canonical square root of a one-row series (odd characteristic).

        Requires even valuation and a square leading coefficient in the
        coefficient field; the branch is fixed by the canonical square root
        root0 of the leading coefficient.  Frobenius descent (`_descent`):
        r = u^(-1/2) of the unit part u is the fixed point r = u^((p-1)/2)
        Frob_p(r) with leading digit 1/root0 (right to m digits, r gives
        u^((p-1)/2) r^p = u^(-1/2) to p m), and sqrt(u) = u r.
        """
        fld = self.field
        if fld.p == 2:
            raise BadInputError("sqrt() is for odd characteristic; char-2 squares are Frobenius images")
        if self.is_zero_known():
            return self
        v = self.n0
        if v % 2:
            raise BadInputError("sqrt of a series with odd valuation")
        root0 = ff_sqrt(fld, self.sgn_code())
        if root0 is None:
            raise BadInputError("leading coefficient is not a square in the coefficient field")
        if self.prec is None:
            raise BadInputError("sqrt of an exact series: truncate() first")
        ell = self.prec - v
        unit = LaurentSeries(fld, 0, self.comps, ell, reduced=True)
        r = np.array(fld.coords(fld.inv(root0)), dtype=np.int64).reshape(1, fld.s, 1)
        invsqrt_unit = LaurentSeries(fld, 0, _descent(unit, (fld.p - 1) // 2, r), ell, reduced=True)
        return (unit * invsqrt_unit).mul_t_power(-v // 2)  # leading coeff c0/root0 = root0

    def artin_schreier_root(self) -> "LaurentSeries":
        """Canonical y with y^2 + y = self (p = 2, valuation >= 0).

        The constant term's Artin-Schreier equation must be solvable in the
        coefficient field; callers extend to F_{q^2} first when it is not.
        """
        fld = self.field
        if fld.p != 2:
            raise BadInputError("artin_schreier_root requires p = 2")
        if not self.is_zero_known() and self.n0 < 0:
            raise BadInputError("artin_schreier_root requires valuation >= 0")
        if self.prec is None:
            raise BadInputError("artin_schreier_root of an exact series: truncate() first")
        P = self.prec
        s_codes = [self.coeff_code(e) for e in range(0, P)]
        roots = artin_schreier_solve(fld, s_codes[0])
        if roots is None:
            raise BadInputError("constant term has no Artin-Schreier root in this coefficient field")
        y = [roots[0]] + [0] * (P - 1)
        for e in range(1, P):
            c = s_codes[e]
            if e % 2 == 0:
                half = y[e // 2]
                c = fld.add(c, fld.mul(half, half))
            y[e] = c
        return LaurentSeries.from_codes(fld, 0, y, P)

    # -- rounding helpers ---------------------------------------------------------

    def polynomial_part(self):
        """(Poly over the coefficient field, first nonzero tail exponent or None).

        The polynomial collects the digits at exponents <= 0; the tail scan
        covers every known digit at exponents >= 1.
        """
        fld = self.field
        if self.is_zero_known():
            return Poly(fld, ()), None
        if self.n0 < -(10**6):
            raise BadInputError("unreasonable polynomial degree")
        codes = []
        for e in range(self.n0, min(1, self.prec if self.prec is not None else 1)):
            codes.append(self.coeff_code(e))
        # codes are exponents n0..0 -> coefficients of T^(-n0)..T^0
        poly = Poly(fld, list(reversed(codes))) if self.n0 <= 0 else Poly(fld, ())
        tail = None
        start = max(1, self.n0)
        stop = self.n0 + self.comps.shape[2]
        for e in range(start, stop):
            if self.coeff_code(e) != 0:
                tail = e
                break
        return poly, tail


# ---------------------------------------------------------------------------
# Carlitz constants


def pi_power_qm1(fld: FieldDesc, prec: int) -> LaurentSeries:
    """The (q-1)-th power of the Carlitz period as a series over F_q^(m).

    pi^(q-1) = -T^q * prod_{k>=1} (1 - T^(1-q^k))^-(q-1); only this power is
    ever needed, which keeps all computations inside Laurent coefficients.
    """
    q = fld.q
    rel = prec + q + 1
    prod = LaurentSeries.one(fld, rel)
    k = 1
    while q**k - 1 < rel:
        tk = LaurentSeries.from_codes(fld, 0, [1] + [0] * (q**k - 2) + [fld.neg(1)], rel)
        prod = (prod * tk ** (q - 1)).truncate(rel)
        k += 1
    inv = prod.inverse()
    out = inv.mul_t_power(q).scale(fld.neg(1))
    return out.truncate(prec)


def inverse_bracket_series(fld: FieldDesc, i: int, rel: int) -> LaurentSeries:
    """1/(T^(q^i) - T) as a series with `rel` known digits past the lead."""
    q = fld.q
    v = q**i
    gap = v - 1
    codes = []
    e = 0
    while e < rel:
        codes.extend([1] + [0] * (gap - 1))
        e += gap
    return LaurentSeries.from_codes(fld, v, codes[:rel], v + rel)
