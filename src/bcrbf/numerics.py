"""Precision-parameterized scalar arithmetic and dense linear algebra.

Two precision modes are supported:

* ``float64`` -- plain Python floats (binary64, ~16 significant digits);
* ``mp``     -- mpmath big floats, correctly rounded to ``dps`` decimal
  digits (default 100).

An mp ``Precision`` owns an mpmath context at its digits, one context
shared per digit count, and its numbers carry that context: arithmetic on
them rounds at its digits wherever it runs, with no precision block, and
mpmath's process-wide precision is neither read nor set.  Where numbers of
two contexts meet, an operation rounds at the context of its left operand
(or of the mpmath function called), so code that mixes digit counts
converts on entry.

Every mp matrix that a solve or an evaluation builds entry by entry --
the node tables, A and A_L, Kansa's collocation matrix, the operational
matrix L and the kernel rows at evaluation points -- is a list of
``Aligned`` rows: integer mantissas aligned at one exponent per row, with
the row's mpmath context, where a number object per entry takes about
three times the memory.  An assembled row is a Kronecker product of
table rows (``kron``), scaled and summed over an operator's terms
(``scale_row``, ``add_rows``), each product and sum rounded on raw
mantissas as the numbers' arithmetic rounds it.  The LU keeps its
factors as ``Aligned`` vectors too.  float64 matrices are lists of lists
of floats.  The LU, ``refine`` and ``mode_sum`` read every mp matrix as
``Aligned`` rows, and one given as lists of numbers is aligned on entry,
exactly; the norms read ``Aligned`` rows by their integers and lists of
numbers by the numbers' own arithmetic, to the same bits.

Every exact mp sum -- the LU's Crout dots and triangular solves, the
refinement residuals, the mode products and sums, the correction
coefficients, the corrected kernel entries and the homogenization map's
trace sums -- is one routine, ``_dot_aligned``.  Each product is formed
exactly from the raw mantissas and exponents of its operands, at
whatever digits they carry, and the sum is bit-identical to mpmath's
``fdot`` on the same operands: when the products' exponents span at most
2 * prec bits, ``mpf_sum`` provably keeps every term, so their exact sum
is rounded once at the digits of the context; a wider span is left to
``mpf_sum`` of the exact products, as ``fdot`` sums them.  A sum is one
C-level multiply-sum of integers per pair of ``Aligned`` vectors, the
pairs added exactly.  ``dot`` of two sequences of numbers -- the
correction coefficients, a kernel entry formed by ``mixed_partial`` and
the homogenization map's coefficients -- aligns them first.

Every rounding of a raw mantissa here -- those exact sums, the LU's and
the solves' subtractions and divisions, the norms, the products and sums
of assembled rows, and the kernel tables' offsets and Gaussian rows --
goes through one routine, ``_round``, and its raw add and divide.  It
assumes round-to-nearest, the rounding of every context here: a
correctly rounded result is unique, so it is mpmath's bit for bit, and
it counts bits with ``int.bit_length`` where the pure-Python backend
calls ``bitcount``.

mp digit counts differ inside a computation where a D-digit answer needs
wider intermediates: ``refine`` factors at D plus guard digits and
carries residuals and the refined solution at more digits still, then
the caller rounds the result back to D; a ``CorrectedMatrix``
carries its correction coefficients, and a corrected kernel entry its
scaled right factors, at D + 10 digits; and ``kernels.GaussianKernel``
runs its row recurrence with guard digits.

Contexts are never changed after they are made, so computations may run
in concurrent threads, at equal or different digits.  Context-bound
numbers do not pickle, but a ``Precision`` does, as its (mode, dps):
processes exchange those, as ``reporting.run_sweep`` with ``jobs > 1``
does, and each rebuilds its own context.  Elimination order is
deterministic, so results are bit-reproducible per precision mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, neg, sub, truediv

import mpmath
from mpmath.libmp import fzero, mpf_add, mpf_div, mpf_neg, mpf_sum, round_nearest

from .errors import SingularMatrix

_CONTEXTS = {}


def _mp_context(dps):
    """The mpmath context at ``dps`` digits, made once per digit count."""
    context = _CONTEXTS.get(dps)
    if context is None:
        context = mpmath.MPContext()
        context.dps = dps
        context = _CONTEXTS.setdefault(dps, context)
    return context


class Precision:
    """Numeric context: precision mode plus the elementary functions for it.

    ``digits`` is the effective number of significant decimal digits (16 for
    binary64).  Thresholds such as the LU pivot tolerance scale with it:
    Gaussian Gram matrices are near-singular by design, so the singularity
    cutoff must track the working precision rather than sit at a fixed
    magnitude.

    In mp mode ``mp`` is the mpmath context at ``dps`` digits: every number
    this object makes, and every result of arithmetic with such a number
    on the left, is rounded at ``dps`` digits.  It is None for float64.
    """

    __slots__ = ("mode", "dps", "mp")

    def __init__(self, mode="float64", dps=100):
        if mode not in ("float64", "mp"):
            raise ValueError("precision mode must be 'float64' or 'mp'")
        if mode == "mp" and dps < 5:
            raise ValueError("mp mode needs at least 5 digits")
        self.mode = mode
        self.dps = int(dps)
        self.mp = _mp_context(self.dps) if mode == "mp" else None

    def __reduce__(self):
        return Precision, (self.mode, self.dps)

    @classmethod
    def parse(cls, text):
        """Parse ``'float64'``, ``'mp'`` or ``'mp:D'`` (D decimal digits)."""
        text = text.strip().lower()
        if text == "float64":
            return cls("float64")
        if text == "mp":
            return cls("mp")
        if text.startswith("mp:"):
            return cls("mp", int(text[3:]))
        raise ValueError(f"unrecognized precision spec {text!r}")

    @property
    def digits(self):
        return 16 if self.mode == "float64" else self.dps

    def with_digits(self, dps):
        """The mp context at ``dps`` digits (float64 stays float64)."""
        return self if self.mode == "float64" else Precision("mp", dps)

    def tol(self, offset):
        """10**(offset - digits), the working-precision tolerance ladder.

        In mp mode it is a number of the context, as ``pivot_tol`` is: as
        a float it would underflow to 0 from about 330 digits on.
        """
        if self.mode == "mp":
            return self.mp.mpf(10) ** (offset - self.digits)
        return 10.0 ** (offset - self.digits)

    def pivot_tol(self, scale):
        """LU singularity cutoff: 10**(-2*digits) times max(1, scale), the
        matrix scale.

        Flat-kernel collocation matrices are solved legitimately through
        pivots at the rounding floor (the function-space error cancels);
        only pivots far below it -- structural zeros -- are refused.  In
        mp mode the scale is a number of the context, as in ``tol``: as a
        float it would overflow to inf from about 1e308 on.
        """
        if self.mode == "mp":
            scale = max(self.mp.one, self.mp.mpf(scale))
            return self.mp.mpf(10) ** (-2 * self.digits) * scale
        return 10.0 ** (-2 * self.digits) * max(1.0, float(scale))

    # -- scalar construction and elementary functions ----------------------

    def num(self, x):
        """Coerce ``x`` (number or decimal string) into this mode's scalar."""
        if self.mode == "float64":
            return float(x)
        return self.mp.mpf(x)

    def exp(self, x):
        return math.exp(x) if self.mode == "float64" else self.mp.exp(x)

    def sin(self, x):
        return math.sin(x) if self.mode == "float64" else self.mp.sin(x)

    def cos(self, x):
        return math.cos(x) if self.mode == "float64" else self.mp.cos(x)

    def sqrt(self, x):
        return math.sqrt(x) if self.mode == "float64" else self.mp.sqrt(x)

    def power(self, x, y):
        if self.mode == "float64":
            return float(x) ** float(y)
        return self.mp.power(x, y)

    @property
    def pi(self):
        if self.mode == "float64":
            return math.pi
        return +self.mp.pi

    @property
    def zero(self):
        return self.num(0)

    @property
    def one(self):
        return 1.0 if self.mode == "float64" else self.mp.one

    def __repr__(self):
        if self.mode == "float64":
            return "Precision('float64')"
        return f"Precision('mp', dps={self.dps})"

    def __eq__(self, other):
        return (
            isinstance(other, Precision)
            and self.mode == other.mode
            and self.digits == other.digits
        )

    def __hash__(self):
        return hash((self.mode, self.digits))


FLOAT64 = Precision("float64")


# -- basic dense helpers ----------------------------------------------------


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_vec(a, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


# -- rounding on integers -----------------------------------------------------


def _round(man, exp, prec=0):
    """The canonical raw ``_mpf_`` tuple of man * 2**exp for a signed
    integer ``man`` (``fzero`` for 0, else an odd mantissa and its exact
    bit count), rounded half-even at ``prec`` bits, or exactly when
    ``prec`` is 0: ``from_man_exp`` at round-to-nearest, bit for bit.  It
    assumes round-to-nearest, as every context here rounds (see above),
    and strips trailing zeros in one shift, not a byte at a time."""
    if not man:
        return fzero
    sign = 0
    if man < 0:
        sign, man = 1, -man
    n = man.bit_length() - prec
    if prec and n > 0:
        # t ends in the half bit; the bits below it are nonzero when
        # man's lowest set bit is among them
        t = man >> (n - 1)
        if t & 1 and (t & 2 or (man & -man).bit_length() < n):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
    if not man & 1:
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp += zeros
    return sign, man, exp, man.bit_length()


def _round_add(x, y, prec, minus=0):
    """x + y (x - y when ``minus``) of raw tuples, rounded by ``_round``:
    ``mpf_add`` at round-to-nearest, bit for bit.  A zero or special
    operand, or tops more than prec + 4 bits apart (where ``mpf_add`` may
    perturb the larger by a sticky bit instead), go to ``mpf_add``, so no
    integer grows with the exponent gap."""
    xs, xm, xe, xb = x
    ys, ym, ye, yb = y
    if not (xm and ym) or abs(xe + xb - ye - yb) > prec + 4:
        return mpf_add(x, y, prec, round_nearest, minus)
    if xs:
        xm = -xm
    if ys ^ minus:
        ym = -ym
    if xe > ye:
        return _round((xm << (xe - ye)) + ym, ye, prec)
    return _round(xm + (ym << (ye - xe)), xe, prec)


def _round_div(x, y, prec):
    """x / y of raw tuples, rounded by ``_round``: ``mpf_div`` at
    round-to-nearest, bit for bit, by its own method (a quotient of at
    least prec + 5 bits, and a sticky bit for a remainder).  A zero or
    special operand goes to ``mpf_div``."""
    xs, xm, xe, xb = x
    ys, ym, ye, yb = y
    if not (xm and ym):
        return mpf_div(x, y, prec, round_nearest)
    extra = max(5, prec - xb + yb + 5)
    quot, rem = divmod(xm << extra, ym)
    if rem:
        quot = (quot << 1) + 1
        extra += 1
    return _round(-quot if xs ^ ys else quot, xe - ye - extra, prec)


def _abs_gt(x, y):
    """|x| > |y| for finite raw ``_mpf_`` tuples, compared exactly."""
    _, xm, xe, xb = x
    _, ym, ye, yb = y
    if not (xm and ym):
        return bool(xm)
    if xe + xb != ye + yb:
        return xe + xb > ye + yb
    if xe > ye:
        return xm << (xe - ye) > ym
    return xm > ym << (ye - xe)


def max_abs(a):
    """The largest |entry|, of the first entry of largest magnitude.  An
    ``Aligned`` row is compared exactly by its largest integer, and the
    entry is returned at its row's context."""
    if type(a[0]) is not Aligned:
        return max(abs(v) for row in a for v in row)
    best, mp = fzero, a[0].mp
    for row in a:
        if row.lo is not None:
            top = _round(max(map(abs, row.ints)), row.lo)
            if _abs_gt(top, best):
                best, mp = top, row.mp
    return mp.make_mpf(_round(best[1], best[2], mp.prec))


def _abs_sum(terms, prec):
    """sum(abs(v) for v in ...) of (integer, exponent, prec) terms: each
    |v| rounded at its own prec, each partial sum at ``prec``, from 0, as
    Python's ``sum`` adds numbers.  A zero term changes no partial sum."""
    total = fzero
    for v, exp, own in terms:
        if v:
            total = _round_add(total, _round(abs(v), exp, own), prec)
    return total


def norm_inf(a):
    """Max row sum of |a_ij|, the first if several, each row summed as
    ``norm_1`` sums a column; for a vector given as list of scalars, max
    abs entry."""
    if not isinstance(a[0], (list, Aligned)):
        return max(abs(v) for v in a)
    if type(a[0]) is not Aligned:
        return max(sum(abs(v) for v in row) for row in a)
    best = None
    for row in a:
        prec = row.mp.prec
        total = _abs_sum(((v, row.lo, prec) for v in row.ints), prec)
        if best is None or _abs_gt(total, best):
            best, mp = total, row.mp
    return mp.make_mpf(best)


def norm_1(a):
    """The largest column sum of |a_ij|, the first if several.  A column is
    summed down its rows as ``sum`` sums numbers: in mp each |a_ij| is
    rounded at the digits of its row's context and each partial sum at
    those of the first row's, on the integers of ``Aligned`` rows."""
    if type(a[0]) is not Aligned:
        return max(sum(abs(row[j]) for row in a) for j in range(len(a[0])))
    scales = [(row.lo, row.mp.prec) for row in a]
    mp = a[0].mp
    best = None
    for col in zip(*(row.ints for row in a)):
        total = _abs_sum(((v, lo, own) for v, (lo, own) in zip(col, scales)), mp.prec)
        if best is None or _abs_gt(total, best):
            best = total
    return mp.make_mpf(best)


def check_finite(a, what="matrix"):
    """Raise ValueError on an infinite or nan entry.  An ``Aligned`` row is
    finite by construction."""
    for row in a:
        if type(row) is not Aligned and not all(map(mpmath.isfinite, row)):
            raise ValueError(f"non-finite entry in {what}")


class Aligned:
    """A vector of mp numbers stored once for many ``dot`` products, and
    the row of every mp matrix.

    Entry i is ``ints[i] * 2**lo``: a signed integer mantissa aligned at
    ``lo``, the lowest exponent of the nonzero entries' raw ``_mpf_``;
    ``hi`` is the highest (both None while no entry is nonzero).  It is
    built from raw tuples of any digits, and grows at either end
    (``append``, ``insert(0, raw)``): an entry below ``lo`` shifts the
    others up once.  Every entry is finite.  Indexing and iteration give
    raw tuples.

    ``mp`` is the mpmath context of a matrix row: the context whose
    numbers the entries would be, so that a sum or norm over the row
    rounds where the numbers' arithmetic would, and ``numbers()`` makes
    them.  The LU's own vectors have none.
    """

    __slots__ = ("ints", "lo", "hi", "mp")

    def __init__(self, raws=(), mp=None):
        raws = list(raws)
        exps = [exp for _, man, exp, _ in raws if man]
        if len(exps) < len(raws) and any(exp for _, man, exp, _ in raws if not man):
            raise ValueError("non-finite entry in an aligned vector")
        lo = self.lo = min(exps) if exps else None
        self.hi = max(exps) if exps else None
        self.ints = [
            0 if not man else -(man << (exp - lo)) if sign else man << (exp - lo)
            for sign, man, exp, _ in raws
        ]
        self.mp = mp

    def _int(self, raw):
        sign, man, exp, _ = raw
        if not man:
            if exp:
                raise ValueError("non-finite entry in an aligned vector")
            return 0
        man <<= exp - self.lo
        return -man if sign else man

    def _admit(self, raw):
        """raw's integer, with lo lowered first (in place) if raw needs it."""
        man, exp = raw[1], raw[2]
        if man:
            if self.lo is None:
                self.lo = self.hi = exp
            elif exp < self.lo:
                shift = self.lo - exp
                self.ints[:] = [v << shift for v in self.ints]
                self.lo = exp
            elif exp > self.hi:
                self.hi = exp
        return self._int(raw)

    def append(self, raw):
        self.ints.append(self._admit(raw))

    def insert(self, i, raw):
        self.ints.insert(i, self._admit(raw))

    def __len__(self):
        return len(self.ints)

    def __getitem__(self, i):
        """Entry i as a raw ``_mpf_`` tuple."""
        return _round(self.ints[i], self.lo or 0)

    def __iter__(self):
        lo = self.lo or 0
        return (_round(v, lo) for v in self.ints)

    def numbers(self):
        """The entries as numbers of ``mp``, exactly."""
        make = self.mp.make_mpf
        return [make(raw) for raw in self]


_ONE = Aligned([(0, 1, 0, 1)])  # the vector [1]


def as_row(ctx, values):
    """``values`` as a matrix row of ``ctx``: a list in float64, and in mp
    an ``Aligned`` row of their exact values."""
    if ctx.mode != "mp":
        return list(values)
    convert = ctx.mp.convert
    return Aligned([convert(v)._mpf_ for v in values], ctx.mp)


def _aligned_rows(ctx, a):
    """The mp matrix ``a`` as ``Aligned`` rows: a row given as numbers is
    aligned exactly (``as_row``), an ``Aligned`` row is kept."""
    return [row if type(row) is Aligned else as_row(ctx, row) for row in a]


def extend_row(row, values):
    """Append the numbers ``values`` to a matrix row, in place, in its
    form: to an ``Aligned`` row exactly, as raw tuples."""
    if type(row) is Aligned:
        for v in values:
            row.append(row.mp.convert(v)._mpf_)
    else:
        row.extend(values)


def _dot_aligned(pairs, prec):
    """The raw sum of us[i] * vs[i] over pairs (us, vs) of ``Aligned``
    vectors, rounded once at ``prec`` bits: the one exact mp inner-product
    kernel, bit-identical to ``fdot`` of the pairs' vectors concatenated.

    Call the highest minus the lowest exponent of the nonzero products
    their window.  Within 2 * prec bits ``mpf_sum`` can neither drop a
    term, whose top bit would have to lie more than 2 * prec bits below
    the running sum's lowest bit (never above the highest product
    exponent), nor let a term replace a nonzero sum, whose lowest bit
    would have to lie more than 2 * prec bits above the sum's top bit
    (never below the lowest product exponent), wherever its running sum
    starts.  So the exact sum, rounded once, is ``fdot``'s.  The pairs'
    ``lo`` and ``hi`` bound the window before any sum is taken; within
    2 * prec each pair is one C-level multiply-sum of its integers and the
    pairs' sums are added exactly, and beyond it the exact products, each
    taken by ``_round``, go to ``mpf_sum``, as ``fdot`` sums them."""
    live, lo, hi = [], None, None
    for us, vs in pairs:
        if us.lo is None or vs.lo is None:
            continue  # only zero products
        exp, top = us.lo + vs.lo, us.hi + vs.hi
        live.append((us.ints, vs.ints, exp))
        if lo is None:
            lo, hi = exp, top
        else:
            lo, hi = min(lo, exp), max(hi, top)
    if lo is None:
        return fzero
    if hi - lo <= 2 * prec:
        return _round(sum(sum(map(mul, u, v)) << (exp - lo) for u, v, exp in live), lo, prec)
    return mpf_sum([_round(p, exp) for u, v, exp in live for p in map(mul, u, v)],
                   prec, round_nearest)


def dot(ctx, us, vs):
    """sum(u * v), in float64 a plain float sum.

    In mp mode ``_dot_aligned`` of the two vectors, bit-identical to the
    context's ``fdot``, rounded at its digits.  Sequences of numbers are
    read into lists and aligned at their own digits, whatever their
    context, so nothing is converted.  Only operands that ``Aligned``
    refuses -- one without ``_mpf_`` (a Python number or an mpc), or an
    infinite or nan one -- send the sum through ``fdot`` itself.
    """
    if ctx.mode != "mp":
        return sum(map(mul, us, vs))
    mp = ctx.mp
    if type(us) is not Aligned:
        us, vs = list(us), list(vs)
        try:
            us, vs = Aligned([u._mpf_ for u in us]), Aligned([v._mpf_ for v in vs])
        except (AttributeError, ValueError):  # not an mpf, or inf or nan
            return mp.fdot(us, vs)
    return mp.make_mpf(_dot_aligned(((us, vs),), mp.prec))


def correction_scales(ctx, qs, gammas):
    """The scaled right factors s_k = -(q_k / gamma_k) of one node, each
    rounded once at D + 10 digits (``ctx`` at D digits), for q_k = phi_k
    at the node: the quotient's rounding stays ten digits below the
    entry's.  float64 has no wider format: there they are float64
    quotients."""
    work = ctx.with_digits(ctx.digits + _WORK_GUARD)
    return [-(work.num(q) / g) for q, g in zip(qs, gammas)]


def corrected_entry(ctx, b, ps, ss):
    """b + sum_k ps[k] ss[k]: one entry of a constrained kernel from its
    base entry b, its left correction factors ps and the scaled right
    factors ss (``correction_scales``), as one exact ``dot`` rounded once
    at the digits of ``ctx``.  ``ConstrainedKernel.mixed_partial`` and
    ``CorrectedMatrix.dense`` both form their entries here, so a dense
    table is the per-entry kernel bit for bit."""
    return dot(ctx, (b, *ps), (ctx.one, *ss))


class CorrectedMatrix:
    """The m x n matrix B - P diag(gamma)^-1 Q^T, B minus r rank-one
    corrections, kept as its factors: ``rows`` are the m rows of [B | P]
    (n + r entries each; ``Aligned`` rows in mp, as the base kernel's
    ``partial_matrix`` gives them, with P appended), ``right`` the r rows
    of Q^T as numbers and ``gammas`` the r denominators, all at the
    digits of ``ctx``.

    ``extend(x)`` appends to a length-n vector x the r coefficients
    c_k = -(Q^T x)_k / gamma_k, so that row i of [B | P] dotted with
    ``extend(x)`` is entry i of the matrix times x.  P c cancels against
    B x, by as many digits as x is larger than the product.  P_ik at D
    digits already puts an error of up to 10^-D |P_ik c_k| into entry i,
    so each c_k is one exact dot rounded at D + 10 digits: its own
    rounding stays ten digits below that, whatever the cancellation.  The
    coefficients stay at D + 10 digits: every use of the extended vector
    is a ``dot``, whose exact products read each operand at its own
    digits, bit-identical to the context's ``fdot`` on converted copies.
    float64 has no wider format: there they are float64 sums.
    """

    __slots__ = ("ctx", "rows", "right", "gammas", "work")

    def __init__(self, ctx, rows, right, gammas):
        self.ctx = ctx
        self.rows = rows
        self.right = right
        self.gammas = gammas
        self.work = ctx.with_digits(ctx.digits + _WORK_GUARD)

    def extend(self, x):
        work = self.work
        coeffs = [-(dot(work, q, x) / g) for q, g in zip(self.right, self.gammas)]
        return [*x, *coeffs]

    def dense(self):
        """The matrix entry by entry, in the form of ``rows``.  The scaled
        right factors s_kj = -(Q_kj / gamma_k) are formed once per node,
        and entry ij is ``corrected_entry``: B_ij + sum_k P_ik s_kj, summed
        exactly and rounded once, as ``ConstrainedKernel.mixed_partial``
        forms it.  In mp it is one multiply-sum of the integers of row i of
        [B | P] and of [1, s_1j, ..., s_rj], aligned once per node, when
        their exponents bound its window within 2 * prec, and else
        ``_dot_aligned`` of the entry's own terms, which states the rule."""
        ctx = self.ctx
        n = len(self.right[0])
        scales = [correction_scales(ctx, qs, self.gammas) for qs in zip(*self.right)]
        if ctx.mode != "mp":
            out = []
            for row in self.rows:
                ps = row[n:]
                out.append([corrected_entry(ctx, b, ps, ss) for b, ss in zip(row, scales)])
            return out
        mp = ctx.mp
        prec = mp.prec
        factors = [Aligned([_ONE[0], *(s._mpf_ for s in ss)]) for ss in scales]
        out = []
        for row in self.rows:
            lo, hi, ps = row.lo or 0, row.hi or 0, row.ints[n:]
            entries = []
            for b, f in zip(row.ints, factors):
                if hi + f.hi - lo - f.lo <= 2 * prec:
                    entries.append(_round(sum(map(mul, (b, *ps), f.ints)), lo + f.lo, prec))
                else:  # the entry's own exponents bound its window closer
                    own = Aligned([_round(v, lo) for v in (b, *ps)])
                    entries.append(_dot_aligned(((own, f),), prec))
            out.append(Aligned(entries, mp))
        return out


def kron(vectors):
    """The Kronecker product of vectors, in flat order (last fastest):
    entry j is prod_d vectors[d][j_d], multiplied in axis order from the
    first vector's entry on.  No vectors give [1].

    ``Aligned`` rows give an ``Aligned`` row, each product of integers
    rounded as the numbers' product rounds, at the first row's context;
    a single row is returned as it is.  Vectors of numbers -- float64
    rows, and a separable field's values (``fields.ProductField``) --
    give a list, multiplied by the numbers' own arithmetic."""
    if not vectors:
        return [1]
    out = vectors[0]
    if type(out) is not Aligned:
        out = list(out)
        for vec in vectors[1:]:
            out = [u * v for u in out for v in vec]
        return out
    mp = out.mp
    for vec in vectors[1:]:
        exp = (out.lo or 0) + (vec.lo or 0)
        out = Aligned([_round(u * v, exp, mp.prec) for u in out.ints for v in vec.ints], mp)
    return out


def scale_row(c, row):
    """[c * e for e in row], each product rounded as the numbers' product
    rounds: at c's context when c is an mp number, else at the row's."""
    if type(row) is not Aligned:
        return [c * e for e in row]
    mp = getattr(c, "context", row.mp)
    sign, man, exp, _ = row.mp.convert(c)._mpf_
    if not man and exp:
        raise ValueError(f"non-finite coefficient {c}")
    if sign:
        man = -man
    exp += row.lo or 0
    return Aligned([_round(man * v, exp, mp.prec) for v in row.ints], mp)


def add_rows(us, vs):
    """[u + v for u, v in zip(us, vs)], each sum rounded as the numbers'
    sum rounds, at the context of us: on ``Aligned`` rows, the exact sum
    of the integers, rounded once."""
    if type(us) is not Aligned:
        return [u + v for u, v in zip(us, vs)]
    lo = min((r.lo for r in (us, vs) if r.lo is not None), default=0)
    du = 0 if us.lo is None else us.lo - lo
    dv = 0 if vs.lo is None else vs.lo - lo
    prec = us.mp.prec
    sums = [_round((u << du) + (v << dv), lo, prec) for u, v in zip(us.ints, vs.ints)]
    return Aligned(sums, us.mp)


def _fibers(vals, shape, e):
    """The fibers of the flat array ``vals`` of ``shape`` along axis e:
    for each index of the axes before e, in flat order, one list per index
    of the axes after it, also in flat order."""
    n = shape[e]
    inner = math.prod(shape[e + 1:])
    out = []
    for o in range(len(vals) // (n * inner)):
        block = vals[o * n * inner:(o + 1) * n * inner]
        out.extend(block[r::inner] for r in range(inner))
    return out


def solve_along(vals, shape, e, solve):
    """The flat array ``vals`` of ``shape`` with each of its fibers along
    axis e (``_fibers``) replaced by ``solve(fiber)``, a vector of the
    fiber's length: one call per fiber.  A 1-axis array is its own fiber,
    passed as it is; otherwise an ``Aligned`` row is read as its numbers."""
    if len(shape) == 1:
        return solve(vals)
    if type(vals) is Aligned:
        vals = vals.numbers()
    n, inner = shape[e], math.prod(shape[e + 1:])
    out = [None] * len(vals)
    for k, fiber in enumerate(_fibers(vals, shape, e)):
        o, r = divmod(k, inner)
        start = o * n * inner + r
        out[start:start + n * inner:inner] = solve(fiber)
    return out


def _contract(ctx, plan, total):
    """The ``total`` entries, in flat order, of a sum of contractions along
    one axis each.  ``plan`` holds one (rows, fibers, inner, m) per term:
    the term's m output rows and its fibers along the axis, in the order
    of ``_fibers``, with ``inner`` entries in the axes after it.  Output j
    takes, from each term, row q % m and fiber q // m * inner + r, for
    q, r = divmod(j, inner), and is one ``dot`` of the rows and the fibers
    concatenated over the plan, rounded once.  In mp, rows and fibers are
    ``Aligned``, and that dot is one multiply-sum of integers per term,
    the terms added exactly (``_dot_aligned``)."""
    mp = ctx.mp
    out = []
    for j in range(total):
        pairs = []
        for rows, fibers, inner, m in plan:
            q, r = divmod(j, inner)
            pairs.append((rows[q % m], fibers[q // m * inner + r]))
        if mp is None:
            out.append(dot(ctx, [u for us, _ in pairs for u in us],
                           [v for _, vs in pairs for v in vs]))
        else:
            out.append(mp.make_mpf(_dot_aligned(pairs, mp.prec)))
    return out


def mode_sum(ctx, parts, shape):
    """The sum over ``parts`` of their mode products (Van Loan, J. Comput.
    Appl. Math. 123, 2000), an array of ``shape`` in flat order (last axis
    fastest), with each output entry one ``dot``.

    A part (vals, n, mats) is the n_0 x ... x n_{d-1} array ``vals`` in
    flat order and, per axis e, an m_e x n_e matrix (m_e = shape[e]) given
    as rows or as a CorrectedMatrix, or None where the axis is left as it
    is (there n_e = shape[e]).  It has at least one matrix.  In mp, rows
    given as lists of numbers, and every fiber, are aligned on entry.
    The part is contracted along its matrix axes in order, each but the
    last one, a, by ``_contract`` with one dot per output entry.  The
    contractions along a are then folded, for all parts together, into a
    single dot per output entry: the entry at index i sums, over the
    parts, row i_a of the part's matrix along a times the part's fiber
    along a through i's other indices, exactly, and is rounded once.  This
    replaces rounding each part's values and adding them.  The terms come
    grouped by fold axis, in the order the axes first appear, and in part
    order within a group.

    A CorrectedMatrix along axis e is applied by its factors when the
    part's other axes have fewer nodes together than axis e, as in 1D:
    each fiber along e is extended by its correction coefficients once,
    and each output entry then dots a row of [B | P] with the extended
    fiber.  Otherwise a grid of about as many points as nodes has more
    fibers along the axis than nodes, and forming its m_e x n_e entries
    once (``dense``) costs less than widening every dot by r.  The choice
    depends on the part's own n alone, never on the number of points.

    Every entry reads its own point's rows of the matrices only, and the
    terms of its dots come in the same order for any grid, so a grid of
    1-point axes gives the same bits as a larger one.
    """
    folds = {}  # fold axis -> the plan terms of the parts folded along it
    for vals, n, mats in parts:
        axes = [e for e, mat in enumerate(mats) if mat is not None]
        size = list(n)
        for e in axes:
            rows, fibers = mats[e], _fibers(vals, size, e)
            if isinstance(rows, CorrectedMatrix):
                if math.prod(n) >= n[e] * n[e]:
                    rows = rows.dense()
                else:
                    fibers = [rows.extend(f) for f in fibers]
                    rows = rows.rows
            if ctx.mode == "mp":
                rows = _aligned_rows(ctx, rows)
                fibers = [as_row(ctx, f) for f in fibers]
            size[e] = len(rows)
            term = (rows, fibers, math.prod(size[e + 1:]), size[e])
            if e == axes[-1]:
                folds.setdefault(e, []).append(term)
            else:
                vals = _contract(ctx, [term], math.prod(size))
    total = math.prod(shape)
    if not folds:
        return [ctx.zero] * total
    return _contract(ctx, [t for terms in folds.values() for t in terms], total)


# -- LU factorization with partial pivoting ---------------------------------


class _FloatOps:
    """The scalars of a float64 LU: floats, and plain lists as vectors."""

    vector = scalars = numbers = list
    sub, div, neg = sub, truediv, neg

    @staticmethod
    def rows(ctx, a):
        return [list(row) for row in a]

    @staticmethod
    def dot(us, vs):
        return sum(map(mul, us, vs))

    @staticmethod
    def bigger(x, y):
        return abs(x) > abs(y)


class _MpOps:
    """The scalars of an mp LU: raw ``_mpf_`` tuples, each result rounded
    at the digits of one context, and ``Aligned`` vectors."""

    vector = Aligned
    rows = staticmethod(_aligned_rows)  # read in place, a raw tuple at a time
    neg = staticmethod(mpf_neg)
    bigger = staticmethod(_abs_gt)

    def __init__(self, mp):
        self.mp = mp
        self.prec = mp.prec

    def dot(self, us, vs):
        return _dot_aligned(((us, vs),), self.prec)

    def sub(self, x, y):
        return _round_add(x, y, self.prec, 1)

    def div(self, x, y):
        return _round_div(x, y, self.prec)

    def scalars(self, vs):
        """Raw tuples of ``vs``, each taken exactly."""
        if type(vs) is Aligned:
            return list(vs)
        convert = self.mp.convert
        return [convert(v)._mpf_ for v in vs]

    def numbers(self, xs):
        make = self.mp.make_mpf
        return [make(x) for x in xs]


def _minus_dot(ops, s, us, vs):
    """s - sum(u * v) as -(dot - s): the dot rounded once, then the
    difference (in float64 -(d - s), not s - d, keeps the sign of a zero)."""
    return ops.neg(ops.sub(ops.dot(us, vs), s))


class LUFactorization:
    """LU factors of P*A = L*U with row partial pivoting.

    Row pivoting only: at desk scale (n <= ~500) full pivoting buys nothing.
    Both precisions eliminate in one order, left-looking (Crout): entry
    (i, k) of L or U is A's entry minus one ``dot`` of the row of L and the
    column of U before it, rounded once (mp sums it exactly); the entries
    of L are then divided by their pivot, the first entry of largest
    magnitude in its column.  The sweep is strictly sequential, so
    repeated runs are bit-identical per precision mode.

    mp works on raw ``_mpf_`` tuples and keeps the factors only as
    ``Aligned`` vectors, one for each way they are read: L by rows and U
    by columns, which grow one entry per step of the sweep, and U by rows
    and L by columns, for the two solves.  Every dot of the sweep and the
    solves is then one C-level multiply-sum rounded once, bit for bit the
    dot of the number objects; the factors cost two integers per entry
    and the pivots one raw tuple each.  float64 runs the same loop on
    plain lists and floats.

    The factors, and the solutions of ``solve_vec`` and
    ``solve_transpose_vec``, are at the digits of ``ctx``; the entries of
    ``a`` are taken exactly, whatever their digits.  ``a`` is not kept,
    and its 1-norm is formed only by ``cond1_estimate(a)``.
    """

    def __init__(self, ctx, a):
        n = len(a)
        if n == 0 or any(len(row) != n for row in a):
            raise ValueError("LU requires a nonempty square matrix")
        check_finite(a, "LU input")
        self.ctx = ctx
        self.n = n
        ops = self._ops = _MpOps(ctx.mp) if ctx.mode == "mp" else _FloatOps
        vector, dot, sub, div, bigger = ops.vector, ops.dot, ops.sub, ops.div, ops.bigger
        tol_pivot = ctx.pivot_tol(max_abs(a))
        (tol,) = ops.scalars([tol_pivot])
        rows = ops.rows(ctx, a)
        lrows = [vector() for _ in range(n)]  # L[i][:k], swapped with A's rows
        ucols = [vector() for _ in range(n)]  # U[:k][j]
        urows, pivots, swaps = [], [], []
        for k in range(n):
            # column k must be up to date before its pivot is chosen
            if k:
                ucol = ucols[k]
                col = [sub(rows[i][k], dot(lrows[i], ucol)) for i in range(k, n)]
            else:
                col = [row[0] for row in rows]
            p = 0
            for i in range(1, n - k):
                if bigger(col[i], col[p]):
                    p = i
            piv = col[p]
            if not bigger(piv, tol):
                (number,) = ops.numbers([piv])
                raise SingularMatrix(
                    f"pivot {k} below tolerance "
                    f"{mpmath.nstr(tol_pivot, 3)} "
                    f"(|pivot| = {mpmath.nstr(abs(number) + 0.0, 3)})",
                    pivot_index=k,
                )
            if p:
                rows[k], rows[k + p] = rows[k + p], rows[k]
                lrows[k], lrows[k + p] = lrows[k + p], lrows[k]
                col[0], col[p] = piv, col[0]
            swaps.append(k + p)
            pivots.append(piv)
            row, lrow = rows[k], lrows[k]
            if k:
                urow = [sub(row[j], dot(lrow, ucols[j])) for j in range(k + 1, n)]
            else:
                urow = [row[j] for j in range(1, n)]
            for ucol, u in zip(ucols[k + 1:], urow):
                ucol.append(u)
            urows.append(vector(urow))
            for lrow, v in zip(lrows[k + 1:], col[1:]):
                lrow.append(div(v, piv))
        self.lrows, self.ucols, self.urows = lrows, ucols, urows
        self.lcols = [vector([lrows[i][j] for i in range(j + 1, n)]) for j in range(n)]
        self.pivots = pivots
        self.swaps = swaps

    def solve_vec(self, b):
        """Solve A x = b for one right-hand side."""
        ops, n = self._ops, self.n
        x = ops.scalars(b)
        for k, p in enumerate(self.swaps):
            if p != k:
                x[k], x[p] = x[p], x[k]
        done = ops.vector()  # x[:i]
        for i, lrow in enumerate(self.lrows):
            if i:
                x[i] = _minus_dot(ops, x[i], lrow, done)
            done.append(x[i])
        done = ops.vector()  # x[i + 1:]
        for i in range(n - 1, -1, -1):
            x[i] = ops.div(_minus_dot(ops, x[i], self.urows[i], done), self.pivots[i])
            done.insert(0, x[i])
        return ops.numbers(x)

    def solve_transpose_vec(self, b):
        """Solve A^T x = b (used by the 1-norm condition estimator)."""
        ops, n = self._ops, self.n
        x = ops.scalars(b)
        done = ops.vector()  # x[:i]
        for i, ucol in enumerate(self.ucols):
            x[i] = ops.div(_minus_dot(ops, x[i], ucol, done), self.pivots[i])
            done.append(x[i])
        done = ops.vector()  # x[i + 1:]
        for i in range(n - 1, -1, -1):
            x[i] = _minus_dot(ops, x[i], self.lcols[i], done)
            done.insert(0, x[i])
        for k in range(n - 1, -1, -1):
            p = self.swaps[k]
            if p != k:
                x[k], x[p] = x[p], x[k]
        return ops.numbers(x)

    def solve(self, b):
        """Solve A X = B where B is n x k (list of rows)."""
        cols = transpose(b)
        xs = [self.solve_vec(c) for c in cols]
        return transpose(xs)

    def cond1_estimate(self, a):
        """Hager-style 1-norm condition estimate ||a||_1 * est(||A^-1||_1)
        of ``a``, the matrix factored: ``norm_1(a)`` is formed here, so a
        factorization whose estimate is never asked for never forms it.

        Reads only ``ctx``, ``n``, ``solve_vec`` and
        ``solve_transpose_vec``, so any solver that has them may call it
        as its own estimate."""
        ctx, n = self.ctx, self.n
        x = [ctx.num(1) / n] * n
        inv_norm = ctx.zero
        for _ in range(5):
            y = self.solve_vec(x)
            inv_norm = sum(abs(v) for v in y)
            xi = [ctx.one if v >= 0 else -ctx.one for v in y]
            z = self.solve_transpose_vec(xi)
            j = max(range(n), key=lambda i: abs(z[i]))
            if abs(z[j]) <= sum(z[i] * x[i] for i in range(n)):
                break
            x = [ctx.zero] * n
            x[j] = ctx.one
        return inv_norm * norm_1(a)  # rounds at the factor's digits


def lu_factor(ctx, a):
    return LUFactorization(ctx, a)


# -- extended-precision iterative refinement --------------------------------

REFINE_GUARD = 30
"""Digits added to a factorization whose D-digit factors cannot be refined.

Entries rounded to D digits perturb a matrix by about 10^-D relative, which
in practice keeps the condition number of an assembled system near 10^D or
below even where the unrounded matrix is far worse conditioned; factors at
D + 30 digits then gain about 30 digits per refinement step.
"""

_WORK_GUARD = 10
_MAX_STEPS = 10


@dataclass
class Refinement:
    """Outcome of ``refine``.

    ``x`` and ``y`` carry ``work_digits`` digits.  ``solver`` is the last
    factorization used.  ``effective_digits`` is the number of significant
    digits of ``y``, relative to its largest entry, that the refinement
    vouches for: the context's digits when the target was met, fewer when
    the refinement stalled even with guard digits.
    """

    x: list
    y: list
    solver: object
    factor_digits: int
    work_digits: int
    steps: int
    effective_digits: int


def _exactly(ctx, vs):
    """The numbers ``vs`` taken exactly into the mp context of ``ctx``, so
    that arithmetic with them on the left rounds at its digits (``dot``
    needs no such copy).  float64 numbers are copied as they are."""
    if ctx.mode == "float64":
        return list(vs)
    convert = ctx.mp.convert
    return [convert(v) for v in vs]


def _affine_rows(ctx, a, x, c=None):
    """``c + a x`` row by row at the digits of the mp ``ctx`` (``a`` None is
    the identity, and ``x`` is returned as it is when ``c`` is None too).

    Each row is one ``dot`` of ``[c_i, *row]`` with ``[1, *x]``: every
    product is exact and the sum is rounded once, bit-identical to the
    context's ``fdot``, so a row that cancels down to a tiny residual
    keeps all of its leading digits.  The operands are read at their own
    digits, whatever their context.  The rows of ``a`` are read as
    ``Aligned`` rows (a row given as numbers is aligned exactly), x is
    aligned once, and a row is one aligned multiply-sum plus the exact
    term c_i (``_dot_aligned``).
    """
    if a is None:
        if c is None:
            return list(x)
        one = ctx.one
        return [dot(ctx, (ci, xi), (one, one)) for ci, xi in zip(c, x)]
    mp = ctx.mp
    rows = _aligned_rows(ctx, a)
    xs = as_row(ctx, x)
    if c is None:
        return [mp.make_mpf(_dot_aligned(((row, xs),), mp.prec)) for row in rows]
    cs = [Aligned([mp.convert(ci)._mpf_]) for ci in c]
    return [mp.make_mpf(_dot_aligned(((ci, _ONE), (row, xs)), mp.prec))
            for ci, row in zip(cs, rows)]


def refine(ctx, a, b, factor, guard=0, image=None, shift=None):
    """Solve ``a x = b`` so that ``y = shift + image x`` is accurate to the
    digits of ``ctx``, by mixed-precision iterative refinement.

    ``factor(fctx)`` factors the system at precision ``fctx`` and returns an
    object whose ``solve_vec(r)`` approximates ``a^-1 r``: LU factors of
    ``a`` or of a product that equals it.  The first attempt factors at D
    plus ``guard`` digits.  Each step computes the residual ``b - a x``
    exactly (see ``_affine_rows``), solves for the correction with those
    factors and adds it to ``x``.  ``x`` is kept at the work precision: D
    digits, plus the digits that cancel when ``image`` maps ``x`` to ``y``,
    plus a margin.  Factors at u = 10^-digits with u * cond(a) well below 1
    make this converge to the solution of the system as given (Carson &
    Higham, SIAM J. Sci. Comput. 40, 2018).  If the first attempt does not
    reach D digits, the system is factored once more with REFINE_GUARD
    further digits; what is still missing then shows in
    ``effective_digits``.

    Returns a Refinement whose vectors are at the work precision; round
    them to ``ctx`` with ``ctx.num``.  float64 has no wider format to
    refine in: there, ``x`` is the plain LU solution and ``y`` its image.
    """
    if ctx.mode == "float64":
        solver = factor(ctx)
        x = solver.solve_vec(b)
        y = x if image is None else mat_vec(image, x)
        if shift is not None:
            y = [yi + si for yi, si in zip(y, shift)]
        return Refinement(x, y, solver, ctx.digits, ctx.digits, 0, ctx.digits)
    for extra in (0, REFINE_GUARD):
        fdigits = ctx.digits + guard + extra
        run = _refine_attempt(ctx, a, b, factor(ctx.with_digits(fdigits)),
                              fdigits, image, shift)
        if run.effective_digits >= ctx.digits:
            break
    return run


def _refine_attempt(ctx, a, b, solver, fdigits, image, shift):
    # the convergence bookkeeping (scale, spread, change, err) rounds at D
    digits, mp = ctx.digits, ctx.mp
    x = _exactly(ctx, solver.solve_vec(b))
    # digits that cancel when image maps x to y must be carried by x
    scale = max(abs(v) for v in _affine_rows(ctx, image, x, shift))
    spread = max(abs(v) for v in x)
    if image is not None:
        spread *= norm_inf(image)
    lost = 0
    if spread > scale > 0:
        lost = int(mp.ceil(mp.log10(spread / scale)))
    tol = scale * ctx.num(10) ** -(digits + 1)
    neg_b = [-v for v in b]
    work = max(fdigits, digits + lost + _WORK_GUARD)
    wctx = ctx.with_digits(work)
    # x is updated in the work context; the residuals and images are
    # exact dots rounded there, which read a and image as they are
    x = _exactly(wctx, x)
    prev = None
    for steps in range(1, _MAX_STEPS + 1):
        r = [-v for v in _affine_rows(wctx, a, x, neg_b)]
        d = solver.solve_vec(r)
        x = [u + v for u, v in zip(x, d)]  # rounds at x's work digits
        change = ctx.num(max(abs(v) for v in _affine_rows(wctx, image, d)))
        if prev is None:
            err = change
        elif change < prev / 2:
            rho = change / prev  # contraction per step
            err = change * rho / (1 - rho)
        else:
            err = change  # stalled
            break
        if err <= tol:
            break
        prev = change
    y = _affine_rows(wctx, image, x, shift)
    # rounding x to the work precision bounds what y can carry
    err += spread * ctx.num(10) ** -work
    if err <= 10 * tol:
        effective = digits
    elif scale == 0:
        effective = 0
    else:
        effective = max(0, min(digits, int(-mp.log10(err / scale))))
    return Refinement(x, y, solver, fdigits, work, steps, effective)
