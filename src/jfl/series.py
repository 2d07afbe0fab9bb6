"""Truncated two-variable integer series.

A QYSeries is a finite sum of terms ``c * q^n * y^(r2/2)`` with integer
coefficients, where 0 <= n < truncation and the doubled y-exponent r2
runs over integers of one parity, read from the terms: the zero series
reports 0 and combines with either parity.  Storing the doubled
exponent keeps half-integer powers of y in integer keys.
Terms at q-order >= truncation are unknown, not zero; binary operations
therefore truncate to the smaller precision of their operands.

All coefficients are exact Python ints: a truncation, factor, divisor
or shift is read by ``operator.index``, and a truncation must be at
least 1.  Values are immutable; every operation returns a fresh series.

Products run one q-layer at a time.  Each q-layer is packed into a
single int by Kronecker substitution in y, starting from its own least
y-exponent, so a layer-pair product is one big-int multiplication in C
and is shifted into place before the pairs are summed.  The digit width
is fixed per product from a bound taken per output layer, which bounds
every output coefficient, so the packed digits never carry into each
other and the product is exact over Z (see ``QYSeries.__mul__``).  A
square multiplies each unordered layer pair once.  ``exact_divide``
finds the quotient layer by layer; each residue is one packed
convolution of the quotient layers found so far, with a width that
doubles when their bound outgrows it.

The degree guard on q-orders is in ``jfl.guard``, so a command that
builds no series does not load this module.
"""

from operator import index, mul


class SeriesError(ValueError):
    pass


class MixedParity(SeriesError):
    """Raised when y-exponents of distinct parities are combined."""


class BadExponent(SeriesError):
    """Raised for q-exponents outside [0, truncation)."""


class NonDivisible(SeriesError):
    """Raised when exact division leaves a remainder."""


class QYSeries:
    """Terms (n, r2) -> nonzero int below q^truncation; parity from r2."""

    __slots__ = ("truncation", "_terms")

    def __init__(self, terms, truncation):
        # internal: terms must already be canonical and of one parity
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, name, value):
        raise AttributeError("QYSeries is immutable")

    # -- construction ------------------------------------------------

    @staticmethod
    def zero(truncation):
        return QYSeries({}, _truncation(truncation))

    @staticmethod
    def one(truncation):
        return QYSeries({(0, 0): 1}, _truncation(truncation))

    # -- inspection --------------------------------------------------

    @property
    def parity(self):
        return next(iter(self._terms))[1] & 1 if self._terms else 0

    def is_zero(self):
        return not self._terms

    def coefficient(self, n, r2):
        if not 0 <= n < self.truncation:
            raise BadExponent("q-exponent %d outside [0, %d)" % (n, self.truncation))
        return self._terms.get((n, r2), 0)

    def terms(self):
        """Sorted (n, r2, coeff) triples."""
        return [(n, r2, self._terms[(n, r2)]) for n, r2 in sorted(self._terms)]

    def q_layer(self, n):
        """The q^n coefficient as a map r2 -> int."""
        if not 0 <= n < self.truncation:
            raise BadExponent("q-exponent %d outside [0, %d)" % (n, self.truncation))
        return {r2: c for (m, r2), c in self._terms.items() if m == n}

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, QYSeries):
            return NotImplemented
        return self.truncation == other.truncation and self._terms == other._terms

    def __hash__(self):
        return hash((self.truncation, frozenset(self._terms.items())))

    def __repr__(self):
        return "QYSeries(%s, N=%d)" % (render_text(self), self.truncation)

    # -- arithmetic --------------------------------------------------

    def __neg__(self):
        return QYSeries({k: -c for k, c in self._terms.items()}, self.truncation)

    def __add__(self, other):
        if not isinstance(other, QYSeries):
            return NotImplemented
        if self._terms and other._terms and self.parity != other.parity:
            raise MixedParity("cannot combine parity %d with parity %d"
                              % (self.parity, other.parity))
        trunc = min(self.truncation, other.truncation)
        out = {k: c for k, c in self._terms.items() if k[0] < trunc}
        for key, c in other._terms.items():
            if key[0] < trunc:
                v = out.get(key, 0) + c
                if v:
                    out[key] = v
                else:  # c is nonzero, so key was in out
                    del out[key]
        return QYSeries(out, trunc)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product, one packed q-layer at a time.

        Each q-layer is packed into one int (Kronecker substitution in
        y) from its own least r2, lo: the term c y^(r2/2) becomes the
        digit c at position (r2 - lo)/2 in base 2^w.  Output layer n is
        the sum of the layer-pair products A_i * B_(n-i), each shifted
        up by its own low end lo_i + lo_(n-i) less the least of them.
        A square (`other is self`) multiplies each unordered layer pair
        once: x * x on the diagonal, (x << 1) * y off it.

        The product is exact.  A coefficient of output layer n sums, for
        each i, digits of B_(n-i) times digits of A_i, so it is at most
        sum_i |A_i|_1 max|B_(n-i)|, |A_i|_1 being the sum of the absolute
        values in A_i.  w is the bit length of the largest of these
        per-layer bounds plus a sign bit, so every output digit lies
        strictly inside (-2^(w-1), 2^(w-1)), and `_unpack` reads each
        digit back from its own w-bit slice.
        """
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, QYSeries):
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        a_layers = _q_layers(self, trunc)
        b_layers = a_layers if other is self else _q_layers(other, trunc)
        norms = [sum(map(abs, layer.values())) for layer in a_layers]
        tops = [max(map(abs, layer.values()), default=0) for layer in b_layers]
        if not any(norms) or not any(tops):
            return QYSeries({}, trunc)
        size = _digit_bytes(max(sum(map(mul, norms, tops[n::-1]))
                                for n in range(trunc)))
        a_packed = [(i, _pack(layer, size))
                    for i, layer in enumerate(a_layers) if layer]
        pairs_at = [[] for _ in range(trunc)]
        if other is self:
            for k, (i, x) in enumerate(a_packed):
                if 2 * i < trunc:
                    pairs_at[2 * i].append((x, x))
                twice = (x[0], x[1] << 1)
                for j, y in a_packed[k + 1:]:
                    if i + j >= trunc:
                        break
                    pairs_at[i + j].append((twice, y))
        else:
            b_packed = [(j, _pack(layer, size))
                        for j, layer in enumerate(b_layers) if layer]
            for i, x in a_packed:
                for j, y in b_packed:
                    if i + j >= trunc:
                        break
                    pairs_at[i + j].append((x, y))
        out = {}
        for n, pairs in enumerate(pairs_at):
            if pairs:
                out.update(((n, r2), c)
                           for r2, c in _unpack(_convolve(pairs, size), size))
        return QYSeries(out, trunc)

    __rmul__ = __mul__

    def scale(self, k):
        k = _int(k, "factor")
        return QYSeries({key: k * c for key, c in self._terms.items() if k},
                        self.truncation)

    def divide_exact(self, k):
        """The series with every coefficient divided by the int k;
        NonDivisible if k is 0 or leaves a remainder."""
        k = _int(k, "divisor")
        if not k:
            raise NonDivisible("division by zero")
        out = {}
        for key, c in self._terms.items():
            out[key], rem = divmod(c, k)
            if rem:
                raise NonDivisible("coefficient %d not divisible by %d" % (c, k))
        return QYSeries(out, self.truncation)

    def __pow__(self, k):
        """Square and multiply, starting from the lowest power k needs."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not k:
            return QYSeries.one(self.truncation)
        base, result = self, None
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- reshaping ---------------------------------------------------

    def truncate(self, new_truncation):
        new_truncation = _truncation(new_truncation)
        if new_truncation > self.truncation:
            raise BadExponent("cannot extend truncation %d to %d"
                              % (self.truncation, new_truncation))
        out = {k: c for k, c in self._terms.items() if k[0] < new_truncation}
        return QYSeries(out, new_truncation)

    def shift_q(self, k):
        """Multiply by q^k (k >= 0); precision window grows with the shift."""
        k = _int(k, "q-shift")
        if k < 0:
            raise BadExponent("negative q-shift")
        return QYSeries({(n + k, r2): c for (n, r2), c in self._terms.items()},
                        self.truncation + k)

    def specialize_z0(self):
        """Set y = 1: the list of q-coefficients Sum_r2 c(n, r2)."""
        out = [0] * self.truncation
        for (n, _), c in self._terms.items():
            out[n] += c
        return out


def _int(value, what):
    """value as an int by operator.index; SeriesError if it is not one."""
    try:
        return index(value)
    except TypeError:
        raise SeriesError("%s %r is not an integer" % (what, value)) from None


def _truncation(value):
    """A truncation as an int; BadExponent if it is below 1."""
    value = _int(value, "truncation")
    if value < 1:
        raise BadExponent("truncation must be positive")
    return value


def _q_layers(series, trunc):
    """The terms below q^trunc as a list of maps r2 -> coeff, one per order."""
    layers = [{} for _ in range(trunc)]
    for (n, r2), c in series._terms.items():
        if n < trunc:
            layers[n][r2] = c
    return layers


def _digit_bytes(bound):
    """Bytes per packed digit for digits of magnitude at most bound: its
    bit length plus a sign bit, rounded up to whole bytes."""
    return bound.bit_length() // 8 + 1


def _pack(layer, size):
    """(lo, sum of c << w (r2 - lo)/2) for a nonempty layer r2 -> c, lo
    being its least r2 and w = 8 size bits the digit width."""
    lo = min(layer)
    w = 8 * size
    return lo, sum(c << (w * ((r2 - lo) >> 1)) for r2, c in layer.items())


def _convolve(pairs, size):
    """(lo, sum of x * y) over pairs of packed layers ((lo_x, x), (lo_y,
    y)), each product shifted up by lo_x + lo_y - lo, lo being the least
    such low end.  r2 steps by 2 per digit, so a step of 1 is 4 size bits."""
    lo = min(lx + ly for (lx, _), (ly, _) in pairs)
    step = 4 * size
    return lo, sum((x * y) << (step * (lx + ly - lo))
                   for (lx, x), (ly, y) in pairs)


def _unpack(packed, size):
    """The nonzero digits of a packed layer (lo, acc) as (r2, c) pairs,
    for digits strictly inside (-2^(w-1), 2^(w-1)), w = 8 size.

    Adding 2^(w-1) to every digit makes all digits nonnegative and below
    2^w without a carry, so each is read from its own w-bit slice; a
    slice equal to the bias is a zero digit."""
    lo, acc = packed
    if not acc:
        return []
    w = 8 * size
    half = 1 << (w - 1)
    blank = half.to_bytes(size, "little")
    digits = (acc.bit_length() + w) // w
    raw = (acc + int.from_bytes(blank * digits, "little")).to_bytes(
        digits * size, "little")
    return [(lo + 2 * k, int.from_bytes(chunk, "little") - half)
            for k in range(digits)
            for chunk in (raw[k * size:(k + 1) * size],) if chunk != blank]


def make_series(entries, truncation):
    """Build a canonical QYSeries from (n, r2, coeff) triples.

    Duplicate keys are summed and zero coefficients dropped.  The
    truncation and every n, r2 and coeff must be ints (SeriesError
    otherwise); entries of mixed parity raise MixedParity, out-of-range
    q-exponents raise BadExponent, as does a truncation below 1.
    """
    truncation = _truncation(truncation)
    terms = {}
    parity = None
    for entry in entries:
        try:
            n, r2, c = map(index, entry)
        except TypeError:
            raise SeriesError("entry %r is not three integers" % (entry,)) from None
        if not 0 <= n < truncation:
            raise BadExponent("q-exponent %d outside [0, %d)" % (n, truncation))
        if parity is None:
            parity = r2 & 1
        elif r2 & 1 != parity:
            raise MixedParity("r2 = %d breaks declared parity %d" % (r2, parity))
        key = (n, r2)
        v = terms.get(key, 0) + c
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)
    return QYSeries(terms, truncation)


def _laurent_exact_div(num, den):
    """Exact division of Laurent polynomials given as maps exponent -> int.

    Returns the quotient map or raises NonDivisible.  Both inputs may be
    Laurent (negative exponents); they are shifted to ordinary
    polynomials, divided by descending degree over a dense list of the
    numerator's coefficients, and shifted back.
    """
    if not den:
        raise NonDivisible("division by the zero Laurent polynomial")
    if not num:
        return {}
    min_n = min(num)
    min_d, top_d = min(den), max(den)
    deg_g = top_d - min_d
    lead = den[top_d]
    below = [(top_d - e, c) for e, c in den.items() if e != top_d]
    R = [0] * (max(num) - min_n + 1)
    for e, c in num.items():
        R[e - min_n] = c
    shift = min_n - min_d
    quot = {}
    for top in range(len(R) - 1, deg_g - 1, -1):
        c = R[top]
        if not c:
            continue
        q, rem = divmod(c, lead)
        if rem:
            raise NonDivisible("leading coefficient %d not divisible by %d"
                               % (c, lead))
        quot[top - deg_g + shift] = q
        for gap, cg in below:
            R[top - gap] -= q * cg
    for deg_r in range(min(deg_g, len(R)) - 1, -1, -1):
        if R[deg_r]:
            raise NonDivisible("remainder of y-degree %d survives" % deg_r)
    return quot


def exact_divide(f, g):
    """The series h with g*h = f, computed order by order in q.

    The denominator's lowest q-layer must divide every step exactly;
    otherwise NonDivisible is raised.  If g starts at q^m, the quotient
    is known to truncation min(N_f, N_g) - m.

    Quotient layer k is the residue f_(k+m) - sum_(i<k) h_i g_(k+m-i)
    divided by the lead layer g_m; only that Laurent division runs term
    by term.  The sum is one packed convolution of the layers found so
    far, packed as in the product.  It is exact: each of its digits sums
    at most `out_trunc` layer pairs of at most min(terms per layer of h,
    of g) digit products, each at most max|h| max|g| in size, the h
    figures taken over the layers found so far.  The digit width covers
    that bound with a sign bit; when a new quotient layer raises the
    bound past it, the width at least doubles and h and g are repacked
    before the next convolution.
    """
    if g.is_zero():
        raise NonDivisible("division by the zero series")
    g_order = min(n for n, _ in g._terms)
    trunc = min(f.truncation, g.truncation)
    out_trunc = trunc - g_order
    if out_trunc < 1:
        raise NonDivisible("no quotient precision left after order shift")
    g_layers = _q_layers(g, trunc)
    lead = g_layers[g_order]
    f_layers = _q_layers(f, trunc)
    if any(f_layers[:g_order]):
        raise NonDivisible("numerator has lower q-order than denominator")

    g_max = max(abs(c) for layer in g_layers for c in layer.values())
    g_len = max(map(len, g_layers))
    h_layers, h_max, h_len = [], 0, 0
    size, h_packed, g_packed = 0, [], []
    terms = {}
    for k in range(out_trunc):
        n = k + g_order
        residue = dict(f_layers[n])
        pairs = [(x, g_packed[n - i]) for i, x in h_packed if g_packed[n - i]]
        if pairs:
            for r2, c in _unpack(_convolve(pairs, size), size):
                v = residue.get(r2, 0) - c
                if v:
                    residue[r2] = v
                else:
                    del residue[r2]
        h_k = _laurent_exact_div(residue, lead)
        h_layers.append(h_k)
        if not h_k:
            continue
        for e, c in h_k.items():
            terms[(k, e)] = c
        h_max = max(h_max, *map(abs, h_k.values()))
        h_len = max(h_len, len(h_k))
        need = _digit_bytes(h_max * g_max * out_trunc * min(h_len, g_len))
        if need > size:
            size = max(need, 2 * size)
            g_packed = [_pack(layer, size) if layer else None for layer in g_layers]
            h_packed = [(i, _pack(layer, size)) for i, layer in enumerate(h_layers)
                        if layer]
        else:
            h_packed.append((k, _pack(h_k, size)))
    return QYSeries(terms, out_trunc)


# -- rendering -------------------------------------------------------

def _y_factor(r2):
    if r2 == 0:
        return None
    if r2 % 2 == 0:
        e = r2 // 2
        return "y" if e == 1 else "y^%d" % e
    return "y^(%d/2)" % r2


def _q_factor(n):
    if n == 0:
        return None
    return "q" if n == 1 else "q^%d" % n


def render_signed_sum(terms):
    """Join (factors, coeff) pairs as "c*f*g - h + ..."; "0" if none.

    A unit magnitude is left out unless the term has no factors."""
    parts = []
    for factors, c in terms:
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts) or "0"


def render_text(f):
    """Canonical text form: terms by n ascending then r2 ascending."""
    return render_signed_sum(([x for x in (_q_factor(n), _y_factor(r2)) if x], c)
                             for n, r2, c in f.terms())


def render_json_dict(f):
    return {
        "truncation": f.truncation,
        "parity": f.parity,
        "terms": [{"q": n, "y2": r2, "c": str(c)} for n, r2, c in f.terms()],
    }

