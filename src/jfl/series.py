"""Truncated two-variable integer series.

A QYSeries is a finite sum of terms ``c * q^n * y^(r2/2)`` with integer
coefficients, where 0 <= n < truncation and the doubled y-exponent r2
runs over integers of one fixed parity (all even or all odd).  Storing
the doubled exponent keeps half-integer powers of y in integer keys.
Terms at q-order >= truncation are unknown, not zero; binary operations
therefore truncate to the smaller precision of their operands.

All coefficients are exact Python ints.  Values are immutable; every
operation returns a fresh series.

Products run one q-layer at a time.  Each q-layer is packed into a
single int by Kronecker substitution in y, so a layer-pair product is
one big-int multiplication in C.  The digit width is fixed per product
from a bound on every output coefficient, so the packed digits never
carry into each other and the product is exact over Z (see
``QYSeries.__mul__``).
"""


class SeriesError(ValueError):
    pass


class MixedParity(SeriesError):
    """Raised when y-exponents of distinct parities are combined."""


class BadExponent(SeriesError):
    """Raised for q-exponents outside [0, truncation)."""


class NonDivisible(SeriesError):
    """Raised when exact division leaves a remainder."""


class QYSeries:
    __slots__ = ("truncation", "parity", "_terms")

    def __init__(self, terms, truncation, parity):
        # internal: terms must already be canonical
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "parity", parity)

    def __setattr__(self, name, value):
        raise AttributeError("QYSeries is immutable")

    # -- construction ------------------------------------------------

    @staticmethod
    def zero(truncation, parity=0):
        return QYSeries({}, truncation, parity)

    @staticmethod
    def one(truncation):
        return QYSeries({(0, 0): 1}, truncation, 0)

    @staticmethod
    def monomial(coeff, n, r2, truncation):
        return make_series([(n, r2, coeff)], truncation)

    # -- inspection --------------------------------------------------

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
        if self.truncation != other.truncation:
            return False
        if self._terms != other._terms:
            return False
        # a zero series belongs to both parity classes
        return (not self._terms) or self.parity == other.parity

    def __hash__(self):
        # no parity: a nonzero series' parity follows from its terms, and
        # the zero series equals itself under either parity
        return hash((self.truncation, frozenset(self._terms.items())))

    def __repr__(self):
        return "QYSeries(%s, N=%d)" % (render_text(self), self.truncation)

    # -- arithmetic --------------------------------------------------

    def __neg__(self):
        return QYSeries({k: -c for k, c in self._terms.items()},
                        self.truncation, self.parity)

    def __add__(self, other):
        if not isinstance(other, QYSeries):
            return NotImplemented
        parity = _joint_parity(self, other)
        trunc = min(self.truncation, other.truncation)
        out = {}
        for src in (self._terms, other._terms):
            for (n, r2), c in src.items():
                if n >= trunc:
                    continue
                key = (n, r2)
                v = out.get(key, 0) + c
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return QYSeries(out, trunc, parity)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product, one packed q-layer at a time.

        Each q-layer is packed into one int (Kronecker substitution in
        y): the term c y^(r2/2) becomes the digit c at position
        (r2 - lo)/2 in base 2^w, lo being the operand's least r2.
        Output layer n is then the plain int sum of A_i * B_(n-i).

        The product is exact.  An output coefficient sums at most
        trunc layer pairs, and in each pair at most min(terms per layer
        of either operand) digit products, each at most max|a| max|b|
        in size.  w is that bound's bit length plus a sign bit, so every
        output digit lies strictly inside (-2^(w-1), 2^(w-1)).  Adding
        2^(w-1) to every digit therefore makes all digits nonnegative
        and below 2^w without a carry, and each digit is read back from
        its own w-bit slice.
        """
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, QYSeries):
            return NotImplemented
        trunc = min(self.truncation, other.truncation)
        parity = (self.parity + other.parity) % 2
        a_layers = _q_layers(self, trunc)
        b_layers = _q_layers(other, trunc)
        if not any(a_layers) or not any(b_layers):
            return QYSeries({}, trunc, parity)
        bound = (max(abs(c) for layer in a_layers for c in layer.values())
                 * max(abs(c) for layer in b_layers for c in layer.values())
                 * trunc * min(max(map(len, a_layers)), max(map(len, b_layers))))
        size = bound.bit_length() // 8 + 1  # bytes per digit, sign bit included
        w = 8 * size
        a_lo, a_packed = _pack_layers(a_layers, w)
        b_lo, b_packed = _pack_layers(b_layers, w)
        lo = a_lo + b_lo
        half = 1 << (w - 1)
        blank = half.to_bytes(size, "little")
        a_nonzero = [(i, x) for i, x in enumerate(a_packed) if x]
        out = {}
        for n in range(trunc):
            acc = 0
            for i, x in a_nonzero:
                if i > n:
                    break
                y = b_packed[n - i]
                if y:
                    acc += x * y
            if not acc:
                continue
            # bias every digit by 2^(w-1); blank slices are zero digits
            digits = (acc.bit_length() + w) // w
            raw = (acc + int.from_bytes(blank * digits, "little")).to_bytes(
                digits * size, "little")
            for k in range(digits):
                chunk = raw[k * size:(k + 1) * size]
                if chunk != blank:
                    out[(n, lo + 2 * k)] = int.from_bytes(chunk, "little") - half
        return QYSeries(out, trunc, parity)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, k):
        if k == 0:
            return QYSeries.zero(self.truncation, self.parity)
        return QYSeries({key: k * c for key, c in self._terms.items()},
                        self.truncation, self.parity)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = QYSeries.one(self.truncation)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- reshaping ---------------------------------------------------

    def truncate(self, new_truncation):
        if new_truncation > self.truncation:
            raise BadExponent("cannot extend truncation %d to %d"
                              % (self.truncation, new_truncation))
        out = {k: c for k, c in self._terms.items() if k[0] < new_truncation}
        return QYSeries(out, new_truncation, self.parity)

    def shift_q(self, k):
        """Multiply by q^k (k >= 0); precision window grows with the shift."""
        if k < 0:
            raise BadExponent("negative q-shift")
        return QYSeries({(n + k, r2): c for (n, r2), c in self._terms.items()},
                        self.truncation + k, self.parity)

    def specialize_z0(self):
        """Set y = 1: the list of q-coefficients Sum_r2 c(n, r2)."""
        out = [0] * self.truncation
        for (n, _), c in self._terms.items():
            out[n] += c
        return out


def _q_layers(series, trunc):
    """The terms below q^trunc as a list of maps r2 -> coeff, one per order."""
    layers = [{} for _ in range(trunc)]
    for (n, r2), c in series._terms.items():
        if n < trunc:
            layers[n][r2] = c
    return layers


def _pack_layers(layers, w):
    """(lo, [sum of c << w (r2 - lo)/2 per layer]), lo the least r2."""
    lo = min(min(layer) for layer in layers if layer)
    return lo, [sum(c << (w * ((r2 - lo) >> 1)) for r2, c in layer.items())
                for layer in layers]


def _joint_parity(f, g):
    if not f._terms:
        return g.parity
    if not g._terms:
        return f.parity
    if f.parity != g.parity:
        raise MixedParity("cannot combine parity %d with parity %d"
                          % (f.parity, g.parity))
    return f.parity


def make_series(entries, truncation, parity=None):
    """Build a canonical QYSeries from (n, r2, coeff) triples.

    Duplicate keys are summed and zero coefficients dropped.  The parity
    is inferred from the entries unless given explicitly as 0 or 1 (any
    other value raises SeriesError); entries of mixed parity raise
    MixedParity, out-of-range q-exponents raise BadExponent.
    """
    if truncation < 1:
        raise BadExponent("truncation must be positive")
    if parity not in (None, 0, 1):
        raise SeriesError("parity must be 0 or 1, not %r" % (parity,))
    terms = {}
    seen_parity = parity
    for n, r2, c in entries:
        if not 0 <= n < truncation:
            raise BadExponent("q-exponent %d outside [0, %d)" % (n, truncation))
        p = r2 & 1
        if seen_parity is None:
            seen_parity = p
        elif p != seen_parity:
            raise MixedParity("r2 = %d breaks declared parity %d" % (r2, seen_parity))
        key = (n, r2)
        v = terms.get(key, 0) + c
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)
    return QYSeries(terms, truncation, seen_parity if seen_parity is not None else 0)


def _laurent_exact_div(num, den):
    """Exact division of Laurent polynomials given as maps exponent -> int.

    Returns the quotient map or raises NonDivisible.  Both inputs may be
    Laurent (negative exponents); they are shifted to ordinary
    polynomials, divided by descending degree, and shifted back.
    """
    if not den:
        raise NonDivisible("division by the zero Laurent polynomial")
    if not num:
        return {}
    min_n = min(num)
    min_d = min(den)
    F = {e - min_n: c for e, c in num.items()}
    G = {e - min_d: c for e, c in den.items()}
    deg_g = max(G)
    lead = G[deg_g]
    quot = {}
    R = dict(F)
    while R:
        deg_r = max(R)
        if deg_r < deg_g:
            raise NonDivisible("remainder of y-degree %d survives" % deg_r)
        c, rem = divmod(R[deg_r], lead)
        if rem:
            raise NonDivisible("leading coefficient %d not divisible by %d"
                               % (R[deg_r], lead))
        e = deg_r - deg_g
        quot[e] = c
        for eg, cg in G.items():
            ne = e + eg
            nv = R.get(ne, 0) - c * cg
            if nv:
                R[ne] = nv
            else:
                R.pop(ne, None)
    shift = min_n - min_d
    return {e + shift: c for e, c in quot.items()}


def exact_divide(f, g):
    """The series h with g*h = f, computed order by order in q.

    The denominator's lowest q-layer must divide every step exactly;
    otherwise NonDivisible is raised.  If g starts at q^m, the quotient
    is known to truncation min(N_f, N_g) - m.
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
    if any(f_layers[n] for n in range(min(g_order, trunc))):
        raise NonDivisible("numerator has lower q-order than denominator")

    parity = (f.parity - g.parity) % 2
    h_layers = []
    terms = {}
    for k in range(out_trunc):
        residue = dict(f_layers[k + g_order])
        for i, h_i in enumerate(h_layers):
            g_part = g_layers[k + g_order - i]
            if not g_part or not h_i:
                continue
            for e1, c1 in h_i.items():
                for e2, c2 in g_part.items():
                    e = e1 + e2
                    v = residue.get(e, 0) - c1 * c2
                    if v:
                        residue[e] = v
                    else:
                        residue.pop(e, None)
        h_k = _laurent_exact_div(residue, lead)
        h_layers.append(h_k)
        for e, c in h_k.items():
            terms[(k, e)] = c
    result = QYSeries(terms, out_trunc, parity)
    if result._terms and any((r2 & 1) != result.parity for _, r2 in result._terms):
        raise MixedParity("quotient has inconsistent y-parity")
    return result


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


def series_from_json_dict(obj):
    entries = [(t["q"], t["y2"], int(t["c"])) for t in obj["terms"]]
    return make_series(entries, obj["truncation"], parity=obj["parity"])
