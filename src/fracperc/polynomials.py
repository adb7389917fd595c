"""Polynomial maps R^M -> R^q: evaluation, Jacobians, interval enclosures,
and variety-cube measures via the coarea formula.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularityError
from .geometry import _level_lower, _row_chunks, _sobol_points

DEFAULT_MC_SAMPLES = 1 << 18
# The coarea kernel's band half-width is the cube side over this divisor, and
# a sampled J_q below SINGULAR_TOL near the variety is a SingularityError.
EPSILON_DIVISOR = 32.0
SINGULAR_TOL = 1e-6
# Gauss-Newton stops after NEWTON_MAX_ITER steps; a row has converged once
# max |P| < NEWTON_TOL.
NEWTON_MAX_ITER = 30
NEWTON_TOL = 1e-12


@dataclass(frozen=True)
class PolynomialMap:
    """Polynomial map given per component as a dict {multi_index: coeff}.

    A multi-index is a length-M tuple of nonnegative integer exponents.
    """

    ambient: int
    components: tuple  # tuple of dicts

    def __post_init__(self):
        comps = []
        for comp in self.components:
            clean = {}
            for alpha, c in comp.items():
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != self.ambient or any(a < 0 for a in alpha):
                    raise ConfigError(f"bad multi-index {alpha}")
                c = float(c)
                if c != 0.0:
                    clean[alpha] = clean.get(alpha, 0.0) + c
            comps.append(dict(clean))
        object.__setattr__(self, "components", tuple(comps))
        # Compiled once: per term, its component, coefficient and nonzero
        # factors ((axis, exponent), ...) in axis order; for the Jacobian, the
        # same per derivative term, listed term by term and axis by axis so
        # that every entry sums its terms in dict order.
        terms, dterms = [], []
        for ci, comp in enumerate(comps):
            for alpha, c in comp.items():
                factors = tuple((i, a) for i, a in enumerate(alpha) if a)
                terms.append((ci, c, factors))
                for i, a in factors:
                    dfactors = tuple(
                        (k, ak - (k == i)) for k, ak in factors if ak - (k == i)
                    )
                    dterms.append((ci, i, c * a, dfactors))
        object.__setattr__(self, "_terms", tuple(terms))
        object.__setattr__(self, "_dterms", tuple(dterms))
        # The Taylor expansion about a point lo: with x = lo + s, the term
        # c x^alpha is the sum over beta <= alpha of
        # c prod_i C(a_i, b_i) lo^(alpha - beta) s^beta.  _steps lists the
        # distinct beta as factors, in order of first use; _shifts, per
        # (term, beta), its component, beta's position, weight and the
        # factors of lo^(alpha - beta).
        steps, shifts = {}, []
        for ci, comp in enumerate(comps):
            for alpha, c in comp.items():
                for beta in itertools.product(*(range(a + 1) for a in alpha)):
                    w = c * math.prod(map(math.comb, alpha, beta))
                    rest = tuple((i, a - b) for i, (a, b) in enumerate(zip(alpha, beta)) if a > b)
                    shifts.append((ci, steps.setdefault(beta, len(steps)), w, rest))
        steps = tuple(tuple((i, b) for i, b in enumerate(beta) if b) for beta in steps)
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_shifts", tuple(shifts))

    @property
    def codomain(self):
        return len(self.components)

    def __call__(self, x):
        """Evaluate at points x of shape (..., M); returns (..., q)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.codomain,))
        term = np.empty(x.shape[:-1])
        for ci, c, factors in self._terms:
            out[..., ci] += _monomial(x, c, factors, term)
        return out

    def jacobian(self, x):
        """Analytic Jacobian at points x of shape (..., M); returns (..., q, M)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.codomain, self.ambient))
        term = np.empty(x.shape[:-1])
        for ci, i, c, factors in self._dterms:
            out[..., ci, i] += _monomial(x, c, factors, term)
        return out

    def taylor(self, lo):
        """Coefficients (..., q, T) of P expanded about the points lo (..., M):
        P(lo + s) = taylor(lo) @ monomials(s) in exact arithmetic.  Each
        entry sums its terms in one fixed order, so a point's coefficients
        do not depend on the points computed with it."""
        lo = np.asarray(lo, dtype=float)
        out = np.zeros(lo.shape[:-1] + (self.codomain, len(self._steps)))
        term = np.empty(lo.shape[:-1])
        for ci, t, w, factors in self._shifts:
            out[..., ci, t] += _monomial(lo, w, factors, term)
        return out

    def monomials(self, s):
        """The T monomials s^beta of the Taylor expansion at the points s
        (N, M), as (T, N)."""
        s = np.asarray(s, dtype=float)
        out = np.empty((len(self._steps), s.shape[0]))
        term = np.empty(s.shape[0])
        for t, factors in enumerate(self._steps):
            out[t] = _monomial(s, 1.0, factors, term)
        return out

    def interval(self, lo, hi):
        """Interval-arithmetic enclosure of the range over the box [lo, hi].

        lo, hi: arrays of shape (..., M).  Returns (enc_lo, enc_hi) each of
        shape (..., q).  Exact monomial intervals, summed; the enclosure is
        inclusion-monotone in the box.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        out_lo = np.zeros(lo.shape[:-1] + (self.codomain,))
        out_hi = np.zeros(lo.shape[:-1] + (self.codomain,))
        for ci, c, factors in self._terms:
            t_lo = t_hi = 1.0
            for n_done, (i, a) in enumerate(factors):
                p_lo, p_hi = _power_interval(lo[..., i], hi[..., i], a)
                if n_done == 0:
                    # 1 * [p_lo, p_hi], with p_lo <= p_hi
                    t_lo, t_hi = p_lo, p_hi
                    continue
                a1, a2 = t_lo * p_lo, t_lo * p_hi
                b1, b2 = t_hi * p_lo, t_hi * p_hi
                t_lo = np.minimum(np.minimum(a1, a2), np.minimum(b1, b2))
                t_hi = np.maximum(np.maximum(a1, a2), np.maximum(b1, b2))
            if c >= 0:
                out_lo[..., ci] += c * t_lo
                out_hi[..., ci] += c * t_hi
            else:
                out_lo[..., ci] += c * t_hi
                out_hi[..., ci] += c * t_lo
        return out_lo, out_hi

    def may_vanish(self, lo, hi):
        """True where 0 is inside the interval enclosure of every component."""
        enc_lo, enc_hi = self.interval(lo, hi)
        return np.all((enc_lo <= 0.0) & (enc_hi >= 0.0), axis=-1)


def _monomial(x, c, factors, term):
    """c * prod x_i^a over factors at points x of shape (..., M), written into
    the reused array `term` (shape x.shape[:-1]) and returned: the products of
    `t = c; t = t * x_i ** a` in factor order (c * v == v * c, and a
    coefficient of 1 is skipped).  A constant term is the scalar c."""
    if not factors:
        return c
    (i, a), rest = factors[0], factors[1:]
    if a == 1 and c != 1.0:
        np.multiply(x[..., i], c, out=term)
    else:
        if a == 1:
            np.copyto(term, x[..., i])
        elif a == 2:
            np.square(x[..., i], out=term)  # what x ** 2 computes
        else:
            np.power(x[..., i], a, out=term)
        if c != 1.0:
            term *= c
    for i, a in rest:
        term *= x[..., i] if a == 1 else x[..., i] ** a
    return term


def _power_interval(lo, hi, a):
    """Tight interval of x^a over [lo, hi] (elementwise)."""
    pl, ph = lo ** a, hi ** a
    if a % 2 == 1:
        return pl, ph
    low = np.where((lo <= 0.0) & (hi >= 0.0), 0.0, np.minimum(pl, ph))
    return low, np.maximum(pl, ph)


# ---------------------------------------------------------------------------
# Text format: "component multi_index coefficient" per line

def polynomial_to_text(poly):
    lines = [f"# ambient {poly.ambient} codomain {poly.codomain}"]
    for ci, comp in enumerate(poly.components):
        for alpha in sorted(comp):
            lines.append(f"{ci} {' '.join(str(a) for a in alpha)} {comp[alpha]!r}")
    return "\n".join(lines) + "\n"


def polynomial_from_text(text):
    ambient = None
    comps = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        toks = line.split()
        try:
            if line.startswith("#"):
                ambient = int(toks[2])
                comps = {i: {} for i in range(int(toks[4]))}
                continue
            ci = int(toks[0])
            coeff = float(toks[-1])
            alpha = tuple(int(t) for t in toks[1:-1])
        except (IndexError, ValueError):
            raise ConfigError(f"malformed polynomial line {line!r}")
        if ambient is None:
            ambient = len(alpha)
        comps.setdefault(ci, {})[alpha] = coeff
    if ambient is None:
        raise ConfigError("empty polynomial text")
    q = max(comps) + 1 if comps else 0
    return PolynomialMap(
        ambient=ambient, components=tuple(comps.get(i, {}) for i in range(q))
    )


# ---------------------------------------------------------------------------
# Variety measures

def _coarea_jacobian_factor(jac):
    """J_q(DP) = sqrt(det(DP DP^T)) for jac of shape (..., q, M).  For one
    equation (q = 1) it is the gradient's norm sqrt(g . g), taken in closed
    form: numpy's det of a 1 x 1 matrix goes through LU and a log/exp round
    trip and can be off by a few eps.  Two or more equations keep det."""
    if jac.shape[-2] == 1:
        g = jac[..., 0, :]
        return np.sqrt((g * g).sum(axis=-1))
    gram = jac @ np.swapaxes(jac, -1, -2)
    det = np.linalg.det(gram)
    return np.sqrt(np.maximum(det, 0.0))


@dataclass
class VarietyMeasureResult:
    estimate: float
    se: float
    epsilon: float
    n_samples: int
    min_jacobian: float


def _taylor_values(coef, steps):
    """P at every sample of every point, (K, q, N), from the Taylor
    coefficients coef (K, q, T) and the sample monomials steps (T, N): one
    matrix product of K*q rows.  gemm sums each row's products in one order
    whatever rows come with it (as OpenBLAS does), but numpy hands a lone
    row to gemv, which sums in another, so a lone row is doubled: a point's
    values do not depend on the points computed with it."""
    k, q, t = coef.shape
    flat = coef.reshape(k * q, t)
    if k * q == 1:
        flat = np.repeat(flat, 2, axis=0)
    return (flat @ steps)[: k * q].reshape(k, q, -1)


def _coarea_level(poly, idx, level, n_samples):
    """Smoothed-coarea estimates, standard errors and smallest sampled J_q
    (inf where no sample is near the variety) for the level cubes idx.

    Only the near test |P| < eps runs at every sample.  A cube's
    contributions c = J_q / (2 eps)^q are nonzero at its near samples only,
    so its moments are summed over those, in column order: the mean
    mu = sum(c) / N and the sample variance
    (sum (c - mu)^2 + (N - n_near) mu^2) / (N - 1), whose second term is the
    far samples' zeros.  Chunks are measured in row order, and the first
    chunk with a sampled J_q below SINGULAR_TOL raises SingularityError
    before any later chunk is evaluated."""
    m = poly.ambient
    q = poly.codomain
    if q >= m:
        raise ConfigError("variety codimension must be < ambient dimension")
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[1] != m:
        raise ConfigError("polynomial/cube ambient mismatch")
    if n_samples < 1:
        raise ConfigError("coarea measures need at least one sample per cube")
    side = 2.0 ** -level
    epsilon = side / EPSILON_DIVISOR
    lo = _level_lower(idx, level)
    scaled = side * _sobol_points(m, n_samples)
    steps = poly.monomials(scaled)
    k = idx.shape[0]
    mean = np.zeros(k)
    spread = np.zeros(k)
    min_jac = np.full(k, np.inf)
    # chunks are sized by the samples' M coordinates, though P takes q values
    # a sample: this bounds the near samples' arrays when every sample is near
    for rows in _row_chunks(k, m * n_samples):
        vals = _taylor_values(poly.taylor(lo[rows]), steps)
        near = np.all(np.abs(vals, out=vals) < epsilon, axis=1)
        # the near points in row order
        r, col = np.divmod(np.flatnonzero(near), n_samples)
        if r.size == 0:
            continue
        jfac = _coarea_jacobian_factor(poly.jacobian(lo[rows][r] + scaled[col]))
        counts = np.bincount(r, minlength=near.shape[0])
        met = np.flatnonzero(counts)
        start = (np.cumsum(counts) - counts)[met]
        low = np.minimum.reduceat(jfac, start)
        singular = low < SINGULAR_TOL
        if singular.any():
            raise SingularityError(
                f"differential nearly rank-deficient near the variety "
                f"(J_q = {low[singular][0]:.3e} < {SINGULAR_TOL:g})"
            )
        at = rows.start + met
        min_jac[at] = low
        c = jfac / (2.0 * epsilon) ** q
        mu = np.add.reduceat(c, start) / n_samples
        dev = c - np.repeat(mu, counts[met])
        mean[at] = mu
        spread[at] = np.add.reduceat(dev * dev, start) + (n_samples - counts[met]) * mu * mu
    # cubes without a near sample have mean and sd exactly 0, and so has
    # every sd of one sample, whose spread is 0
    sd = np.sqrt(spread / max(n_samples - 1, 1))
    vol = side ** m
    return vol * mean, vol * (sd / math.sqrt(n_samples)), min_jac


def variety_level_measure(poly, idx, level, n_samples=DEFAULT_MC_SAMPLES):
    """H^(M-q) measures of {P = 0} within the half-open level cubes idx (K, M).

    Smoothed-coarea estimator: H^(M-q)(V cap Q) is approximated by
    vol(Q) * mean over QMC points of J_q(DP)(x) * prod_k 1[|P_k(x)| < eps]/(2 eps),
    valid when DP has full rank q on the variety inside Q.  One unscrambled
    Sobol set is mapped into every cube, and eps is side/EPSILON_DIVISOR.
    The mean and sample standard deviation are summed over a cube's near
    samples only (the far ones add zeros), and J_q is the gradient norm in
    closed form for one equation.  On the tested inputs the values and
    standard errors agree with dense moments over every sample within 64 eps
    relative, with the same zeros; a standard error whose true spread is zero
    (the same J_q at every sample) comes out only as small as the rounding
    of the mean.  Returns
    (values, ses), one entry per row; a cube's value does not depend on the
    rows it is measured with.  Raises SingularityError when a sample point
    near the variety has a differential with J_q below SINGULAR_TOL.
    """
    est, se, _ = _coarea_level(poly, idx, level, n_samples)
    return est, se


def variety_cube_measure(poly, cube, n_samples=DEFAULT_MC_SAMPLES, with_detail=False):
    """H^(M-q) measure of {P = 0} within a half-open dyadic cube: a one-row
    call of `variety_level_measure`."""
    est, se, min_jac = _coarea_level(
        poly, np.array([cube.index], dtype=np.int64), cube.level, n_samples
    )
    if with_detail:
        return VarietyMeasureResult(
            estimate=float(est[0]),
            se=float(se[0]),
            epsilon=cube.side / EPSILON_DIVISOR,
            n_samples=n_samples,
            min_jacobian=(
                float(min_jac[0]) if np.isfinite(min_jac[0]) else float("nan")
            ),
        )
    return float(est[0])


def newton_refine_rows(poly, x0):
    """Gauss-Newton projection of every row of x0 (K, M) towards {P = 0}.

    Returns (x, converged) of shapes (K, M) and (K,).  Each row follows its
    own iteration: it has converged once max |P| < NEWTON_TOL; a non-finite
    step fails it where it stands; a step of norm below 1e-15, or running out
    of NEWTON_MAX_ITER iterations, ends it with the convergence test at the
    final point.  The step is -pinv(J) P with lstsq's cutoff
    max(M, q) * eps * sigma_max; for one equation (q = 1) it is taken in
    closed form, -g P / (g . g) with g the gradient row, which is that
    pseudo-inverse, and a zero gradient gives a zero step.  A row's result
    does not depend on the rows it is refined with.
    """
    x = np.array(x0, dtype=float)
    k = x.shape[0]
    converged = np.zeros(k, dtype=bool)
    final = np.zeros(k, dtype=bool)
    active = np.arange(k)
    for _ in range(NEWTON_MAX_ITER):
        if active.size == 0:
            break
        xa = x[active]
        f = poly(xa)
        done = np.max(np.abs(f), axis=1) < NEWTON_TOL
        converged[active[done]] = True
        active, xa, f = active[~done], xa[~done], f[~done]
        if active.size == 0:
            break
        jac = poly.jacobian(xa)
        if poly.codomain == 1:
            # the pseudo-inverse of a 1 x M row g is g^T / (g . g)
            g = jac[:, 0]
            gg = (g * g).sum(axis=1)
            scale = np.divide(f[:, 0], gg, out=np.zeros_like(gg), where=gg != 0)
            step = -g * scale[:, None]
        else:
            pinv = np.linalg.pinv(jac, rtol=None)
            step = -(pinv @ f[..., None])[..., 0]
        finite = np.all(np.isfinite(step), axis=1)
        active, xa, step = active[finite], xa[finite], step[finite]
        x[active] = xa + step
        stalled = np.linalg.norm(step, axis=1) < 1e-15
        final[active[stalled]] = True
        active = active[~stalled]
    final[active] = True
    if final.any():
        rows = np.flatnonzero(final)
        converged[rows] = np.max(np.abs(poly(x[rows])), axis=1) < NEWTON_TOL
    return x, converged


def newton_refine(poly, x0):
    """Gauss-Newton projection of x0 towards {P = 0}; returns (x, converged).
    A one-row call of `newton_refine_rows`."""
    x, conv = newton_refine_rows(poly, np.asarray(x0, dtype=float)[None, :])
    return x[0], bool(conv[0])
