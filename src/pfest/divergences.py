"""Convex divergence generators and the quantities planners need.

A generator is a convex function f with f(1) = 0 and subgradient 0 at
1, evaluated elementwise on density-ratio arrays. The divergence of a
pair is the proposal expectation of f(ratio) plus the singular target
mass weighted by the slope of f at infinity. Sample-size planning only
ever touches f through two handles: the growth inverse (smallest t with
f(t)/t >= m) and the growth regime of f at large arguments.

The built-in generators carry their growth inverse in closed form, in
log space, so exp(KL)-scale inverses stay representable; user
generators fall back to bracket doubling plus bisection.
"""

from __future__ import annotations

import enum
import functools
import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distributions import DistributionPair, ordered_dot
from .errors import ClassificationError

# Relative tolerance of the growth-inverse bisection.
GAMMA_REL_TOL = 1e-10
# Bracket cap: beyond this the inverse is reported as infinite.
GAMMA_T_MAX = 1e300
# ln of the largest float: growth inverses past it are inf as floats.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# Newton steps allowed to the closed-form log inverses (KL, Renyi); a
# start within a constant factor of the root needs fewer than ten.
NEWTON_MAX_STEPS = 100
# Probe points and multiplicative sensitivity for regime classification.
REGIME_PROBES = (1e3, 1e6, 1e9)
REGIME_GROWTH_FACTOR = 1.01


class Regime(enum.Enum):
    """Growth class of f(t) as t grows.

    LINEAR means f(t)/t stays bounded (estimation from the divergence
    alone is infeasible below a threshold accuracy);
    SUPERQUADRATIC means f(t)/t^2 diverges (the 1/eps^2 term of the
    divergence planner dominates); everything in between is
    SUBQUADRATIC_SUPERLINEAR, where the growth-inverse term dominates.
    """

    LINEAR = "linear"
    SUBQUADRATIC_SUPERLINEAR = "subquadratic_superlinear"
    SUPERQUADRATIC = "superquadratic"


@dataclass(frozen=True)
class FGenerator:
    """Named convex generator with the metadata planners consume.

    ``fn`` must accept scalars and numpy arrays. ``regime`` may be None
    for user-supplied generators, in which case ``classify_regime``
    probes the growth numerically. ``c_threshold`` is the technical
    constant of the second-moment planner term; built-ins ship curated
    values, and other generators get 1.0 unless they set their own
    (``estimate_c_threshold`` scans one from ``fn`` on request).
    ``log_growth_inverse`` maps m >= 0 to ln gamma_f(m) in closed form;
    the built-in factories attach one, and generators without it are
    inverted by bisection.
    """

    name: str
    fn: Callable
    f_prime_at_inf: float
    regime: Optional[Regime] = None
    c_threshold: float = 1.0
    log_growth_inverse: Optional[Callable[[float], float]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        _spot_check_generator(self.fn, self.name)

    def __call__(self, t):
        return self.fn(t)


def _spot_check_generator(f: Callable, name: str) -> None:
    """Reject functions that visibly violate the generator contract.

    Checks f(1) = 0, nonnegativity, convexity on random secants, and
    monotone f(t)/t on a geometric grid. Spot checks only: a fixed
    seed keeps them deterministic and cheap.
    """
    v1 = float(f(1.0))
    if not abs(v1) <= 1e-12:
        raise ValueError(f"{name}: f(1) = {v1!r}, must be 0")
    gen = np.random.Generator(np.random.Philox(key=0xF00D))
    x = gen.uniform(0.0, 50.0, 1000)
    y = gen.uniform(0.0, 50.0, 1000)
    th = gen.uniform(0.0, 1.0, 1000)
    with np.errstate(all="ignore"):
        mid = np.asarray(f(th * x + (1 - th) * y), dtype=np.float64)
        hull = th * np.asarray(f(x), dtype=np.float64) + (1 - th) * np.asarray(
            f(y), dtype=np.float64
        )
        if np.any(mid > hull + 1e-9 * (1.0 + np.abs(hull))):
            raise ValueError(f"{name}: convexity spot check failed")
        grid = np.geomspace(1.0, 1e6, 200)
        vals = np.asarray(f(grid), dtype=np.float64)
        # values past the float range read inf, and inf - inf is nan,
        # which no check below rejects
        growth = vals / grid
        falls = np.diff(growth) < -1e-9 * (1.0 + np.abs(growth[:-1]))
    if np.any(vals < -1e-12):
        raise ValueError(f"{name}: f must be nonnegative")
    if np.any(falls):
        raise ValueError(f"{name}: f(t)/t must be non-decreasing on [1, inf)")


def _tv_fn(t):
    t = np.asarray(t, dtype=np.float64)
    out = 0.5 * np.abs(t - 1.0)
    return out if out.ndim else float(out)


def _kl_fn(t):
    t = np.asarray(t, dtype=np.float64)
    safe = np.where(t > 0, t, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(t > 0, t * np.log(safe), 0.0) - t + 1.0
    return out if out.ndim else float(out)


def _chi2_fn(t):
    t = np.asarray(t, dtype=np.float64)
    out = (t - 1.0) ** 2
    return out if out.ndim else float(out)


def _hellinger_fn(t):
    t = np.asarray(t, dtype=np.float64)
    out = (np.sqrt(t) - 1.0) ** 2
    return out if out.ndim else float(out)


def _log_gamma_tv(m: float) -> float:
    # f(t)/t = 1/2 - 1/(2t) for t >= 1
    return -math.log1p(-2.0 * m) if m < 0.5 else math.inf


def _log_gamma_hellinger(m: float) -> float:
    # f(t)/t = (1 - 1/sqrt(t))^2 for t >= 1
    return -2.0 * math.log1p(-math.sqrt(m)) if m < 1.0 else math.inf


def _log_gamma_chi2(m: float) -> float:
    # larger root of t^2 - (2 + m) t + 1 = 0; sqrt(m) * sqrt(m + 4)
    # stands in for sqrt(m^2 + 4m), which overflows first
    return math.log1p(0.5 * m + 0.5 * math.sqrt(m) * math.sqrt(m + 4.0))


# Below this u = ln t, growth is summed as its Taylor series through
# u^6: e^u - 1 style differences cancel there, and the first omitted
# term is below 1e-18 of the sum.
SERIES_U_MAX = 1e-3


def _power_series(coeffs: tuple, u: float) -> float:
    """sum of coeffs[j] * u^(j+2), by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc * u * u


def _newton_log_inverse(
    m: float, growth: Callable, slope: Callable, far_start: float, curvature: float
) -> float:
    """Smallest u >= 0 with growth(u) >= m, where growth(u) = f(e^u)/e^u
    is convex and increasing, with growth(0) = 0 and growth'' >= 2 *
    curvature on [0, 1].

    Newton's method from a start above the root decreases monotonically
    to it, so the loop ends once a step no longer lowers u. For small m
    the start sqrt(m / curvature) is above the root and within a
    constant factor of it; from the far start alone Newton would only
    halve u per step there. Where m / curvature underflows to 0 (the
    curvature past the float range, say) only the far start is used.
    ``_least_float`` then settles the last float from where Newton
    ended: a few floats off the root after a converged run, far above it
    when NEWTON_MAX_STEPS ran out or a slope past the float range left
    Newton stuck.
    """
    if m == 0.0:
        return 0.0
    near_start = math.sqrt(m / curvature)
    u = min(far_start, near_start) if 0.0 < near_start <= 1.0 else far_start
    for _ in range(NEWTON_MAX_STEPS):
        excess = growth(u) - m
        if not excess > 0.0:
            break
        nxt = u - excess / slope(u)
        if not nxt < u:
            break
        u = nxt

    def meets(v: float) -> bool:
        try:
            return growth(v) >= m
        except OverflowError:  # growth past the float range exceeds m
            return True

    return _least_float(meets, u)


_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")


def _least_float(meets: Callable[[float], bool], u: float) -> float:
    """The float v >= 0 with meets(v) whose next float down fails it,
    searched from u >= 0 in the order of the floats' bit patterns: steps
    of 1, 2, 4, ... floats bracket it, and a bisection closes the
    bracket. For an increasing predicate with meets(0) false that is
    the least float meeting it, found in a few calls near u and in at
    most about 130 from anywhere."""
    bits, top = _bits(u), _bits(math.inf)
    step = 1
    if meets(u):
        hi = bits
        lo = max(hi - step, 0)
        while meets(_from_bits(lo)):
            hi, step = lo, 2 * step
            lo = max(hi - step, 0)
    else:
        lo = bits
        hi = min(lo + step, top)
        while not meets(_from_bits(hi)):
            lo, step = hi, 2 * step
            hi = min(lo + step, top)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(_from_bits(mid)):
            hi = mid
        else:
            lo = mid
    return _from_bits(hi)


def _bits(x: float) -> int:
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _from_bits(bits: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(bits))[0]


_KL_SERIES = tuple((-1.0) ** k / math.factorial(k) for k in range(2, 7))


def _kl_growth(u: float) -> float:
    # u - 1 + e^-u
    if u < SERIES_U_MAX:
        return _power_series(_KL_SERIES, u)
    return u + math.expm1(-u)


def _log_gamma_kl(m: float) -> float:
    # growth exceeds m by e^-(m+1) at the far start u = m + 1
    return _newton_log_inverse(
        m, _kl_growth, lambda u: -math.expm1(-u), m + 1.0, 0.5 / math.e
    )


def _log_gamma_renyi(alpha: float) -> Callable[[float], float]:
    a1 = alpha - 1.0
    # the series in v = (alpha-1) u: sum of (v^k + (alpha-1) (-u)^k) / k!,
    # whose coefficients stay in the float range for every alpha
    series = tuple(
        (1.0 - (-1.0 / a1) ** (k - 1)) / math.factorial(k) for k in range(2, 7)
    )

    def growth(u: float) -> float:
        # e^((alpha-1)u) + (alpha-1) e^-u - alpha
        if max(u, a1 * u) < SERIES_U_MAX:
            return _power_series(series, a1 * u)
        return math.expm1(a1 * u) + a1 * math.expm1(-u)

    def slope(u: float) -> float:
        return a1 * (math.expm1(a1 * u) - math.expm1(-u))

    # growth exceeds m by (alpha-1) e^-u at the far start
    # u = ln(m + alpha)/(alpha-1)
    return lambda m: _newton_log_inverse(
        m, growth, slope, math.log(m + alpha) / a1, 0.5 * a1 * (a1 + 1.0 / math.e)
    )


@functools.cache
def tv() -> FGenerator:
    """Total variation: f(t) = |t - 1| / 2, slope 1/2 at infinity.

    f(t)/t^2 peaks at t = 2, hence the threshold constant 2."""
    return FGenerator(
        "tv", _tv_fn, 0.5, Regime.LINEAR, c_threshold=2.0,
        log_growth_inverse=_log_gamma_tv,
    )


@functools.cache
def kl() -> FGenerator:
    """Kullback-Leibler with the affine shift that zeroes the value and
    slope at 1: f(t) = t*log(t) - t + 1."""
    return FGenerator(
        "kl", _kl_fn, math.inf, Regime.SUBQUADRATIC_SUPERLINEAR, c_threshold=1.0,
        log_growth_inverse=_log_gamma_kl,
    )


@functools.cache
def chi_squared() -> FGenerator:
    return FGenerator(
        "chi2", _chi2_fn, math.inf, Regime.SUBQUADRATIC_SUPERLINEAR, c_threshold=1.0,
        log_growth_inverse=_log_gamma_chi2,
    )


@functools.cache
def hellinger() -> FGenerator:
    """Squared Hellinger: f(t) = (sqrt(t) - 1)^2, slope 1 at infinity.
    f(t)/t^2 last increases at t = 4."""
    return FGenerator(
        "hellinger", _hellinger_fn, 1.0, Regime.LINEAR, c_threshold=4.0,
        log_growth_inverse=_log_gamma_hellinger,
    )


def renyi(alpha: float) -> FGenerator:
    """Power generator t^alpha - alpha*(t - 1) - 1 for alpha > 1.

    The affine correction zeroes the value and slope at 1 without
    changing the divergence ordering. Superquadratic exactly when
    alpha > 2 (alpha = 2 reproduces chi-squared).
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ValueError(f"alpha must be > 1, got {alpha}")
    return _renyi(alpha)


# Bounded, unlike the argument-free factories: callers choose alpha.
@functools.lru_cache(maxsize=64)
def _renyi(alpha: float) -> FGenerator:
    def fn(t, _a=alpha):
        t = np.asarray(t, dtype=np.float64)
        out = t**_a - _a * (t - 1.0) - 1.0
        return out if out.ndim else float(out)

    regime = Regime.SUPERQUADRATIC if alpha > 2 else Regime.SUBQUADRATIC_SUPERLINEAR
    # The second-moment constant is treated as 1 for the whole family.
    return FGenerator(
        f"renyi(alpha={alpha:g})", fn, math.inf, regime, c_threshold=1.0,
        log_growth_inverse=_log_gamma_renyi(alpha),
    )


_BUILTIN_FACTORIES = {
    "tv": tv,
    "kl": kl,
    "chi2": chi_squared,
    "hellinger": hellinger,
}


def parse_f_spec(spec: str) -> FGenerator:
    """Build a generator from its CLI spelling.

    Plain names: tv, kl, chi2, hellinger. Parameterized:
    renyi:alpha=<value>.
    """
    spec = spec.strip()
    if spec in _BUILTIN_FACTORIES:
        return _BUILTIN_FACTORIES[spec]()
    if spec.startswith("renyi:"):
        params = spec[len("renyi:"):]
        key, _, value = params.partition("=")
        if key.strip() != "alpha" or not value:
            raise ValueError(f"renyi spec must be 'renyi:alpha=<value>', got {spec!r}")
        try:
            return renyi(float(value))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad renyi alpha in {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown generator {spec!r}; expected tv, kl, chi2, hellinger, "
        "or renyi:alpha=<value>"
    )


def f_divergence(pair: DistributionPair, f: FGenerator) -> float:
    """D_f(nu || mu) on a finite pair, computed exactly.

    Sum of mu_i * f(ratio_i) over atoms with proposal mass, plus
    singular_mass * f'(inf) for target mass the proposal cannot see.
    Returns inf when that slope is infinite and singular mass is
    present; raises ValueError when the divergence is finite but its
    sum passes the float range.
    """
    if pair.singular_mass > 0 and math.isinf(f.f_prime_at_inf):
        return math.inf
    pos = pair.mu_weights > 0
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f(pair.ratio_cache[pos]), dtype=np.float64)
    total = ordered_dot(pair.mu_weights[pos], vals)
    if not math.isfinite(total):
        raise ValueError(
            f"{f.name}: the divergence is finite but passes the float range "
            "on this pair"
        )
    if pair.singular_mass > 0:
        total += pair.singular_mass * f.f_prime_at_inf
    return total


def _check_growth_argument(m: float) -> float:
    m = float(m)
    if m < 0 or not math.isfinite(m):
        raise ValueError(f"m must be finite and >= 0, got {m}")
    return m


def _bisect_growth_inverse(f: FGenerator, m: float) -> float:
    """Bracket doubling plus bisection to relative tolerance 1e-10; inf
    when no t below the bracket cap qualifies. The route for generators
    without a closed-form inverse."""

    def growth(t: float) -> float:
        with np.errstate(all="ignore"):
            v = float(f(t)) / t
        return v if not math.isnan(v) else math.inf

    if growth(1.0) >= m:
        return 1.0
    lo, hi = 1.0, 2.0
    while growth(hi) < m:
        lo = hi
        hi *= 2.0
        if hi > GAMMA_T_MAX:
            return math.inf
    while (hi - lo) > GAMMA_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if growth(mid) >= m:
            hi = mid
        else:
            lo = mid
    return hi


def log_gamma_f(f: FGenerator, m: float) -> float:
    """ln of the growth inverse: ln of the smallest t >= 1 with
    f(t)/t >= m.

    Exact (closed form or monotone Newton) for generators that carry a
    ``log_growth_inverse``, and finite wherever the inverse exists, far
    past the float range of t itself. Other generators go through the
    bisection of ``gamma_f``. inf means f(t)/t never reaches m: linear
    generators at or past their slope at infinity.
    """
    m = _check_growth_argument(m)
    if f.log_growth_inverse is None:
        return math.log(_bisect_growth_inverse(f, m))
    return f.log_growth_inverse(m)


def gamma_f(f: FGenerator, m: float) -> float:
    """Growth inverse: smallest t >= 1 with f(t)/t >= m.

    Monotone because f(t)/t is non-decreasing on [1, inf). For the
    built-ins this is exp(log_gamma_f), exact to rounding, and inf only
    when the inverse is infinite or exceeds the float range (ln t above
    about 709.78); use ``log_gamma_f`` past that. Generators without a
    closed form are resolved by bracket doubling plus bisection to
    relative tolerance 1e-10, with inf past the bracket cap 1e300.
    """
    m = _check_growth_argument(m)
    if f.log_growth_inverse is None:
        return _bisect_growth_inverse(f, m)
    return exp_or_inf(f.log_growth_inverse(m))


def exp_or_inf(u: float) -> float:
    """e^u as a float, inf once it passes the float range."""
    return math.exp(u) if u <= LOG_FLOAT_MAX else math.inf


def classify_regime(f: FGenerator) -> Regime:
    """Declared regime if the generator ships one, else a numeric probe.

    The probe compares f(t)/t and f(t)/t^2 across three decade-spaced
    points; growth below 1% per jump counts as flat.
    """
    if f.regime is not None:
        return f.regime
    t = np.asarray(REGIME_PROBES, dtype=np.float64)
    with np.errstate(all="ignore"):
        vals = np.asarray(f(t), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ClassificationError(
            f"{f.name}: non-finite values at probe points {REGIME_PROBES}"
        )
    lin = vals / t
    quad = vals / t**2
    lin_ratios = lin[1:] / lin[:-1]
    quad_ratios = quad[1:] / quad[:-1]
    if np.all(lin_ratios < REGIME_GROWTH_FACTOR):
        return Regime.LINEAR
    if np.all(quad_ratios > REGIME_GROWTH_FACTOR):
        return Regime.SUPERQUADRATIC
    return Regime.SUBQUADRATIC_SUPERLINEAR


def estimate_c_threshold(f: FGenerator, t_max: float = 1e9, points: int = 400) -> float:
    """Scanned second-moment threshold for user generators: the last
    point on a geometric grid where f(t)/t^2 still increases.

    For generators whose f(t)/t^2 keeps increasing the scan returns the
    grid cap; planners fed such a value will produce enormous (but
    honest) sample sizes.
    """
    grid = np.geomspace(1.0, t_max, points)
    with np.errstate(all="ignore"):
        g = np.asarray(f(grid), dtype=np.float64) / grid**2
    rising = g[1:] > g[:-1] * (1.0 + 1e-12)
    if not rising.any():
        return 1.0
    return float(grid[1:][rising][-1])
