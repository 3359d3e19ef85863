import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfest import (
    ClassificationError,
    FGenerator,
    InfeasiblePlanError,
    Regime,
    chi_squared,
    classify_regime,
    f_divergence,
    gamma_f,
    hellinger,
    kl,
    log_gamma_f,
    make_bernoulli_pair,
    make_pointmass_pair,
    make_random_pair,
    parse_f_spec,
    plan_n_fdiv,
    renyi,
    tv,
)

ALL_BUILTINS = [tv(), kl(), chi_squared(), hellinger(), renyi(1.5), renyi(3.0)]


def _vectorized(fn):
    def wrapped(t):
        t = np.asarray(t, dtype=np.float64)
        out = fn(t)
        return out if out.ndim else float(out)

    return wrapped


# t*log(t) continued by 0 below 1; growth inverse has the closed form
# gamma(m) = e^m.
TLOGT = FGenerator(
    "tlogt",
    _vectorized(lambda t: np.where(t >= 1.0, t * np.log(np.maximum(t, 1.0)), 0.0)),
    math.inf,
)
# f(t)/t = t^2 - 2 + 2/t: f(t) overflows from t of about 5.6e102, where
# f(t)/t is about 3.2e205, so the inverse is infinite from m = 1e206 on
CUBIC = FGenerator(
    "cubic", _vectorized(lambda t: t**3 - 3.0 * (t - 1.0) - 1.0), math.inf
)


def test_spot_values():
    assert tv()(3.0) == 1.0
    assert tv()(0.0) == 0.5
    assert chi_squared()(3.0) == 4.0
    assert hellinger()(4.0) == 1.0
    assert kl()(math.e) == pytest.approx(1.0, rel=1e-15)
    assert kl()(0.0) == 1.0


@pytest.mark.parametrize(
    "f", [kl(), chi_squared(), hellinger(), renyi(1.5), renyi(3.0)], ids=lambda f: f.name
)
def test_vanishes_flat_at_one(f):
    assert f(1.0) == 0.0
    h = 1e-6
    # f(1)=f'(1)=0 forces O(h^2) decay on both sides
    assert abs(f(1.0 + h)) < 5 * h**2
    assert abs(f(1.0 - h)) < 5 * h**2


def test_tv_kink_at_one():
    # |t-1|/2 has subgradient [-1/2, 1/2] at 1; zero qualifies
    assert tv()(1.0) == 0.0
    assert tv()(1.0 + 1e-6) == pytest.approx(0.5e-6)
    assert tv()(1.0 - 1e-6) == pytest.approx(0.5e-6)


def test_renyi_two_is_chi_squared():
    ts = np.geomspace(0.01, 1e6, 60)
    np.testing.assert_allclose(renyi(2.0)(ts), chi_squared()(ts), rtol=1e-9, atol=1e-9)


def test_renyi_requires_alpha_above_one():
    with pytest.raises(ValueError):
        renyi(1.0)
    with pytest.raises(ValueError):
        renyi(0.5)


@pytest.mark.parametrize("alpha", [52.0, 400.0, 1e40, 1e52, 1e60, 1.7e308])
def test_renyi_builds_for_large_alpha(alpha):
    # f overflows on the spot-check grid from alpha of about 52, and
    # (alpha - 1)^6 passes the float range from alpha of about 1e52;
    # RuntimeWarnings fail the suite
    f = renyi(alpha)
    assert f(1.0) == 0.0
    assert log_gamma_f(f, 0.0) == 0.0


def test_divergence_past_float_range_is_an_error_not_infinite(bern):
    # Bernoulli has no singular mass, so D is finite: 1.25^1e40 overflows
    with pytest.raises(ValueError, match="finite but passes the float range"):
        f_divergence(bern, renyi(1e40))
    assert math.isinf(f_divergence(make_pointmass_pair(0.3), renyi(1e40)))


def test_declared_slopes_at_infinity():
    assert tv().f_prime_at_inf == 0.5
    assert hellinger().f_prime_at_inf == 1.0
    assert math.isinf(kl().f_prime_at_inf)
    assert math.isinf(chi_squared().f_prime_at_inf)
    assert math.isinf(renyi(1.5).f_prime_at_inf)


@pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda f: f.name)
def test_divergence_zero_on_identity(f, identity_pair):
    assert f_divergence(identity_pair, f) == 0.0


def test_divergence_values_bernoulli(bern):
    assert f_divergence(bern, chi_squared()) == pytest.approx(0.0625, rel=1e-14)
    assert f_divergence(bern, tv()) == pytest.approx(0.125, rel=1e-14)
    assert f_divergence(bern, kl()) == pytest.approx(0.031583942401963216, rel=1e-13)
    assert f_divergence(bern, renyi(3.0)) == pytest.approx(0.1875, rel=1e-13)
    assert f_divergence(bern, hellinger()) == pytest.approx(
        0.015940607465666518, rel=1e-13
    )


def test_divergence_pointmass():
    pair = make_pointmass_pair(0.3)
    # finite slope at infinity: f(1-q) + q * f'(inf)
    assert f_divergence(pair, tv()) == pytest.approx(0.3, rel=1e-12)
    assert f_divergence(pair, hellinger()) == pytest.approx(
        (math.sqrt(0.7) - 1) ** 2 + 0.3, rel=1e-12
    )
    # infinite slope: any singular mass blows the divergence up
    assert math.isinf(f_divergence(pair, kl()))
    assert math.isinf(f_divergence(pair, chi_squared()))
    assert math.isinf(f_divergence(pair, renyi(3.0)))


@pytest.mark.parametrize("f", ALL_BUILTINS, ids=lambda f: f.name)
def test_divergence_nonnegative_random(f):
    for s in range(100):
        pair = make_random_pair(2 + s % 20, 5000 + s)
        assert f_divergence(pair, f) >= 0.0


def test_gamma_chi_squared_closed_form():
    # (t-1)^2 / t = 2  =>  t = 2 + sqrt(3)
    assert gamma_f(chi_squared(), 2.0) == pytest.approx(2 + math.sqrt(3), rel=1e-8)


def test_gamma_tlogt_closed_form():
    assert gamma_f(TLOGT, 3.0) == pytest.approx(math.exp(3), rel=1e-8)


def test_gamma_at_zero_is_one():
    for f in ALL_BUILTINS:
        assert gamma_f(f, 0.0) == 1.0


def test_gamma_tv_saturates():
    # f(t)/t climbs to 1/2 and never attains it
    assert gamma_f(tv(), 0.25) == pytest.approx(2.0, rel=1e-8)
    assert math.isinf(gamma_f(tv(), 0.51))
    assert math.isinf(gamma_f(hellinger(), 1.01))


def test_gamma_monotone():
    grid = np.linspace(0.0, 30.0, 100)
    for f in (kl(), chi_squared(), renyi(1.5)):
        vals = [gamma_f(f, m) for m in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "f", [kl(), chi_squared(), renyi(1.5), renyi(3.0)], ids=lambda f: f.name
)
@given(m=st.floats(0.01, 100.0))
def test_gamma_infimum_property(f, m):
    g = gamma_f(f, m)
    assert f(g) / g >= m - 1e-8
    below = g * (1 - 1e-6)
    if below > 1.0:
        assert f(below) / below < m


# Each built-in with the upper end of the m range where a search on f
# itself (the reference bisection below, or the generic inverse of the
# built-in's twin) is a trustworthy reference: f(t) evaluates without
# overflow, and linear generators stay clear of the asymptote f(t)/t
# only reaches through rounding. Below m = 1e-4, t - 1 is so small that
# the cancellation inside f(t) exceeds the 1e-9 agreement asked for.
REFERENCE_RANGES = [
    (tv(), 0.49),
    (kl(), 600.0),
    (chi_squared(), 1e4),
    (hellinger(), 0.98),
    (renyi(1.5), 1e4),
    (renyi(3.0), 1e4),
]


def _gen_id(value):
    return value.name if isinstance(value, FGenerator) else None


def _reference_bisection(f, m):
    """The smallest t >= 1 with f(t)/t >= m, by bracket doubling plus
    bisection to relative tolerance 1e-10, and inf when no t below the
    bracket cap 1e300 qualifies. Independent of the library's float
    search; trustworthy only where f(t) evaluates (REFERENCE_RANGES)."""

    def growth(t):
        with np.errstate(all="ignore"):
            v = float(f(t)) / t
        return v if not math.isnan(v) else math.inf

    if growth(1.0) >= m:
        return 1.0
    lo, hi = 1.0, 2.0
    while growth(hi) < m:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if growth(mid) >= m:
            hi = mid
        else:
            lo = mid
    return hi


def _generic_twin(f):
    # the same generator without its closed form, so gamma_f searches f
    return dataclasses.replace(f, log_growth_inverse=None)


GENERIC_TWINS = {f.name: _generic_twin(f) for f, _ in REFERENCE_RANGES}


@pytest.mark.parametrize("f, m_max", REFERENCE_RANGES, ids=_gen_id)
@given(data=st.data())
def test_log_gamma_matches_bisection(f, m_max, data):
    m = data.draw(st.floats(1e-4, m_max))
    reference = _reference_bisection(f, m)
    assert math.exp(log_gamma_f(f, m)) == pytest.approx(reference, rel=1e-9, abs=0)
    assert gamma_f(f, m) == pytest.approx(reference, rel=1e-9, abs=0)
    # the twin's generic inverse, a second search on f itself
    twin = gamma_f(GENERIC_TWINS[f.name], m)
    assert twin == pytest.approx(reference, rel=1e-9, abs=0)
    assert gamma_f(f, m) == pytest.approx(twin, rel=1e-9, abs=0)


@pytest.mark.parametrize(
    "f, m_max",
    [(TLOGT, 700.0), (CUBIC, 1e200)]
    + [(GENERIC_TWINS[f.name], m_max) for f, m_max in REFERENCE_RANGES],
    ids=_gen_id,
)
@given(data=st.data())
def test_generic_inverse_is_the_least_float(f, m_max, data):
    # the search runs over u = ln t: f(t)/t reaches m at t = e^u, the
    # float gamma_f returns, and misses it at the next float below u
    m = data.draw(st.floats(0.0, m_max))
    u = log_gamma_f(f, m)
    g = gamma_f(f, m)
    assert g == math.exp(u)
    assert f(g) / g >= m
    if u > 0.0:
        below = math.exp(math.nextafter(u, 0.0))
        assert f(below) / below < m


@pytest.mark.parametrize("m", [1e210, 1e300])
def test_generic_inverse_is_infinite_where_f_leaves_the_float_range(m):
    # f(t)/t tops out near 3.2e205 where f(t) overflows, below m
    assert math.isinf(log_gamma_f(CUBIC, m))
    assert math.isinf(gamma_f(CUBIC, m))
    with pytest.raises(InfeasiblePlanError):
        plan_n_fdiv(CUBIC, m * 0.25 / 6.0, 0.25, 0.1)


def test_generic_inverse_is_finite_up_to_the_largest_float():
    # t log t / t = ln t reaches 700 at e^700, about 1.0142e304
    assert log_gamma_f(TLOGT, 700.0) == pytest.approx(700.0, rel=1e-15)
    assert gamma_f(TLOGT, 700.0) == pytest.approx(1.0142320547350045e304, rel=1e-12)
    plan = plan_n_fdiv(TLOGT, 700.0 * 0.25 / 6.0, 0.25, 0.1)
    assert math.isfinite(plan.m) and plan.n > 10**304
    # past ln of the largest float the inverse is no float
    assert math.isinf(gamma_f(TLOGT, 710.0))


def _raising_cubic(t):
    # python floats raise OverflowError where numpy's read inf
    if np.ndim(t):
        return CUBIC.fn(t)
    t = float(t)
    return t**3 - 3.0 * (t - 1.0) - 1.0


def test_generic_inverse_reads_overflow_error_as_inf():
    raising = FGenerator("cubic-raising", _raising_cubic, math.inf)
    with pytest.raises(OverflowError):
        raising(1e200)
    for m in (0.0, 2.0, 1e10, 1e200, 1e210, 1e300):
        assert log_gamma_f(raising, m) == log_gamma_f(CUBIC, m)


@pytest.mark.parametrize("f, m_max", REFERENCE_RANGES, ids=_gen_id)
@given(data=st.data())
def test_log_gamma_infimum_property(f, m_max, data):
    m = data.draw(st.floats(1e-4, m_max))
    t = math.exp(log_gamma_f(f, m))
    # exp(u) and f(t) each round; a step up of 1e-12 relative (a few
    # thousand ulps) covers both, and 1e-9 below t must miss m
    up = t * (1.0 + 1e-12)
    assert f(up) / up >= m
    below = t * (1.0 - 1e-9)
    if below > 1.0:
        assert f(below) / below < m


@pytest.mark.parametrize(
    "f, curvature",
    [(kl(), 1.0), (chi_squared(), 2.0), (renyi(1.5), 0.75), (renyi(3.0), 6.0)],
    ids=_gen_id,
)
@given(m=st.floats(1e-300, 1e-12))
def test_log_gamma_small_m_follows_curvature(f, curvature, m):
    # f(t)/t = f''(1) u^2 / 2 + O(u^3) in u = ln t, so the inverse is
    # sqrt(2 m / f''(1)) to relative order u, far below where f(t)
    # itself can be evaluated
    u = log_gamma_f(f, m)
    assert u == pytest.approx(math.sqrt(2.0 * m / curvature), rel=1e-5)


def test_log_gamma_kl_past_float_range():
    # the KL inverse solves u - 1 + e^-u = m in u = ln t; at m = 1e4 the
    # root is about e^10001, far past the float range of t
    for m in (689.0, 3000.0, 1e4):
        u = log_gamma_f(kl(), m)
        assert math.isfinite(u)
        assert u - 1.0 + math.exp(-u) == pytest.approx(m, rel=1e-15)
    assert math.isinf(gamma_f(kl(), 1e4))
    assert gamma_f(kl(), 689.0) == pytest.approx(math.exp(log_gamma_f(kl(), 689.0)))


@pytest.mark.parametrize("m", [1e-2, 0.5, 1e4, 1e10, 1e300])
@pytest.mark.parametrize("alpha", [1e40, 1e60, 1e160])
def test_renyi_log_inverse_is_the_least_float_for_large_alpha(alpha, m):
    # growth(u) = e^((alpha-1)u) + (alpha-1) e^-u - alpha, in the form
    # the closed-form inverse evaluates at (alpha-1) u >= 1e-3. From
    # alpha of about 1e40 Newton's far start lies more steps above the
    # root than the step cap allows, and from about 1e154 the curvature
    # passes the float range
    a1 = alpha - 1.0

    def growth(u):
        return math.expm1(a1 * u) + a1 * math.expm1(-u)

    u = log_gamma_f(renyi(alpha), m)
    assert growth(u) >= m
    assert growth(math.nextafter(u, 0.0)) < m
    # the root in v = (alpha-1) u solves e^v - 1 - v = m, as alpha -> inf
    v = a1 * u
    assert math.expm1(v) - v == pytest.approx(m, rel=1e-9)


def test_log_gamma_linear_generators_infinite_past_slope():
    assert math.isinf(log_gamma_f(tv(), 0.5))
    assert math.isinf(log_gamma_f(hellinger(), 1.0))
    assert log_gamma_f(tv(), 0.25) == pytest.approx(math.log(2.0), rel=1e-15)
    for f in ALL_BUILTINS:
        assert log_gamma_f(f, 0.0) == 0.0
    with pytest.raises(ValueError):
        log_gamma_f(kl(), math.inf)
    with pytest.raises(ValueError):
        log_gamma_f(kl(), -1.0)


def test_user_generator_named_like_builtin_gets_the_generic_inverse():
    # the closed form belongs to the factory, not to the name
    impostor = FGenerator("kl", TLOGT.fn, math.inf)
    assert gamma_f(impostor, 3.0) == pytest.approx(math.exp(3.0), rel=1e-8)
    assert log_gamma_f(impostor, 3.0) == pytest.approx(3.0, rel=1e-8)


def test_builtin_generators_are_built_once():
    assert parse_f_spec("kl") is kl()
    assert parse_f_spec("tv") is tv()
    assert parse_f_spec("renyi:alpha=3") is renyi(3.0)
    assert renyi(1.5) is not renyi(3.0)


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_renyi_gamma_growth_rate(alpha):
    # gamma scales like m^(1/(alpha-1)) once the polynomial term leads
    expected = 100.0 ** (1.0 / (alpha - 1.0))
    for m in (10.0, 100.0):
        ratio = gamma_f(renyi(alpha), 100 * m) / gamma_f(renyi(alpha), m)
        assert 0.5 * expected <= ratio <= 2.0 * expected


def test_classify_builtin_tags():
    assert classify_regime(tv()) is Regime.LINEAR
    assert classify_regime(hellinger()) is Regime.LINEAR
    assert classify_regime(kl()) is Regime.SUBQUADRATIC_SUPERLINEAR
    assert classify_regime(chi_squared()) is Regime.SUBQUADRATIC_SUPERLINEAR
    assert classify_regime(renyi(1.5)) is Regime.SUBQUADRATIC_SUPERLINEAR
    assert classify_regime(renyi(2.0)) is Regime.SUBQUADRATIC_SUPERLINEAR
    assert classify_regime(renyi(3.0)) is Regime.SUPERQUADRATIC


def test_classify_probes_undeclared_generators():
    assert classify_regime(TLOGT) is Regime.SUBQUADRATIC_SUPERLINEAR
    linear = FGenerator("absdiff", _vectorized(lambda t: 0.5 * np.abs(t - 1.0)), 0.5)
    assert classify_regime(linear) is Regime.LINEAR
    assert classify_regime(CUBIC) is Regime.SUPERQUADRATIC


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_classify_overflow_raises():
    exp_gen = FGenerator(
        "expgrow", _vectorized(lambda t: np.exp(t - 1.0) - t), math.inf
    )
    with pytest.raises(ClassificationError):
        classify_regime(exp_gen)


def test_builtin_c_thresholds():
    assert tv().c_threshold == 2.0
    assert hellinger().c_threshold == 4.0
    assert kl().c_threshold == 1.0
    assert chi_squared().c_threshold == 1.0
    assert renyi(1.5).c_threshold == 1.0


def test_constructor_rejects_bad_generators():
    with pytest.raises(ValueError, match="must be 0"):
        FGenerator("shifted", _vectorized(lambda t: (t - 1.0) ** 2 + 0.1), math.inf)
    with pytest.raises(ValueError):
        # concave on [0, inf)
        FGenerator("sqrtish", _vectorized(lambda t: np.sqrt(np.abs(t - 1.0))), math.inf)


def test_parse_f_spec():
    assert parse_f_spec("tv").name == "tv"
    assert parse_f_spec("kl").name == "kl"
    assert parse_f_spec("chi2").name == "chi2"
    assert parse_f_spec("hellinger").name == "hellinger"
    r = parse_f_spec("renyi:alpha=2.5")
    assert r.name == "renyi(alpha=2.5)"
    assert r(2.0) == pytest.approx(2.0**2.5 - 2.5 - 1.0, rel=1e-12)


@pytest.mark.parametrize("spec", ["renyi", "renyi:beta=2", "renyi:alpha=", "nope", ""])
def test_parse_f_spec_rejects(spec):
    with pytest.raises(ValueError):
        parse_f_spec(spec)
