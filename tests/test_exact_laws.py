"""The exact estimator laws of ``exact_laws``, checked against the
library's one-row estimators on every atom sequence of a few draws."""

import math

import numpy as np
import pytest

from pfest import (
    SampleBatch,
    importance_sampling,
    make_bernoulli_pair,
    median_of_means,
    quantile_estimator,
    snis,
    within_multiplicative,
)
from pfest.estimators import ESTIMATORS, group_count

from exact_laws import quantile_fail, two_level_fail

SEQUENCE_PAIRS = {
    # mu = (1/2, 1/2): a group mean falls below the interval as often as
    # above it, so on this pair alone a wrong median index would pass
    "symmetric": make_bernoulli_pair(0.5, 0.25),
    "skewed": make_bernoulli_pair(0.2, 0.25),
}
# (eps, level) of the quantile estimate: both levels fail, at rank n of
# n, or the high one only, at rank 10 of 12 and 11 of 13
QUANTILE_CASES = [(0.2, 1.2), (0.9, 1.0)]


@pytest.mark.parametrize("n", [12, 13])
@pytest.mark.parametrize("name", list(SEQUENCE_PAIRS))
def test_the_laws_equal_the_failure_mass_of_every_sequence(name, n):
    pair, eps, g = SEQUENCE_PAIRS[name], 0.2, np.array([0.5, 2.0])
    z, truth = pair.z_true, pair.nu_mean(g)
    # k = 4 groups of 3 draws, with n - 12 draws left over
    mom_delta = 0.65
    assert group_count(mom_delta) == 4
    quantile_success = ESTIMATORS["quantile"].success
    sequences = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    weights = np.prod(pair.mu_weights[sequences], axis=1)
    failed = {key: [] for key in ["mom", "snis", "is", *QUANTILE_CASES]}
    for atoms, weight in zip(sequences, weights.tolist()):
        batch = SampleBatch(atoms=atoms, lambdas=pair.lambda_at(atoms), seed=0, n=n)
        for key, estimate, target in [
            ("mom", median_of_means(batch, mom_delta).estimate, z),
            ("snis", snis(batch, g).estimate, truth),
            ("is", importance_sampling(batch, g, pair.ratio_cache).estimate, truth),
        ]:
            if not within_multiplicative(estimate, target, eps):
                failed[key].append(weight)
        for q_eps, level in QUANTILE_CASES:
            estimate = quantile_estimator(batch, q_eps, level).estimate
            if not quantile_success(estimate, z, q_eps, level):
                failed[q_eps, level].append(-weight if estimate < z else weight)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)
    for method in ("mom", "snis", "is"):
        law = two_level_fail(pair, method, n, eps, mom_delta, g)
        assert 0.01 < law < 0.99, (method, law)
        assert math.fsum(failed[method]) == pytest.approx(law, abs=1e-12), method
    for q_eps, level in QUANTILE_CASES:
        low = math.fsum(-w for w in failed[q_eps, level] if w < 0)
        high = math.fsum(w for w in failed[q_eps, level] if w > 0)
        assert (low, high) == pytest.approx(
            quantile_fail(pair, n, q_eps, level), abs=1e-12
        ), (q_eps, level)
