"""An empirical lower bound on the privacy of the perturbed sum, per weight.

The paper's guarantee is per rating: a rating of weight w gets budget
w * eps. With U fixed, item j's factor is released through 2 b_j - x_j
alone (`test_fixed_u_releases_v_through_2b_minus_x_alone`), where b_j sums
w_ij r_ij u_i over its raters and x_j is the item's noise total. So the
audit releases, for an item with 11 raters, K = 10, delta = 4 and
u_0 = (1/sqrt(K), ..., 1/sqrt(K)),

    2 * w * r * u_0 + x_j,

with x_j the item total of the repo's own `build_noise_plan` and
`item_totals`, and r user 0's rating, which the two neighbours set to 1 or
to 5. The releases come in two forms:

- seed per plan: each run is item 0 of its own one-item plan, drawn from
  its own seed;
- one plan: a case draws one plan over 2n items, and item j is one run.
  User 0 rates items 0 to n - 1 with the low neighbour's 1 and items n to
  2n - 1 with the high neighbour's 5. Item j's total depends only on the
  keys (j, 0) of h_j and (j, i) of its shares, so the items of one plan
  are independent runs, as separately seeded plans are;
  `test_one_plan_releases_match_seed_per_plan_releases` tests that premise.

A score says which neighbour a release came from. Its threshold is fitted
on the first half of each neighbour's runs; on the other half, one-sided
95% Clopper-Pearson bounds give a true-positive rate TPR_lo and a
false-positive rate FPR_hi, and eps_lb = log(TPR_lo / FPR_hi) is a lower
bound on the privacy loss that holds with about 90% confidence. With 4,000
held-out runs per neighbour the highest bound it can certify is about
log(4000 / 3) = 7.2.

- The Laplace score is the likelihood ratio of an adversary who does not
  know h_j: to it each coordinate of x_j is Laplace of scale
  b = 2 sqrt(K) delta / eps, and eps_lb must stay within w * eps.
- The h-aware score is the likelihood ratio given the plan's h_j, which the
  recommender draws: given h_j, coordinate k of x_j is N(0, 2 h_jk b^2).
  Against it the pure w * eps bound fails (ROADMAP, carried finding
  "Against a recommender that knows h_j, the noise is Gaussian and the
  pure w * eps bound fails"), so its cases are strict xfails.

The power cases break the mechanism on the (1, 1) one-plan data, and the
Laplace score must flag each break with an eps_lb past the bound claimed;
one it cannot flag stands as a strict xfail that names the lack of power.

The seeds, the item count and the KS floor were fixed before the first
run and are never changed to make a case pass or fail. The plans are drawn
on a compiled build, about 0.1 ms per one-item plan and about 0.1 s per
one-plan case; the file skips only where no C compiler exists.
"""

import functools
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy import stats

from hdpmf.data import RatingDataset
from hdpmf.privacy import build_noise_plan

K = 10
RATERS = 11
NEIGHBOURS = (1.0, 5.0)  # user 0's rating; a release of the second is a positive
# each neighbour's plan seeds, one per run; the first half fits the threshold
SEEDS = {1.0: range(0, 8_000), 5.0: range(8_000, 16_000)}
CONFIDENCE = 0.95
CASES = [pytest.param(1.0, 1.0, id="eps-1-w-1"), pytest.param(16.0, 0.1, id="eps-16-w-0.1")]
H_AWARE_FINDING = (
    "ROADMAP carried finding: against a recommender that knows h_j, the noise is Gaussian "
    "and the pure w * eps bound fails"
)

N = 8_000  # items per neighbour in a one-plan case; the first half fits the threshold
# each one-plan case's plan seed, outside SEEDS so that no one-plan release
# shares its keys with a seed-per-plan release
PLAN_SEEDS = {(1.0, 1.0): 16_000, (16.0, 0.1): 16_001, (4.0, 0.1): 16_002}
ONE_PLAN_CASES = [
    pytest.param(1.0, 1.0, id="eps-1-w-1"),
    pytest.param(16.0, 0.1, id="eps-16-w-0.1"),
    pytest.param(4.0, 0.1, id="eps-4-w-0.1"),
]
KS_FLOOR = 0.001  # each of the 2 x K two-sample KS p-values of the premise test

# one item rated by users 0-10; the ratings do not enter the plan
ITEM = RatingDataset(np.arange(RATERS), np.zeros(RATERS, dtype=np.int64), np.full(RATERS, 3.0), RATERS, 1, 1.0, 5.0)
# 2N items rated by users 0-10, user 0's rating the low neighbour's on the
# first N and the high one's on the rest
PLAN_ITEMS = RatingDataset(
    np.repeat(np.arange(RATERS), 2 * N),
    np.tile(np.arange(2 * N), RATERS),
    np.concatenate([np.repeat(NEIGHBOURS, N), np.full((RATERS - 1) * 2 * N, 3.0)]),
    RATERS, 2 * N, 1.0, 5.0,
)
U0 = np.full(K, 1.0 / math.sqrt(K))


class Audit(NamedTuple):
    eps_lb: dict[str, float]  # per score
    releases: dict[float, np.ndarray]  # per neighbour, one row per run


def _clopper_pearson(successes, trials):
    """One-sided CONFIDENCE bounds on a binomial rate: (lower, upper)."""
    tail = 1.0 - CONFIDENCE
    k = np.asarray(successes, dtype=float)
    lower = np.where(k > 0, stats.beta.ppf(tail, np.maximum(k, 1), trials - k + 1), 0.0)
    upper = np.where(k < trials, stats.beta.ppf(CONFIDENCE, k + 1, np.maximum(trials - k, 1)), 1.0)
    return lower, upper


def _eps_lb(positives, negatives, threshold):
    """log(TPR_lo / FPR_hi) for the test `score > threshold`, elementwise
    over an array of thresholds."""
    tp = len(positives) - np.searchsorted(np.sort(positives), threshold, side="right")
    fp = len(negatives) - np.searchsorted(np.sort(negatives), threshold, side="right")
    tpr_lo, _ = _clopper_pearson(tp, len(positives))
    _, fpr_hi = _clopper_pearson(fp, len(negatives))
    with np.errstate(divide="ignore"):
        return np.log(tpr_lo) - np.log(fpr_hi)


def _audited(positives, negatives):
    """eps_lb on the second half of the runs, at the threshold that gives
    the highest eps_lb on the first half."""
    half = len(positives) // 2
    fit_pos, fit_neg = positives[:half], negatives[:half]
    candidates = np.unique(np.concatenate([fit_pos, fit_neg]))
    threshold = candidates[np.argmax(_eps_lb(fit_pos, fit_neg, candidates))]
    return float(_eps_lb(positives[half:], negatives[half:], threshold))


def _means(w: float) -> dict[float, np.ndarray]:
    """Each neighbour's release without its noise, 2 * w * r * u_0."""
    return {r: 2.0 * w * r * U0 for r in NEIGHBOURS}


def _scored(releases, h, eps: float, w: float) -> dict[str, float]:
    """eps_lb of each score for each neighbour's releases and h, made by a
    mechanism that claims (eps, w)."""
    b = 2.0 * math.sqrt(K) * ITEM.delta / eps
    means = _means(w)
    scores = {"laplace": {}, "h-aware": {}}
    for r in NEIGHBOURS:
        low, high = (releases[r] - means[n] for n in NEIGHBOURS)
        # log-likelihood ratios of the high neighbour against the low one
        scores["laplace"][r] = (np.abs(low).sum(axis=1) - np.abs(high).sum(axis=1)) / b
        scores["h-aware"][r] = ((low**2 - high**2) / (4.0 * h[r] * b * b)).sum(axis=1)
    return {name: _audited(s[NEIGHBOURS[1]], s[NEIGHBOURS[0]]) for name, s in scores.items()}


@functools.cache
def _noise(eps: float, plan_seed: int | None) -> tuple[dict[float, np.ndarray], dict[float, np.ndarray]]:
    """Each neighbour's noise totals and h, one row per run: one one-item
    plan per seed of SEEDS, or with `plan_seed` one plan over PLAN_ITEMS."""
    if plan_seed is not None:
        plan = build_noise_plan(PLAN_ITEMS, K, PLAN_ITEMS.delta, eps, plan_seed)
        halves = dict(zip(NEIGHBOURS, (slice(N), slice(N, 2 * N))))
        return {r: plan.item_totals[rows] for r, rows in halves.items()}, {r: plan.h[rows] for r, rows in halves.items()}
    totals = {r: np.empty((len(seeds), K)) for r, seeds in SEEDS.items()}
    h = {r: np.empty((len(seeds), K)) for r, seeds in SEEDS.items()}
    for r, seeds in SEEDS.items():
        for run, seed in enumerate(seeds):
            plan = build_noise_plan(ITEM, K, ITEM.delta, eps, seed)
            totals[r][run] = plan.item_totals[0]
            h[r][run] = plan.h[0]
    return totals, h


@functools.cache
def _audit(eps: float, w: float, plan_seed: int | None = None) -> Audit:
    """eps_lb of each score at (eps, w), and the releases it scored: seed
    per plan, or with `plan_seed` one plan."""
    totals, h = _noise(eps, plan_seed)
    releases = {r: _means(w)[r] + totals[r] for r in NEIGHBOURS}
    return Audit(_scored(releases, h, eps, w), releases)


@pytest.fixture
def audit(native_build, use_kernels):
    use_kernels(native_build("dispatched"))
    return _audit


@pytest.mark.parametrize("eps,w", CASES)
def test_laplace_score_stays_within_w_eps(audit, eps, w):
    assert audit(eps, w).eps_lb["laplace"] <= w * eps


@pytest.mark.xfail(strict=True, reason=H_AWARE_FINDING)
@pytest.mark.parametrize("eps,w", CASES)
def test_h_aware_score_stays_within_w_eps(audit, eps, w):
    assert audit(eps, w).eps_lb["h-aware"] <= w * eps


@pytest.mark.parametrize("eps,w", ONE_PLAN_CASES)
def test_one_plan_laplace_score_stays_within_w_eps(audit, eps, w):
    assert audit(eps, w, PLAN_SEEDS[eps, w]).eps_lb["laplace"] <= w * eps


@pytest.mark.xfail(strict=True, reason=H_AWARE_FINDING)
@pytest.mark.parametrize("eps,w", ONE_PLAN_CASES)
def test_one_plan_h_aware_score_stays_within_w_eps(audit, eps, w):
    assert audit(eps, w, PLAN_SEEDS[eps, w]).eps_lb["h-aware"] <= w * eps


def test_laplace_score_flags_noise_scaled_by_one_over_sqrt_k(audit):
    totals, h = _noise(1.0, PLAN_SEEDS[1.0, 1.0])
    releases = {r: _means(1.0)[r] + totals[r] / math.sqrt(K) for r in NEIGHBOURS}
    assert _scored(releases, h, 1.0, 1.0)["laplace"] > 1.0


@pytest.mark.xfail(strict=True, reason=(
    "the audit lacks the power to flag it: on these releases the Laplace score built for the claimed "
    "w = 0.1 gives eps_lb -0.07, and the one built for w = 1 gives -0.61, the honest (1, 1) case's value"
))
def test_laplace_score_flags_unit_weight_releases_claimed_as_w_0_1(audit):
    # the releases of the honest (1, 1) case, from a mechanism that claims w = 0.1
    honest = audit(1.0, 1.0, PLAN_SEEDS[1.0, 1.0])
    _, h = _noise(1.0, PLAN_SEEDS[1.0, 1.0])
    assert _scored(honest.releases, h, 1.0, 0.1)["laplace"] > 0.1


def test_one_plan_releases_match_seed_per_plan_releases(audit):
    one_plan = audit(1.0, 1.0, PLAN_SEEDS[1.0, 1.0]).releases
    per_plan = audit(1.0, 1.0).releases
    p = {(r, k): stats.ks_2samp(one_plan[r][:, k], per_plan[r][:, k]).pvalue for r in NEIGHBOURS for k in range(K)}
    assert min(p.values()) >= KS_FLOOR, {key: value for key, value in p.items() if value < KS_FLOOR}
