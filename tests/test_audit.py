"""An empirical lower bound on the privacy of the perturbed sum, per weight.

The paper's guarantee is per rating: a rating of weight w gets budget
w * eps. With U fixed, item j's factor is released through 2 b_j - x_j
alone (`test_fixed_u_releases_v_through_2b_minus_x_alone`), where b_j sums
w_ij r_ij u_i over its raters and x_j is the item's noise total. The audit
data are 2n items, each rated by 11 users, with K = 10, delta = 4 and
u_0 = (1/sqrt(K), ..., 1/sqrt(K)). User 0 rates items 0 to n - 1 with the
low neighbour's 1 and items n to 2n - 1 with the high neighbour's 5, and
item j releases

    2 * w * r_j * u_0 + x_j,

with w user 0's weight in the sum and x_j the item total of the plan that
`baselines.method_inputs` draws for the method; the other raters' terms
are the same under both neighbours and are left out. Each case draws one
plan, from a seed fixed in the file. Item j's total depends only on the
keys (j, 0) of h_j and (j, i) of its shares, so the items of one plan are
independent runs of the mechanism, as separately seeded plans are.

`test_one_plan_releases_match_seed_per_plan_releases` tests that premise.
At (eps, w) = (1, 1) it compares the releases, per neighbour and
coordinate, with those of 16,000 one-item plans drawn one per seed of
SEEDS, by a two-sample KS test. No other test reads those plans.

What each method claims for user 0's rating, of weight
w = beta_0 * gamma_j:
- hdpmf stretches it by w and claims w * eps;
- dpmf draws its plan at the least observed budget and claims that;
- pdpmf keeps it with the public probability
  pi = (e^(w eps) - 1) / (e^eps - 1), draws its plan at eps on the ratings
  it keeps, and claims w * eps. A release whose rating was sampled out is
  x_j alone.

A score says which neighbour a release came from. Its threshold is fitted
on the first half of each neighbour's items; on the other half, one-sided
95% Clopper-Pearson bounds give a true-positive rate TPR_lo and a
false-positive rate FPR_hi, and eps_lb = log(TPR_lo / FPR_hi) is a lower
bound on the privacy loss that holds with about 90% confidence. With 4,000
held-out items per neighbour the highest bound it can certify is about
log(4000 / 3) = 7.2. There are three scores:

- The Laplace score is the likelihood ratio of an adversary who does not
  know h_j: to it each coordinate of x_j is Laplace of scale
  b = 2 sqrt(K) delta / eps, and eps_lb must stay within the claim.
- The h-aware score is the likelihood ratio given the plan's h_j, which the
  recommender draws: given h_j, coordinate k of x_j is N(0, 2 h_jk b^2).
  Against it the pure bound fails (H_AWARE_FINDING), so its cases are
  strict xfails, but for pdpmf at w = 0.1, where no score has the power
  to flag anything (CASE_SCORES).
- The linear score sum_k x_k reads the release along u_0 alone and
  assumes no noise model.

For pdpmf both likelihood ratios are of the mixtures
pi f(x - mean) + (1 - pi) f(x), so they fold the keep probability in. The
unfolded Laplace score takes every release to carry the rating, as if pi
were 1. It too stays within pdpmf's claim, and it flags a pdpmf that skips
its sampling, and so spends eps rather than w * eps, which the folded
Laplace and the linear score miss.

The weight-group cases put user 0 in pdpmf's conservative group
(w = 0.1) and its liberal one (w = 1), and give hdpmf's user 0 the weight
0.1 through the items' gamma alone, with beta_0 = 1; a claim of
beta_0 * eps there would be ten times too loose.

The power cases break hdpmf's mechanism on the (1, 1) data, and a score
must flag each break with an eps_lb past the bound claimed; a break that a
score cannot flag stands as a strict xfail that names the lack of power.

The seeds, the item counts, the cases and the KS floor were fixed before
the first run and are never changed to make a case pass or fail. The plans
are drawn on a compiled build: the premise test's one-item plans take
about 2 s, and a one-plan case about 0.15 s for its plan, totals and
scores. The file skips only where no C compiler exists.
"""

import functools
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy import stats

from hdpmf import baselines
from hdpmf.baselines import BaselineKind, method_inputs, min_observed_budget
from hdpmf.data import RatingDataset
from hdpmf.privacy import WeightAssignment, build_noise_plan

K = 10
RATERS = 11
NEIGHBOURS = (1.0, 5.0)  # user 0's rating; a release of the second is a positive
CONFIDENCE = 0.95
H_AWARE_FINDING = (
    "ROADMAP Findings item 2 and direction 21: given h_j the noise is Gaussian, so against a recommender "
    "that knows h_j the pure w * eps bound fails; what holds is (eps', delta(eps'))-DP, with delta(1) = 0.032 "
    "at (eps, w) = (1, 1)"
)

N = 8_000  # items per neighbour; the first half fits the threshold
# hdpmf's plan seed per case, outside SEEDS so that no release shares its
# keys with a seed-per-plan release
PLAN_SEEDS = {(1.0, 1.0): 16_000, (16.0, 0.1): 16_001, (4.0, 0.1): 16_002}
ONE_PLAN_CASES = [
    pytest.param(1.0, 1.0, id="eps-1-w-1"),
    pytest.param(16.0, 0.1, id="eps-16-w-0.1"),
    pytest.param(4.0, 0.1, id="eps-4-w-0.1"),
]
# dpmf and pdpmf at their calibrated budgets: (method, eps, the weights
# (beta of user 0, beta of every other rater, gamma of every item), plan
# seed), the seeds outside SEEDS and PLAN_SEEDS
PDPMF_CASE = (BaselineKind.PDPMF, 4.0, (0.5, 1.0, 1.0), 16_101)
METHOD_CASES = [
    pytest.param(BaselineKind.DPMF, 16.0, (1.0, 0.1, 1.0), 16_100, id="dpmf-eps-16-min-w-0.1"),
    pytest.param(*PDPMF_CASE, id="pdpmf-eps-4-w-0.5"),
]
# the weight groups: pdpmf with user 0 conservative and liberal, and hdpmf
# with user 0's weight w = beta_0 * gamma set by the items' gamma alone
GROUP_CASES = [
    pytest.param(BaselineKind.PDPMF, 4.0, (0.1, 1.0, 1.0), 16_102, id="pdpmf-eps-4-w-0.1"),
    pytest.param(BaselineKind.PDPMF, 4.0, (1.0, 1.0, 1.0), 16_103, id="pdpmf-eps-4-w-1"),
    pytest.param(BaselineKind.HDPMF, 16.0, (1.0, 1.0, 0.1), 16_003, id="hdpmf-eps-16-gamma-0.1"),
]
# Every case of METHOD_CASES and GROUP_CASES with every score. The h-aware
# score is a strict xfail wherever its first run was past the claim, which
# is everywhere but on pdpmf at w = 0.1: there pi = 0.0092, so about 37 of
# the 4,000 held-out items carry user 0's rating, and no score has the
# power to tell the neighbours apart.
H_AWARE_WITHIN_CLAIM = {"pdpmf-eps-4-w-0.1"}
CASE_SCORES = [
    pytest.param(
        *case.values, score, id=f"{case.id}-{score}",
        marks=pytest.mark.xfail(strict=True, reason=H_AWARE_FINDING)
        if score == "h-aware" and case.id not in H_AWARE_WITHIN_CLAIM else (),
    )
    for case in METHOD_CASES + GROUP_CASES
    for score in ("laplace", "h-aware", "linear")
]

# 2N items rated by users 0-10, user 0's rating the low neighbour's on the
# first N and the high one's on the rest
PLAN_ITEMS = RatingDataset(
    np.repeat(np.arange(RATERS), 2 * N),
    np.tile(np.arange(2 * N), RATERS),
    np.concatenate([np.repeat(NEIGHBOURS, N), np.full((RATERS - 1) * 2 * N, 3.0)]),
    RATERS, 2 * N, 1.0, 5.0,
)
HALVES = dict(zip(NEIGHBOURS, (slice(N), slice(N, 2 * N))))  # each neighbour's items
U0 = np.full(K, 1.0 / math.sqrt(K))

# The premise test's comparator: one one-item plan per seed, each
# neighbour's seeds one per run.
SEEDS = {1.0: range(0, 8_000), 5.0: range(8_000, 16_000)}
KS_FLOOR = 0.001  # each of the 2 x K two-sample KS p-values of the premise test
# one item rated by users 0-10; the ratings do not enter the plan
ITEM = RatingDataset(np.arange(RATERS), np.zeros(RATERS, dtype=np.int64), np.full(RATERS, 3.0), RATERS, 1, 1.0, 5.0)


class Drawn(NamedTuple):
    """A case's plan, per neighbour, one row per item."""

    weight: dict[float, np.ndarray]  # user 0's weight in the sum; 0 where its rating was sampled out
    totals: dict[float, np.ndarray]  # x_j
    h: dict[float, np.ndarray]


class Audit(NamedTuple):
    eps_lb: dict[str, float]  # per score
    bound: float  # the budget the method claims for user 0's rating


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


def _released(weight, totals) -> dict[float, np.ndarray]:
    """Each neighbour's releases 2 * w * r * u_0 + x_j, with user 0's
    weight w on each item."""
    return {r: 2.0 * weight[r][:, None] * r * U0 + totals[r] for r in NEIGHBOURS}


def _scored(releases, h, eps: float, w: float, keep: float = 1.0) -> dict[str, float]:
    """eps_lb of each score for each neighbour's releases and h, made by a
    mechanism that calibrates its noise to eps, adds user 0's rating with
    weight w and keeps that rating with probability `keep`."""
    b = 2.0 * math.sqrt(K) * PLAN_ITEMS.delta / eps
    low, high = (2.0 * w * r * U0 for r in NEIGHBOURS)  # each neighbour's release without its noise
    # each likelihood ratio's log of the density of release x about the
    # mean m over its density about the low neighbour's mean
    log_ratio = {
        "laplace": lambda x, m, h_r: (np.abs(x - low).sum(axis=1) - np.abs(x - m).sum(axis=1)) / b,
        "h-aware": lambda x, m, h_r: (((x - low) ** 2 - (x - m) ** 2) / (4.0 * h_r * b * b)).sum(axis=1),
    }
    with np.errstate(divide="ignore"):
        log_keep, log_drop = math.log(keep), np.log1p(-keep)  # log_drop is -inf when every rating is kept
    scores = {name: {} for name in (*log_ratio, "linear")}
    for r in NEIGHBOURS:
        x = releases[r]
        for name, f in log_ratio.items():
            # log-likelihood ratio of the high neighbour against the low
            # one; a rating sampled out leaves x_j alone, about the mean 0
            dropped = log_drop + f(x, 0.0, h[r])
            scores[name][r] = np.logaddexp(log_keep + f(x, high, h[r]), dropped) - np.logaddexp(log_keep, dropped)
        scores["linear"][r] = x.sum(axis=1)
    return {name: _audited(s[NEIGHBOURS[1]], s[NEIGHBOURS[0]]) for name, s in scores.items()}


def _weights(weights: tuple[float, float, float]) -> WeightAssignment:
    """beta of user 0, then of every other rater, then gamma of every item."""
    beta_0, beta, gamma = weights
    return WeightAssignment(np.array([beta_0] + [beta] * (RATERS - 1)), np.full(2 * N, gamma))


@functools.cache
def _drawn(method: BaselineKind, eps: float, weights: tuple[float, float, float], plan_seed: int) -> Drawn:
    """The plan that `method_inputs` draws for `method` on PLAN_ITEMS at
    eps, with the weights `weights` (`_weights`), from `plan_seed`."""
    data, entry_weights, plan = method_inputs(method, PLAN_ITEMS, _weights(weights), eps, K, plan_seed)
    own = data.users == 0
    weight = np.zeros(2 * N)
    weight[data.items[own]] = entry_weights[own]
    return Drawn(*({r: a[rows] for r, rows in HALVES.items()} for a in (weight, plan.item_totals, plan.h)))


@functools.cache
def _audit(method: BaselineKind, eps: float, weights: tuple[float, float, float], plan_seed: int) -> Audit:
    """eps_lb of each score on a case's releases, each scored against what
    `method` claims, and that claim's budget."""
    drawn = _drawn(method, eps, weights, plan_seed)
    releases = _released(drawn.weight, drawn.totals)
    beta_0, _, gamma = weights
    w = beta_0 * gamma  # user 0's weight on every item
    if method is BaselineKind.DPMF:
        budget = min_observed_budget(PLAN_ITEMS, _weights(weights), eps)
        return Audit(_scored(releases, drawn.h, budget, 1.0), budget)
    if method is BaselineKind.PDPMF:
        keep = math.expm1(w * eps) / math.expm1(eps)
        return Audit(_scored(releases, drawn.h, eps, 1.0, keep), w * eps)
    return Audit(_scored(releases, drawn.h, eps, w), w * eps)


def _unfolded_laplace(drawn: Drawn) -> float:
    """eps_lb of the Laplace score that takes every release of pdpmf's case,
    drawn as `drawn`, to carry user 0's rating with weight 1."""
    _, eps, _, _ = PDPMF_CASE
    return _scored(_released(drawn.weight, drawn.totals), drawn.h, eps, 1.0)["laplace"]


def _hdpmf(eps: float, w: float) -> tuple:
    """The arguments of `_drawn` and `_audit` for hdpmf's case (eps, w)."""
    return BaselineKind.HDPMF, eps, (w, 1.0, 1.0), PLAN_SEEDS[eps, w]


@functools.cache
def _claimed_as_w_0_1() -> dict[str, float]:
    """eps_lb of each score on the honest (1, 1) case's releases, from a
    mechanism that claims w = 0.1."""
    drawn = _drawn(*_hdpmf(1.0, 1.0))
    return _scored(_released(drawn.weight, drawn.totals), drawn.h, 1.0, 0.1)


@pytest.fixture(autouse=True)
def dispatched(native_build, use_kernels):
    use_kernels(native_build("dispatched"))


@pytest.mark.parametrize("eps,w", ONE_PLAN_CASES)
def test_one_plan_laplace_score_stays_within_w_eps(eps, w):
    assert _audit(*_hdpmf(eps, w)).eps_lb["laplace"] <= w * eps


@pytest.mark.xfail(strict=True, reason=H_AWARE_FINDING)
@pytest.mark.parametrize("eps,w", ONE_PLAN_CASES)
def test_one_plan_h_aware_score_stays_within_w_eps(eps, w):
    assert _audit(*_hdpmf(eps, w)).eps_lb["h-aware"] <= w * eps


@pytest.mark.parametrize("eps,w", ONE_PLAN_CASES)
def test_one_plan_linear_score_stays_within_w_eps(eps, w):
    assert _audit(*_hdpmf(eps, w)).eps_lb["linear"] <= w * eps


@pytest.mark.parametrize("method,eps,weights,plan_seed,score", CASE_SCORES)
def test_score_stays_within_the_methods_budget(method, eps, weights, plan_seed, score):
    audit = _audit(method, eps, weights, plan_seed)
    assert audit.eps_lb[score] <= audit.bound


def test_unfolded_laplace_score_stays_within_pdpmfs_budget():
    _, eps, (w, _, _), _ = PDPMF_CASE
    assert _unfolded_laplace(_drawn(*PDPMF_CASE)) <= w * eps


def test_unfolded_laplace_score_flags_pdpmf_that_skips_its_sampling(monkeypatch):
    # every rating kept, so user 0's rating spends eps = 4 against the
    # claimed w * eps = 2; the plan is drawn past `_drawn`'s cache, which
    # keeps the honest one
    _, eps, (w, _, _), _ = PDPMF_CASE
    monkeypatch.setattr(baselines, "pdp_sample_ratings", lambda dataset, budgets, threshold, master_seed: dataset)
    assert _unfolded_laplace(_drawn.__wrapped__(*PDPMF_CASE)) > w * eps


def test_laplace_score_flags_noise_scaled_by_one_over_sqrt_k():
    drawn = _drawn(*_hdpmf(1.0, 1.0))
    releases = _released(drawn.weight, {r: totals / math.sqrt(K) for r, totals in drawn.totals.items()})
    assert _scored(releases, drawn.h, 1.0, 1.0)["laplace"] > 1.0


@pytest.mark.xfail(strict=True, reason=(
    "the Laplace score lacks the power to flag it: on these releases the one built for the claimed "
    "w = 0.1 gives eps_lb -0.07, and the one built for w = 1 gives -0.61, the honest (1, 1) case's value; "
    "the linear score flags it"
))
def test_laplace_score_flags_unit_weight_releases_claimed_as_w_0_1():
    assert _claimed_as_w_0_1()["laplace"] > 0.1


def test_linear_score_flags_unit_weight_releases_claimed_as_w_0_1():
    assert _claimed_as_w_0_1()["linear"] > 0.1


def test_one_plan_releases_match_seed_per_plan_releases():
    drawn = _drawn(*_hdpmf(1.0, 1.0))
    one_plan = _released(drawn.weight, drawn.totals)
    totals = {
        r: np.array([build_noise_plan(ITEM, K, 1.0, seed).item_totals[0] for seed in seeds])
        for r, seeds in SEEDS.items()
    }
    per_plan = _released({r: np.ones(len(seeds)) for r, seeds in SEEDS.items()}, totals)
    p = {(r, k): stats.ks_2samp(one_plan[r][:, k], per_plan[r][:, k]).pvalue for r in NEIGHBOURS for k in range(K)}
    assert min(p.values()) >= KS_FLOOR, {key: value for key, value in p.items() if value < KS_FLOOR}
