"""An empirical lower bound on the privacy of the perturbed sum, per weight.

The paper's guarantee is per rating: a rating of weight w gets budget
w * eps. With U fixed, item j's factor is released through 2 b_j - x_j
alone (`test_fixed_u_releases_v_through_2b_minus_x_alone`), where b_j sums
w_ij r_ij u_i over its raters and x_j is the item's noise total. So the
audit releases, for one item with 11 raters, K = 10, delta = 4 and
u_0 = (1/sqrt(K), ..., 1/sqrt(K)),

    2 * w * r * u_0 + x_0,

with x_0 the item total of the repo's own `build_noise_plan` and
`item_totals`, and r user 0's rating, which the two neighbours set to 1 or
to 5. Each run draws its own plan from its own seed.

A score says which neighbour a release came from. Its threshold is fitted
on the first half of each neighbour's runs; on the other half, one-sided
95% Clopper-Pearson bounds give a true-positive rate TPR_lo and a
false-positive rate FPR_hi, and eps_lb = log(TPR_lo / FPR_hi) is a lower
bound on the privacy loss that holds with about 90% confidence. With 4,000
held-out runs per neighbour the highest bound it can certify is about
log(4000 / 3) = 7.2.

- The Laplace score is the likelihood ratio of an adversary who does not
  know h_0: to it each coordinate of x_0 is Laplace of scale
  b = 2 sqrt(K) delta / eps, and eps_lb must stay within w * eps.
- The h-aware score is the likelihood ratio given the plan's h_0, which the
  recommender draws: given h_0, coordinate k of x_0 is N(0, 2 h_0k b^2).
  Against it the pure w * eps bound fails (ROADMAP, carried finding
  "Against a recommender that knows h_j, the noise is Gaussian and the
  pure w * eps bound fails"), so its cases are strict xfails.

The seed ranges were fixed before the first run and are never changed to
make a case pass or fail. The plans are drawn on a compiled build, about
0.1 ms each; the file skips only where no C compiler exists.
"""

import functools
import math

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

# one item rated by users 0-10; the ratings do not enter the plan
ITEM = RatingDataset(np.arange(RATERS), np.zeros(RATERS, dtype=np.int64), np.full(RATERS, 3.0), RATERS, 1, 1.0, 5.0)
U0 = np.full(K, 1.0 / math.sqrt(K))


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


@functools.cache
def _audit(eps: float, w: float) -> dict[str, float]:
    """eps_lb of each score at (eps, w)."""
    b = 2.0 * math.sqrt(K) * ITEM.delta / eps
    means = {r: 2.0 * w * r * U0 for r in NEIGHBOURS}
    scores = {"laplace": {}, "h-aware": {}}
    for r, seeds in SEEDS.items():
        releases, h = np.empty((len(seeds), K)), np.empty((len(seeds), K))
        for run, seed in enumerate(seeds):
            plan = build_noise_plan(ITEM, K, ITEM.delta, eps, seed)
            releases[run] = means[r] + plan.item_totals[0]
            h[run] = plan.h[0]
        low, high = (releases - means[n] for n in NEIGHBOURS)
        # log-likelihood ratios of the high neighbour against the low one
        scores["laplace"][r] = (np.abs(low).sum(axis=1) - np.abs(high).sum(axis=1)) / b
        scores["h-aware"][r] = ((low**2 - high**2) / (4.0 * h * b * b)).sum(axis=1)
    return {name: _audited(s[NEIGHBOURS[1]], s[NEIGHBOURS[0]]) for name, s in scores.items()}


@pytest.fixture
def audit(native_build, use_kernels):
    use_kernels(native_build("dispatched"))
    return _audit


@pytest.mark.parametrize("eps,w", CASES)
def test_laplace_score_stays_within_w_eps(audit, eps, w):
    assert audit(eps, w)["laplace"] <= w * eps


@pytest.mark.xfail(strict=True, reason=H_AWARE_FINDING)
@pytest.mark.parametrize("eps,w", CASES)
def test_h_aware_score_stays_within_w_eps(audit, eps, w):
    assert audit(eps, w)["h-aware"] <= w * eps
