"""Metrics, multi-seed orchestration, significance testing, CSV emission."""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baselines import BaselineKind, method_inputs
from .config import ExperimentConfig
from .data import (
    RatingDataset,
    kfold_splits,
    load_csv,
    load_movielens_100k,
    load_movielens_1m,
    split_leave_n_out,
    subsample_per_user,
)
from .exceptions import ConfigError, DivergedRunError, EmptySplitError
from .privacy import allocate_weights
from .protocol import predict_all, train

RESULT_COLUMNS = "method,dataset,K,eps,f_uc,eps_uc,fraction,seed,mse,mae"
AGGREGATE_COLUMNS = "method,dataset,K,eps,f_uc,eps_uc,fraction,n_seeds,mse_mean,mse_std,mae_mean,mae_std"
# The line that opens the aggregate section; header lines echo free text.
AGGREGATE_MARKER = "# aggregate: mean and sample standard deviation over seeds"
# How `read_results` reads a column back; every other column is a float.
_COLUMN_TYPES = {"method": str, "dataset": str, "K": int, "seed": int, "n_seeds": int}


def _errors(predictions, truths) -> np.ndarray:
    """Prediction minus truth for paired, non-empty score lists."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape:
        raise ValueError("predictions and truths must have equal length")
    if predictions.size == 0:
        raise ValueError("cannot score an empty prediction list")
    return predictions - truths


def mse(predictions, truths) -> float:
    """Mean squared error of paired predictions."""
    diff = _errors(predictions, truths)
    return float(np.mean(diff * diff))


def mae(predictions, truths) -> float:
    """Mean absolute error of paired predictions."""
    return float(np.mean(np.abs(_errors(predictions, truths))))


@dataclass
class SeedResult:
    seed: int
    mse: float
    mae: float


@dataclass
class ExperimentResult:
    """Per-seed scores of one method under one configuration."""

    method: BaselineKind
    config: ExperimentConfig
    seed_results: list[SeedResult] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    @property
    def mse_values(self) -> list[float]:
        return [r.mse for r in self.seed_results]

    @property
    def mae_values(self) -> list[float]:
        return [r.mae for r in self.seed_results]

    def _agg(self, values: list[float]) -> tuple[float, float]:
        if not values:
            return math.nan, math.nan
        if len(values) == 1:  # n=1: std reported as 0 by convention
            return values[0], 0.0
        arr = np.asarray(values)
        return float(arr.mean()), float(arr.std(ddof=1))

    @property
    def mse_mean(self) -> float:
        return self._agg(self.mse_values)[0]

    @property
    def mse_std(self) -> float:
        return self._agg(self.mse_values)[1]

    @property
    def mae_mean(self) -> float:
        return self._agg(self.mae_values)[0]

    @property
    def mae_std(self) -> float:
        return self._agg(self.mae_values)[1]


def load_dataset(cfg: ExperimentConfig) -> RatingDataset:
    if cfg.format == "ml-100k":
        return load_movielens_100k(cfg.dataset)
    if cfg.format == "ml-1m":
        return load_movielens_1m(cfg.dataset)
    return load_csv(cfg.dataset, cfg.scale_min, cfg.scale_max)


def _check_k_fits(cfg: ExperimentConfig, dataset: RatingDataset) -> None:
    """Reject a K whose factors U and V alone, in float64, would exceed the
    machine's physical memory, before anything K-sized is allocated."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    shape = f"{dataset.n_users} users and {dataset.n_items} items"
    if 8 * cfg.k * (dataset.n_users + dataset.n_items) > memory:
        raise ConfigError("k", f"K = {cfg.k} with {shape} needs more than {memory:.3g} bytes of physical memory")


def run_single_seed(
    cfg: ExperimentConfig,
    dataset: RatingDataset,
    seed: int,
    trace=None,
    loss_log: list[float] | None = None,
) -> SeedResult:
    """Allocate weights, split, train the configured method on its
    `method_inputs`, score.

    Raises EmptySplitError before training when the split holds out
    nothing, which happens when no user has more than n_test ratings.
    """
    weights = allocate_weights(cfg, dataset.n_users, dataset.n_items, seed)
    n_test = 1 if cfg.split == "leave-one-out" else cfg.n_test
    plan = split_leave_n_out(dataset, n_test, seed)
    if len(plan.test) == 0:
        raise EmptySplitError(
            f"the {plan.description} split holds out nothing to score: no user has "
            f"more ratings than it holds out ({len(dataset)} ratings in the dataset)"
        )
    train_set = subsample_per_user(plan.train, cfg.fraction, seed)
    inputs = method_inputs(cfg.method, train_set, weights, cfg.epsilon, cfg.k, seed)
    model = train(*inputs, cfg, seed, trace=trace, loss_log=loss_log)
    preds = predict_all(
        model, weights, plan.test.users, plan.test.items,
        dataset.scale_min, dataset.scale_max,
        rescale=cfg.method.rescales,
    )
    truths = plan.test.ratings
    return SeedResult(seed, mse(preds, truths), mae(preds, truths))


def run_experiment(
    cfg: ExperimentConfig,
    dataset: RatingDataset | None = None,
    trace=None,
    loss_trace=None,
) -> ExperimentResult:
    """Run every seed and aggregate; diverged seeds become recorded
    failures and the aggregation over the rest is flagged partial.

    `loss_trace` is an optional text handle receiving one
    `seed,epoch,objective` line per training epoch.
    """
    if dataset is None:
        dataset = load_dataset(cfg)
    _check_k_fits(cfg, dataset)
    result = ExperimentResult(method=cfg.method, config=cfg)
    for seed in cfg.seeds:
        loss_log: list[float] | None = [] if loss_trace is not None else None
        try:
            result.seed_results.append(
                run_single_seed(cfg, dataset, seed, trace=trace, loss_log=loss_log)
            )
        except DivergedRunError as exc:
            result.failures.append((seed, str(exc)))
        if loss_trace is not None and loss_log:
            for t, value in enumerate(loss_log):
                loss_trace.write(f"{seed},{t},{value!r}\n")
    return result


def grid_search_cv(
    cfg: ExperimentConfig,
    dataset: RatingDataset,
    eta_grid: list[float],
    lam_grid: list[float],
    n_folds: int = 5,
    master_seed: int = 0,
) -> tuple[tuple[float, float], dict[tuple[float, float], float]]:
    """k-fold cross-validated grid search for (eta0, lam).

    Returns the best pair by mean validation MSE and the full score table.
    Optional: the shipped defaults were pinned with this and acceptance
    runs use them directly. Diverged folds score as infinity.
    """
    _check_k_fits(cfg, dataset)
    weights = allocate_weights(cfg, dataset.n_users, dataset.n_items, master_seed)
    folds = kfold_splits(dataset, n_folds, master_seed)
    fold_inputs = [
        method_inputs(cfg.method, fold.train, weights, cfg.epsilon, cfg.k, master_seed)
        for fold in folds
    ]
    table: dict[tuple[float, float], float] = {}
    for eta0 in eta_grid:
        for lam in lam_grid:
            scores = []
            point = replace(cfg, eta0=eta0, lam=lam)
            for fold, inputs in zip(folds, fold_inputs):
                try:
                    model = train(*inputs, point, master_seed)
                except DivergedRunError:
                    scores.append(math.inf)
                    continue
                preds = predict_all(
                    model, weights, fold.test.users, fold.test.items,
                    dataset.scale_min, dataset.scale_max,
                    rescale=cfg.method.rescales,
                )
                scores.append(mse(preds, fold.test.ratings))
            table[(eta0, lam)] = float(np.mean(scores))
    best = min(table, key=lambda key: table[key])
    return best, table


def paired_t_test(a, b) -> tuple[float, str]:
    """One-sided paired t-test that the mean of `a` is below the mean of
    `b`, on per-seed metrics paired by seed.

    Returns (t statistic of the differences b - a, significance in
    {'none', '90%', '95%', '99%'}). Zero-variance differences degenerate
    to t = +/-inf; strict one-sided dominance reports 99% by convention.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be equal-length vectors")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = b - a
    sd = float(d.std(ddof=1))
    mean = float(d.mean())
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, "none"
        t = math.inf if mean > 0 else -math.inf
    else:
        t = mean / (sd / math.sqrt(n))
    # t > ppf(p) exactly when cdf(t) > p, the CDF being strictly increasing
    cdf = _t_cdf(t, n - 1)
    for level, p in (("99%", 0.99), ("95%", 0.95), ("90%", 0.90)):
        if cdf > p:
            return t, level
    return t, "none"


def _t_cdf(t: float, nu: int) -> float:
    """Student-t CDF for integer nu >= 1 in theta = atan(t / sqrt(nu)):
    Abramowitz & Stegun 26.7.3 (odd nu) and 26.7.4 (even nu)."""
    if math.isinf(t):
        return float(t > 0)
    theta = math.atan(t / math.sqrt(nu))
    odd = nu % 2
    cos2 = math.cos(theta) ** 2
    term, total = (math.cos(theta) if odd else 1.0), 0.0
    for k in range(1, nu // 2 + 1):
        total += term
        term *= cos2 * (2 * k - 1 + odd) / (2 * k + odd)
    a = math.sin(theta) * total
    return 0.5 + 0.5 * ((theta + a) * 2.0 / math.pi if odd else a)


def _fmt(value: float) -> str:
    return repr(float(value))


def _row_prefix(result: ExperimentResult) -> list[str]:
    """The columns that seed rows and aggregate rows share, method to
    fraction."""
    cfg = result.config
    return [
        result.method.value, str(cfg.dataset), str(cfg.k), _fmt(cfg.epsilon),
        _fmt(cfg.f_uc), _fmt(cfg.eps_uc), _fmt(cfg.fraction),
    ]


def _result_rows(result: ExperimentResult) -> list[list[str]]:
    prefix = _row_prefix(result)
    return [prefix + [str(r.seed), _fmt(r.mse), _fmt(r.mae)] for r in result.seed_results]


def _aggregate_row(result: ExperimentResult) -> list[str]:
    return _row_prefix(result) + [
        str(len(result.seed_results)),
        _fmt(result.mse_mean), _fmt(result.mse_std),
        _fmt(result.mae_mean), _fmt(result.mae_std),
    ]


def emit_results(
    results: list[ExperimentResult],
    path: str | Path,
    provenance: list[str] | None = None,
) -> None:
    """Write per-seed rows plus an aggregate section; deterministic bytes
    for identical inputs, full-precision decimals for exact round-trips.
    Rows are CSV with minimal quoting, so a field that holds a comma or a
    quote (a dataset path, say) is quoted and reads back intact."""
    if not results:
        raise ValueError("no results to emit")
    # imported here, after a run's factors and noise plan are freed, so the
    # module stays out of the run's peak memory
    import csv

    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    for entry in provenance or []:
        out.write(f"# {entry}\n")
    out.write(RESULT_COLUMNS + "\n")
    for result in results:
        rows.writerows(_result_rows(result))
    out.write(AGGREGATE_MARKER + "\n" + AGGREGATE_COLUMNS + "\n")
    rows.writerows(_aggregate_row(result) for result in results)
    failures = [(r.method.value, seed, reason) for r in results for seed, reason in r.failures]
    if failures:
        out.write("# failures\n")
        for method, seed, reason in failures:
            out.write(f"# {method},{seed},{reason}\n")
    Path(path).write_text(out.getvalue(), encoding="utf-8")


def read_results(path: str | Path) -> tuple[list[dict], list[dict]]:
    """Parse a results file back into (seed rows, aggregate rows)."""
    import csv

    rows: tuple[list[dict], list[dict]] = ([], [])
    section = 0  # 1 from the aggregate marker on
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line == AGGREGATE_MARKER:
            section = 1
        if line.startswith("#") or line in (RESULT_COLUMNS, AGGREGATE_COLUMNS):
            continue
        names = (RESULT_COLUMNS, AGGREGATE_COLUMNS)[section].split(",")
        values = next(csv.reader([line]))
        rows[section].append({key: _COLUMN_TYPES.get(key, float)(raw) for key, raw in zip(names, values)})
    return rows
