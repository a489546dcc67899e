"""Metrics, multi-seed orchestration, CSV emission."""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import BaselineKind, method_inputs
from .config import ExperimentConfig
from .data import (
    RatingDataset,
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
    """One seed's run: its scores, or NaN scores and the `failure` that
    stopped it, plus the training objective after each finished epoch when
    `cfg.loss_trace` names a file."""

    seed: int
    mse: float
    mae: float
    failure: str | None = None
    losses: list[float] = field(default_factory=list)


@dataclass
class ExperimentResult:
    """Per-seed runs of one method under one configuration."""

    config: ExperimentConfig
    runs: list[SeedResult] = field(default_factory=list)

    @property
    def seed_results(self) -> list[SeedResult]:
        """The runs that finished, in seed order."""
        return [r for r in self.runs if r.failure is None]

    @property
    def failures(self) -> list[tuple[int, str]]:
        """(seed, reason) of each run that failed, in seed order."""
        return [(r.seed, r.failure) for r in self.runs if r.failure is not None]

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
) -> SeedResult:
    """Allocate weights, split, train the configured method on its
    `method_inputs`, score. mf neither trains on weights nor rescales by
    them, so it draws none. A run that diverges returns NaN scores, its
    failure and the losses of the epochs before it.

    Raises EmptySplitError before training when the split holds out
    nothing, which happens when no user has more than n_test ratings, and
    ConfigError before any draw when `cfg.trace` is set but no `trace`
    handle is passed, since the run writes its update trace only there.
    """
    if cfg.trace is not None and trace is None:
        raise ConfigError("trace", "pass an open handle, as `hdpmf run` does, or unset the key")
    weights = None
    if cfg.method is not BaselineKind.MF:
        weights = allocate_weights(cfg, dataset.n_users, dataset.n_items, seed)
    plan = split_leave_n_out(dataset, cfg.n_test, seed)
    if len(plan.test) == 0:
        raise EmptySplitError(
            f"the leave-{cfg.n_test}-out split holds out nothing to score: no user has "
            f"more ratings than it holds out ({len(dataset)} ratings in the dataset)"
        )
    train_set = subsample_per_user(plan.train, cfg.fraction, seed)
    inputs = method_inputs(cfg.method, train_set, weights, cfg.epsilon, cfg.k, seed)
    losses: list[float] = []
    try:
        model = train(*inputs, cfg, seed, trace=trace, loss_log=losses if cfg.loss_trace is not None else None)
    except DivergedRunError as exc:
        return SeedResult(seed, math.nan, math.nan, str(exc), losses)
    preds = predict_all(
        model, weights, plan.test.users, plan.test.items,
        dataset.scale_min, dataset.scale_max,
        rescale=cfg.method.rescales,
    )
    truths = plan.test.ratings
    return SeedResult(seed, mse(preds, truths), mae(preds, truths), losses=losses)


def run_experiment(
    cfg: ExperimentConfig,
    dataset: RatingDataset | None = None,
    trace=None,
) -> ExperimentResult:
    """Run every seed; diverged seeds become recorded failures and the
    aggregation over the rest is flagged partial."""
    if dataset is None:
        dataset = load_dataset(cfg)
    _check_k_fits(cfg, dataset)
    runs = [run_single_seed(cfg, dataset, seed, trace=trace) for seed in cfg.seeds]
    return ExperimentResult(cfg, runs)


def _fmt(value: float) -> str:
    return repr(float(value))


def _row_prefix(result: ExperimentResult) -> list[str]:
    """The columns that seed rows and aggregate rows share, method to
    fraction."""
    cfg = result.config
    return [
        cfg.method.value, str(cfg.dataset), str(cfg.k), _fmt(cfg.epsilon),
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
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    for entry in provenance or []:
        out.write(f"# {entry}\n")
    out.write(RESULT_COLUMNS + "\n")
    for result in results:
        rows.writerows(_result_rows(result))
    out.write(AGGREGATE_MARKER + "\n" + AGGREGATE_COLUMNS + "\n")
    rows.writerows(_aggregate_row(result) for result in results)
    failures = [(r.config.method.value, seed, reason) for r in results for seed, reason in r.failures]
    if failures:
        out.write("# failures\n")
        for method, seed, reason in failures:
            out.write(f"# {method},{seed},{reason}\n")
    Path(path).write_text(out.getvalue(), encoding="utf-8")


def read_results(path: str | Path) -> tuple[list[dict], list[dict]]:
    """Parse a results file back into (seed rows, aggregate rows)."""
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
