"""Command-line entry point: `run`, `sweep`, and `check-noise`.

Exit codes: 0 on success, 1 on run failure (divergence, failed noise
check), 2 on invalid arguments, on configuration errors (including input
files that are missing or cannot be read, and an output path that is a
directory or whose directory does not exist), on malformed data rows and on
data whose split leaves nothing to score.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import tempfile
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, parse_config
from .diagnostics import MIN_SAMPLES, SCALE_RANGE, check_noise_composition
from .evaluation import emit_results, load_dataset, run_experiment
from .exceptions import ConfigError, EmptySplitError, HdpmfError, ParseError
from .kernels import backend_path
from .privacy import laplace_scale
from .protocol import TRACE_HEADER

SWEEP_KEYS = ("eps_uc", "f_uc", "fraction")
# the first line of a loss trace; a `seed,epoch,objective` line for each
# finished epoch of each seed follows
LOSS_TRACE_HEADER = "# seed,epoch,objective\n"


def _provenance(cfg: ExperimentConfig, extra: list[str] | None = None) -> list[str]:
    """Header lines of a results file: the effective config, then what ran
    it. The backend trains, and its epoch sums in its own order, so it can
    change the last bits of a result; every seeded draw is the same bits on
    either backend and any NumPy build. The native backend's line also
    names its lane path, which changes no bit."""
    lines = [f"{key} = {value}" for key, value in cfg.effective_items()]
    lines += [f"backend = {backend_path()}", f"hdpmf = {__version__}", f"numpy = {np.__version__}"]
    return lines + (extra or [])


@contextmanager
def _utf8_text(path):
    """Report a file that is not UTF-8 text like any unreadable file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, f"not UTF-8 text ({exc.reason})", str(path)) from None


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: through links, or by inode."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # either file is missing
        return False


def _parse_checked(config_path: str) -> ExperimentConfig:
    """Parse the config and check, before any data is loaded, that each file
    the run writes (`output`, `trace`, `loss_trace`) can be written where it
    says: in a directory that exists, not over a directory, and not over
    the dataset, the config file or another written file. A clash is
    reported on the later key."""
    with _utf8_text(config_path):
        cfg = parse_config(config_path)
    taken = {"the dataset": cfg.dataset, "the config file": config_path}
    for key in ("output", "trace", "loss_trace"):
        value = getattr(cfg, key)
        if value is None:
            continue
        path = Path(value)
        if not path.parent.is_dir():
            raise ConfigError(key, f"directory not found: {path.parent}")
        if path.is_dir():
            raise ConfigError(key, f"names a directory, not a file: {path}")
        for name, other in taken.items():
            if _same_file(value, other):
                raise ConfigError(key, f"is the same file as {name}: {value}")
        taken[f"`{key}`"] = value
    return cfg


@contextmanager
def _replace_on_success(path: str, header: str):
    """Write a text file that replaces `path` only if the block completes.

    It is written as a temporary file in `path`'s directory, moved over
    `path` with `os.replace` once the block returns and removed on any
    exception, so a run that fails leaves an earlier file at `path` as it
    was."""
    fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.", suffix=".tmp",
                               dir=os.path.dirname(path) or ".")
    try:
        mask = os.umask(0)
        os.umask(mask)
        os.fchmod(fd, 0o666 & ~mask)  # the mode `open` gives a new file
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(header)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _load_checked(cfg: ExperimentConfig):
    if not Path(cfg.dataset).exists():
        raise ConfigError("dataset", f"file not found: {cfg.dataset}")
    with _utf8_text(cfg.dataset):
        return load_dataset(cfg)


def cmd_run(config_path: str) -> int:
    cfg = _parse_checked(config_path)
    dataset = _load_checked(cfg)
    with _replace_on_success(cfg.trace, TRACE_HEADER) if cfg.trace is not None else nullcontext() as trace:
        result = run_experiment(cfg, dataset=dataset, trace=trace)
    if cfg.loss_trace is not None:
        with _replace_on_success(cfg.loss_trace, LOSS_TRACE_HEADER) as fh:
            fh.writelines(f"{r.seed},{t},{value!r}\n" for r in result.runs for t, value in enumerate(r.losses))
    emit_results([result], cfg.output, provenance=_provenance(cfg))
    print(f"method={cfg.method.value} dataset={cfg.dataset} seeds={len(cfg.seeds)}")
    if result.seed_results:
        print(f"  MSE {result.mse_mean:.4f} +/- {result.mse_std:.4f}")
        print(f"  MAE {result.mae_mean:.4f} +/- {result.mae_std:.4f}")
    for seed, reason in result.failures:
        print(f"  seed {seed} FAILED: {reason}")
    if result.failures:
        print("  (aggregates are partial)")
    print(f"results written to {cfg.output}")
    return 1 if result.failures or not result.seed_results else 0


def cmd_sweep(config_path: str, key: str, values: list[float]) -> int:
    base = _parse_checked(config_path)
    for trace_key in ("trace", "loss_trace"):
        if getattr(base, trace_key) is not None:
            raise ConfigError(trace_key, "sweep writes no traces; remove the key or use run")
    changes = {"n_test": 1} if key == "fraction" else {}
    configs = []
    for value in values:
        try:
            configs.append(replace(base, **changes, **{key: value}))
        except ConfigError as exc:
            raise ConfigError(key, f"sweep value {value} invalid: {exc}") from None
    dataset = _load_checked(base)
    results = []
    failed = False
    for value, cfg in zip(values, configs):
        result = run_experiment(cfg, dataset=dataset)
        failed = failed or bool(result.failures) or not result.seed_results
        results.append(result)
        print(f"{key}={value}: MSE {result.mse_mean:.4f} +/- {result.mse_std:.4f}")
    extra = [f"sweep: {key} = {','.join(str(v) for v in values)}"]
    emit_results(results, base.output, provenance=_provenance(replace(base, **changes), extra))
    print(f"results written to {base.output}")
    return 1 if failed else 0


def cmd_check_noise(K: int, delta: float, epsilon: float, raters: list[int], samples: int, seed: int) -> int:
    try:
        scale = laplace_scale(K, delta, epsilon)
    except OverflowError:  # a K beyond any float
        scale = math.inf
    lo, hi = SCALE_RANGE
    if not lo <= scale <= hi:
        raise ConfigError(
            "eps", f"the Laplace scale 2 * sqrt(K) * delta / eps with K = {K}, delta = {delta!r} and "
            f"eps = {epsilon!r} is {scale!r}; the check holds for scales in [{lo:g}, {hi:g}]"
        )
    ok = True
    for r in raters:
        report = check_noise_composition(K, delta, epsilon, r, samples, seed)
        for line in report.lines():
            print(line)
        ok = ok and report.passed
    print("noise check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _checked(parse, ok, requirement: str):
    """argparse type: `parse` the text, then require `ok(value)`, so bad
    input ends in a usage error (exit 2) instead of a traceback."""

    def convert(raw: str):
        try:
            value = parse(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value: {raw!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {raw!r}")
        return value

    return convert


def _comma_list(parse):
    """argparse type: a non-empty comma-separated list of `parse` values."""

    def convert(raw: str) -> list:
        values = [parse(part) for part in raw.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"no values in {raw!r}")
        return values

    return convert


_number = _checked(float, math.isfinite, "a finite number")
_positive_number = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_sample_count = _checked(int, lambda v: v >= MIN_SAMPLES, f">= {MIN_SAMPLES}")
_seed = _checked(int, lambda v: v >= 0, ">= 0")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdpmf",
        description="Heterogeneous differentially private matrix factorization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="path to a key = value config file")

    p_sweep = sub.add_parser("sweep", help="re-run the experiment over a parameter grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--key", required=True, choices=SWEEP_KEYS)
    p_sweep.add_argument("--values", required=True, type=_comma_list(_number), help="comma-separated values")

    p_noise = sub.add_parser("check-noise", help="Monte-Carlo check of the noise composition")
    p_noise.add_argument("--dim", type=_positive_int, default=10, help="latent dimension K")
    p_noise.add_argument("--delta", type=_positive_number, default=4.0, help="rating range")
    p_noise.add_argument("--eps", type=_positive_number, default=1.0, help="privacy budget")
    p_noise.add_argument(
        "--raters", type=_comma_list(_positive_int), default=[1, 5, 50],
        help="comma-separated rater counts",
    )
    p_noise.add_argument("--samples", type=_sample_count, default=1_000_000)
    p_noise.add_argument("--seed", type=_seed, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.key, args.values)
        if args.command == "check-noise":
            return cmd_check_noise(args.dim, args.delta, args.eps, args.raters, args.samples, args.seed)
        raise AssertionError(args.command)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, EmptySplitError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except HdpmfError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"run failed: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
