"""One benchmark process: set up, run one workload closed-loop, check outputs.

`run.py` starts a fresh interpreter on this file for every measured run and
every set-up probe, so `setup_s` covers what `hdpmf run` pays before any
work: interpreter start, `import hdpmf`, `parse_config` and `load_dataset`.
After set-up the process repeats the rest of `hdpmf run` (`run_experiment`
over the workload's seeds, then `emit_results`) one run after another until
`--seconds` have passed, then runs the correctness checks and writes one
JSON record to `--out`. The calibration loop of `calibrate.py` runs before
the first run and after each one; `run_s` is the median run time scaled by
the loop times around each run.

With `--trace 1` untraced and traced runs alternate, so the per-layer
numbers and the tracing overhead come from the same process.

Run from the repository root; `run.py` supplies every argument.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.abc
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

import numpy as np

import calibrate
from tracer import Tracer
from workloads import WORKLOADS

TRACE_HEADER = "# epoch,kind,index,message_count,gradient_norm\n"
# Reduction-order tolerances for outputs that must agree across code paths.
ENGINE_MSE_RTOL = 1e-12
KERNEL_PARITY_ATOL = 1e-12
PARITY_EPOCHS = 5

SPAN_LAYERS = frozenset({
    "evaluation.experiment", "evaluation.seed_run", "evaluation.emit", "data.split",
    "privacy.weights", "privacy.noise_plan", "protocol.train", "protocol.predict",
    "engine.fit", "kernels.run_epoch",
})
# Self-time metrics and the traced layer each one reads.
SELF_TIME_METRICS = {
    "data.split_s": "data.split",
    "rng.stream_s": "rng.stream",
    "privacy.weights_s": "privacy.weights",
    "privacy.noise_plan_s": "privacy.noise_plan",
    "engine.fit_s": "engine.fit",
    "kernels.run_epoch_s": "kernels.run_epoch",
    "protocol.train_s": "protocol.train",
    "protocol.predict_s": "protocol.predict",
    "protocol.emit_gradient_s": "protocol.emit_gradient",
    "protocol.item_update_s": "protocol.item_update",
    "protocol.user_update_s": "protocol.user_update",
    "evaluation.seed_run_self_s": "evaluation.seed_run",
    "evaluation.emit_s": "evaluation.emit",
}


class NativeFinder(importlib.abc.MetaPathFinder):
    """Resolve `hdpmf._native` to the benchmark's own build of the kernel."""

    def __init__(self, path: str):
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name != "hdpmf._native":
            return None
        return importlib.util.spec_from_file_location(name, self.path)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer for one traced run."""
    from hdpmf import data, engine, evaluation, kernels, privacy, protocol, rng

    def plan_kept(args, kwargs, plan) -> None:
        size = sum(a.nbytes for a in (plan.shares, plan.h, plan.item_ptr, plan.item_users))
        tracer.gauges["privacy.noise_plan_bytes"] = max(size, tracer.gauges.get("privacy.noise_plan_bytes", 0))

    def plan_drawn(args, kwargs, plan) -> None:
        plan_kept(args, kwargs, plan)
        tracer.counts["privacy.noise_plan_shares"] += len(plan.shares)

    def epoch_shape(args, kwargs, _) -> None:
        U, V, _ptr, item_users = args[:4]
        nnz, K = len(item_users), U.shape[1]
        # per rating: two K-dots and two K-axpys (item then user phase)
        tracer.gauges["kernels.flops_per_epoch"] = 8.0 * K * nnz
        # computed from array sizes, ignoring cache reuse: per rating one
        # factor row, one index and one value in each phase; per entity its
        # row read and written, plus the item noise row
        tracer.gauges["kernels.bytes_per_epoch"] = float(
            nnz * (16 * K + 32) + 8 * K * (2 * U.shape[0] + 3 * V.shape[0])
        )

    tracer.function("rng.stream", rng.stream)
    tracer.function("data.split", data.split_leave_n_out)
    tracer.function("privacy.weights", privacy.allocate_weights)
    tracer.function("privacy.noise_plan", privacy.build_noise_plan, plan_drawn)
    tracer.method("privacy.noise_plan", privacy.NoisePlan, "zeros", plan_kept)
    tracer.function("engine.fit", engine.fit)
    tracer.function("kernels.run_epoch", kernels.run_epoch, epoch_shape)
    tracer.function("protocol.train", protocol.train)
    tracer.function("protocol.predict", protocol.predict_all)
    tracer.method("protocol.emit_gradient", protocol.UserDevice, "emit_gradient")
    tracer.method("protocol.item_update", protocol.RecommenderState, "update_item")
    tracer.method("protocol.user_update", protocol.UserDevice, "update_user")
    tracer.method("protocol.messages", protocol.MessageChannel, "deliver_gradient", timed=False)
    tracer.function("evaluation.seed_run", evaluation.run_single_seed)
    tracer.function("evaluation.experiment", evaluation.run_experiment)
    tracer.function("evaluation.emit", evaluation.emit_results)


def run_once(cfg, dataset, provenance: list[str]):
    """Everything `hdpmf run` does after loading the dataset."""
    from hdpmf import evaluation

    with ExitStack() as stack:
        trace = None
        if cfg.trace is not None:
            trace = stack.enter_context(open(cfg.trace, "w", encoding="utf-8"))
            trace.write(TRACE_HEADER)
        result = evaluation.run_experiment(cfg, dataset=dataset, trace=trace)
    evaluation.emit_results([result], cfg.output, provenance=provenance)
    return result


def layer_metrics(tracer: Tracer, cfg) -> dict[str, float]:
    """Per-layer numbers of one traced run; times are self times in seconds
    over the whole run unless the name says otherwise."""
    out = {metric: tracer.self_s[layer] for metric, layer in SELF_TIME_METRICS.items()}
    seed_runs = tracer.durations["evaluation.seed_run"]
    out["evaluation.seed_run_s"] = statistics.median(seed_runs) if seed_runs else 0.0
    epochs = tracer.durations["kernels.run_epoch"]
    epoch_s = statistics.median(epochs) if epochs else 0.0
    flops = tracer.gauges.get("kernels.flops_per_epoch", 0.0)
    out.update({
        "rng.streams": tracer.calls["rng.stream"],
        "privacy.noise_plan_shares": tracer.counts["privacy.noise_plan_shares"],
        "privacy.noise_plan_bytes": tracer.gauges.get("privacy.noise_plan_bytes", 0),
        # inclusive of the stream() calls made while drawing the plan
        "privacy.noise_plan_total_s": tracer.total_s["privacy.noise_plan"],
        "kernels.epoch_s": epoch_s,
        "kernels.calls": tracer.calls["kernels.run_epoch"],
        "kernels.flops_per_epoch": flops,
        "kernels.bytes_per_epoch": tracer.gauges.get("kernels.bytes_per_epoch", 0.0),
        "kernels.gflops": flops / epoch_s / 1e9 if epoch_s > 0 else 0.0,
        "protocol.messages": tracer.counts["protocol.messages"],
        "protocol.trace_bytes": os.path.getsize(cfg.trace) if cfg.trace else 0,
        "evaluation.results_bytes": os.path.getsize(cfg.output),
    })
    return out


# -- correctness checks ----------------------------------------------------
def check_results_file(cfg, result) -> tuple[bool, str]:
    from hdpmf.evaluation import read_results

    rows, aggregates = read_results(cfg.output)
    seeds = [row["seed"] for row in rows]
    expected = [r.seed for r in result.seed_results]
    same = [row["mse"] for row in rows] == [r.mse for r in result.seed_results]
    finite = all(math.isfinite(row["mse"]) for row in rows)
    ok = seeds == expected == list(cfg.seeds) and same and finite and len(aggregates) == 1
    return ok, f"seeds {seeds}, mse finite {finite}, rows match run {same}"


def expected_messages(dataset, cfg) -> int:
    """Training nnz x epochs x seeds: leave-n-out holds out exactly n_test
    ratings of every user who has more than n_test."""
    per_user = np.bincount(dataset.users, minlength=dataset.n_users)
    train_nnz = len(dataset) - cfg.n_test * int(np.count_nonzero(per_user > cfg.n_test))
    return train_nnz * cfg.epochs * len(cfg.seeds)


def traced_messages(path: str) -> int:
    total = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split(",")
            if len(parts) == 5 and parts[1] == "item":
                total += int(parts[3])
    return total


def check_engines_agree(cfg, dataset, result) -> tuple[bool, str]:
    from hdpmf import evaluation

    kernel = evaluation.run_experiment(replace(cfg, engine="kernel", trace=None), dataset=dataset)
    pairs = list(zip(result.mse_values, kernel.mse_values))
    worst = max((abs(a - b) / abs(b) for a, b in pairs), default=math.inf)
    ok = len(pairs) == len(cfg.seeds) and worst <= ENGINE_MSE_RTOL
    return ok, f"max relative mse difference {worst:.3g} (tolerance {ENGINE_MSE_RTOL:g})"


def check_kernels_agree(cfg, dataset) -> tuple[bool, str]:
    """A short fit from one start with both kernels must end in the same
    factors."""
    from hdpmf import _fallback
    from hdpmf.data import split_leave_n_out
    from hdpmf.model import init_model, learning_rate

    native = importlib.import_module("hdpmf._native")
    train = split_leave_n_out(dataset, cfg.n_test, cfg.seeds[0]).train
    noise = np.random.Generator(np.random.PCG64(0)).normal(0.0, 1.0, size=(train.n_items, cfg.k))
    user_ptr, _ = train.by_user
    item_ptr, order = train.by_item
    item_users = np.ascontiguousarray(train.users[order])
    item_vals = np.ascontiguousarray(train.ratings[order])
    ends = []
    for impl in (native, _fallback):
        model = init_model(train.n_users, train.n_items, cfg.k, cfg.seeds[0], cfg.lam)
        for t in range(PARITY_EPOCHS):
            impl.run_epoch(
                model.U, model.V, item_ptr, item_users, item_vals, noise,
                user_ptr, train.items, train.ratings, cfg.lam,
                learning_rate(t, PARITY_EPOCHS, cfg.effective_eta0), True,
            )
        ends.append((model.U, model.V))
    diff = max(float(np.max(np.abs(a - b))) for a, b in zip(*ends))
    return diff <= KERNEL_PARITY_ATOL, f"max |native - python| {diff:.3g} after {PARITY_EPOCHS} epochs"


def worker_provenance(hdpmf) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.25 has no dict form
        blas = {}
    return {
        "backend": hdpmf.backend_name(),
        "hdpmf_version": hdpmf.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() just before this process started")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--native", required=True, help="path of the compiled hdpmf._native extension")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.meta_path.insert(0, NativeFinder(args.native))
    setup_tracer = Tracer() if args.trace else None
    import hdpmf
    from hdpmf import data, evaluation

    if setup_tracer is not None:
        setup_tracer.function("data.load", data.load_csv)
    cfg = hdpmf.parse_config(args.config)
    dataset = evaluation.load_dataset(cfg)
    setup_s = time.monotonic() - args.t0
    if setup_tracer is not None:
        setup_tracer.uninstall()
    if hdpmf.backend_name() != workload.backend:
        print(f"expected backend {workload.backend}, got {hdpmf.backend_name()}", file=sys.stderr)
        return 3
    record: dict = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(record), encoding="utf-8")
        return 0

    provenance_lines = [f"{key} = {value}" for key, value in cfg.effective_items()]
    runs: list[dict] = []
    tracers: list[Tracer] = []
    attempted = failed = 0
    aborted = False
    min_runs = 4 if args.trace else 2
    loop_start = time.perf_counter()
    calibration_before = calibrate.measure()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        tracer = Tracer(SPAN_LAYERS, frozenset({"evaluation.seed_run", "kernels.run_epoch"})) if traced else None
        attempted += len(cfg.seeds)
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer:
                    install_layers(tracer)
                    result = run_once(cfg, dataset, provenance_lines)
            else:
                result = run_once(cfg, dataset, provenance_lines)
        except Exception:  # a raise is a failed run: record it and stop measuring
            traceback.print_exc()
            failed += len(cfg.seeds)
            aborted = True
            break
        run_s = time.perf_counter() - start
        calibration_after = calibrate.measure()
        failed += len(cfg.seeds) - len(result.seed_results)
        digest = hashlib.sha256(Path(cfg.output).read_bytes())
        if cfg.trace:
            digest.update(Path(cfg.trace).read_bytes())
        runs.append({
            "traced": traced, "run_s": run_s, "digest": digest.hexdigest(),
            "calibration_s": (calibration_before + calibration_after) / 2.0,
        })
        calibration_before = calibration_after
        if tracer is not None:
            tracers.append(tracer)
        if len(runs) >= min_runs and time.perf_counter() - loop_start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks: list[tuple[str, bool, str]] = []
    if not aborted:
        digests = {r["digest"] for r in runs}
        checks.append(("rerun-identical", len(digests) == 1, f"{len(runs)} runs, {len(digests)} distinct outputs"))
        checks.append(("results-file", *check_results_file(cfg, result)))
        if cfg.trace:
            want, got = expected_messages(dataset, cfg), traced_messages(cfg.trace)
            checks.append(("messages-count", want == got, f"trace has {got} messages, expected {want}"))
        if cfg.engine == "messages":
            checks.append(("engines-agree", *check_engines_agree(cfg, dataset, result)))
        checks.append(("kernels-agree", *check_kernels_agree(cfg, dataset)))
    failed += sum(1 for _, ok, _ in checks if not ok)

    untraced = [r["run_s"] for r in runs if not r["traced"]]
    record.update({
        "attempted": attempted,
        "failed": failed,
        "aborted": aborted,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "run_s_samples": untraced,
        "run_wall_s": statistics.median(untraced) if untraced else math.nan,
        "calibration_s_samples": [r["calibration_s"] for r in runs if not r["traced"]],
        "run_s": calibrate.host_scaled((r["run_s"], r["calibration_s"]) for r in runs if not r["traced"]),
        "peak_rss_mb": peak_rss_mb,
        "mse": result.mse_mean if not aborted else math.nan,
        "provenance": worker_provenance(hdpmf),
    })
    if args.trace:
        traced_s = [r["run_s"] for r in runs if r["traced"]]
        record["traced_run_s_samples"] = traced_s
        per_run = [layer_metrics(t, cfg) for t in tracers]
        layers = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]} if per_run else {}
        layers["data.load_s"] = setup_tracer.total_s["data.load"]
        if per_run:
            record["largest_self_time"] = max(SELF_TIME_METRICS, key=layers.get)
        if traced_s and untraced:
            traced_scaled = calibrate.host_scaled((r["run_s"], r["calibration_s"]) for r in runs if r["traced"])
            layers["tracing_overhead_frac"] = traced_scaled / record["run_s"] - 1.0
        record["layers"] = layers
        if tracers:
            record["spans"] = tracers[-1].spans
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
