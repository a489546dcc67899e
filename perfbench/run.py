"""End-to-end benchmark of `hdpmf run` with per-layer timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reference-native --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn

For the given workload seed it generates a synthetic rating CSV and a config
file under `.bench_work/`, so the package only ever sees those files. It
compiles the committed `src/hdpmf/_native.c` into `.bench_build/` (or
`$CARGO_TARGET_DIR`) once per checkout; the build is not timed. Then it
starts fresh single processes, one after another, with BLAS pinned to one
thread:

* `--trace 0`: a few set-up probes and one measuring process, giving the
  end-to-end metrics `setup_s`, `run_s`, `peak_rss_mb` and `mse`;
* `--trace 1`: one process alternating untraced and traced runs, giving the
  per-layer metrics and `tracing_overhead_frac`.

Both modes run the correctness checks. The last line of standard output is a
JSON object with `correct`, `attempted` (seed-runs), `failed` (seed-runs
that diverged or raised, plus failed checks) and `metrics`. The exit code is
0 when every check passed, 1 when one failed, 2 when the benchmark could not
run at all (for example, no `src/hdpmf` in the working directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import native_build
import synthetic
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3  # fresh processes that only set up, each bracketed by the calibration loop
WORKER_GRACE_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "mse": "sq_rating"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_per_epoch"):
        return "B"
    if name.endswith("flops_per_epoch"):
        return "FLOP"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_revision(root: Path) -> str:
    """Read HEAD from `.git` without running git; a plain checkout has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def prepare_inputs(root: Path, workload, seed: int) -> tuple[Path, Path, dict]:
    """Generate the rating CSV and the config for one workload seed."""
    work = root / ".bench_work" / f"{workload.name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    users, items, ratings = synthetic.make_ratings(
        seed, workload.n_users, workload.n_items, workload.n_ratings
    )
    csv = work / "ratings.csv"
    synthetic.write_csv(csv, users, items, ratings)
    rel = work.relative_to(root)
    config = work / "bench.cfg"
    config.write_text(
        workload.config_text(str(rel / "ratings.csv"), str(rel / "results.csv"), str(rel / "trace.csv")),
        encoding="utf-8",
    )
    shape = {
        "users": int(len(set(users.tolist()))),
        "items": int(len(set(items.tolist()))),
        "ratings": int(len(ratings)),
    }
    return work, config, shape


def worker_env(root: Path, backend: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["HDPMF_BACKEND"] = backend
    env["PYTHONHASHSEED"] = "0"  # same dict layouts in every process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(root: Path, args: list[str], env: dict, out: Path, timeout: float) -> dict:
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out", str(out), "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not out.is_file():
        raise BenchError(f"worker exited with code {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int, native: Path) -> dict:
    workload = WORKLOADS[name]
    work, config, shape = prepare_inputs(root, workload, seed)
    env = worker_env(root, workload.backend)
    common = ["--workload", name, "--config", str(config.relative_to(root)), "--native", str(native)]
    setup_samples = []  # (wall_s, calibration_s) of each set-up probe
    if not trace:
        before = calibrate.measure()
        for i in range(SETUP_PROBES):
            probe = run_worker(root, common + ["--setup-only"], env, work / f"setup-{i}.json", WORKER_GRACE_S)
            after = calibrate.measure()
            setup_samples.append((probe["setup_s"], (before + after) / 2.0))
            before = after
    record = run_worker(
        root, common + ["--seconds", str(seconds), "--trace", str(trace)],
        env, work / f"worker-trace{trace}.json", seconds + WORKER_GRACE_S,
    )
    record["setup_s_samples"] = setup_samples
    record["setup_s"] = calibrate.host_scaled(setup_samples) if setup_samples else record["setup_s"]
    record["provenance"].update({
        "workload": name,
        "workload_seed": seed,
        "data_shape": shape,
        "git_revision": git_revision(root),
        "native_c_sha256": native_build.source_sha256(root),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    })
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(record["layers"].items())}
    else:
        metrics = {k: {"value": record[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    record["metrics"] = metrics
    (work / f"record-trace{trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def report(name: str, record: dict) -> None:
    print(f"== {name}")
    for key, value in record["provenance"].items():
        print(f"  provenance {key}: {value}")
    for check in record["checks"]:
        print(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")
    print(f"  seed_runs {record['attempted']}  seed_runs_failed {record['failed']}")
    for key, metric in record["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    if "run_wall_s" in record and "calibration_s_samples" in record:
        loop_s = statistics.median(record["calibration_s_samples"])
        print(f"  unscaled: median run wall {record['run_wall_s']:.4g} s, calibration loop {loop_s:.4g} s"
              f" (reference {calibrate.REFERENCE_S:g} s)")
    top = record.get("largest_self_time")
    if top:
        traced_s = statistics.median(record["traced_run_s_samples"])
        print(f"  largest self-time layer: {top} ({record['layers'][top]:.4g} s of a {traced_s:.4g} s traced run)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "hdpmf" / "__init__.py").is_file():
            raise BenchError("run from the root of an hdpmf checkout: src/hdpmf not found")
        build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        native = native_build.build(root, build_dir)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        records = {n: run_workload(root, n, args.seed, args.seconds, args.trace, native) for n in names}
    except (BenchError, FileNotFoundError, RuntimeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, record in records.items():
        report(name, record)
    prefix = len(records) > 1
    metrics = {
        (f"{name}.{key}" if prefix else key): metric
        for name, record in records.items()
        for key, metric in record["metrics"].items()
    }
    # a raise, a divergence and a failed check each count in `failed`
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = finite and all(record["failed"] == 0 for record in records.values())
    if not finite:
        metrics = {k: {**m, "value": m["value"] if math.isfinite(m["value"]) else None} for k, m in metrics.items()}
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
