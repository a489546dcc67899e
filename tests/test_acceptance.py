"""Acceptance criteria.

Each test prints one `ACCEPTANCE n: ... PASS/FAIL` line (run pytest -s to
see them alongside the assertions). Criteria 1-4 score the reference
MovieLens experiments as `hdpmf run` does: `run_experiment` on the
defaults of `ExperimentConfig`, which the committed `configs/ml100k-*.cfg`
restate (test_cli checks that they do). They require the ML-100K file (see
conftest.ml100k) and skip with an explanatory message when it is not
present. Criteria 5-9 are self-contained and always run.
"""

import time

import numpy as np
import pytest

from hdpmf.baselines import BaselineKind, method_inputs
from hdpmf.cli import main
from hdpmf.config import ExperimentConfig
from hdpmf.diagnostics import check_noise_composition
from hdpmf.evaluation import run_experiment
from hdpmf.model import init_model
from hdpmf.privacy import NoisePlan, WeightAssignment, allocate_weights, build_noise_plan
from hdpmf.protocol import MessageChannel, train
from oracles import fd_gradient_error, random_instance


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def _reference_run(dataset, method: BaselineKind, **changes):
    """`hdpmf run`'s result for `method` at the default setting plus
    `changes`. A diverged seed fails the criterion: the means would skip it."""
    result = run_experiment(ExperimentConfig(method=method, **changes), dataset=dataset)
    assert not result.failures, result.failures
    return result


@pytest.fixture(scope="module")
def ml100k_results(ml100k):
    """Every method's run at the default setting on ML-100K."""
    return {method: _reference_run(ml100k, method) for method in BaselineKind}


def test_criterion_1_nonprivate_reproduction(ml100k):
    start = time.time()
    mf = _reference_run(ml100k, BaselineKind.MF)
    elapsed = time.time() - start
    ok = (
        0.87 <= mf.mse_mean <= 0.98
        and 0.73 <= mf.mae_mean <= 0.80
        and elapsed < 600.0
    )
    _report(
        1, "non-private MF reproduction", ok,
        f"MSE {mf.mse_mean:.4f} in [0.87, 0.98], MAE {mf.mae_mean:.4f} in [0.73, 0.80], "
        f"{elapsed:.0f}s < 600s",
    )


def test_criterion_2_hdpmf_reproduction(ml100k, ml100k_results):
    mse10 = ml100k_results[BaselineKind.HDPMF].mse_mean
    mse5 = _reference_run(ml100k, BaselineKind.HDPMF, k=5).mse_mean
    ok = 1.30 <= mse10 <= 1.65 and 1.10 <= mse5 <= 1.40
    _report(
        2, "private reproduction at the default setting", ok,
        f"K=10 MSE {mse10:.4f} in [1.30, 1.65], K=5 MSE {mse5:.4f} in [1.10, 1.40]",
    )


def test_criterion_3_method_ordering(ml100k_results):
    from scipy import stats

    mf, hd, pd, dp = (
        ml100k_results[m] for m in (BaselineKind.MF, BaselineKind.HDPMF, BaselineKind.PDPMF, BaselineKind.DPMF)
    )
    # one-sided paired t-test at 90% that HDPMF's mean MSE is the lower
    test = stats.ttest_rel(hd.mse_values, pd.mse_values, alternative="less")
    ok = (
        mf.mse_mean < hd.mse_mean < pd.mse_mean < dp.mse_mean
        and test.statistic < 0 and test.pvalue < 0.10
    )
    _report(
        3, "method ordering with significance", ok,
        f"MF {mf.mse_mean:.3f} < HDPMF {hd.mse_mean:.3f} < PDPMF {pd.mse_mean:.3f} "
        f"< DPMF {dp.mse_mean:.3f}; HDPMF<PDPMF at p = {test.pvalue:.2g} (t={test.statistic:.2f})",
    )


def test_criterion_4_rescaling_ablation(ml100k_results):
    hr = ml100k_results[BaselineKind.HDPMF_R].mse_mean
    dp = ml100k_results[BaselineKind.DPMF].mse_mean
    ok = hr > dp
    _report(
        4, "ablation: no rescaling is worse than uniform noise", ok,
        f"HDPMF-R {hr:.3f} > DPMF {dp:.3f}",
    )


def test_criterion_5_noise_composition():
    reports = [
        check_noise_composition(K=10, delta=4.0, epsilon=1.0, raters=r,
                                samples=1_000_000, master_seed=0)
        for r in (1, 5, 50)
    ]
    ok = all(r.passed for r in reports)
    detail = "; ".join(
        f"raters={r.raters}: var off by {abs(r.variance / r.target_variance - 1):.3%}, "
        f"KS {r.ks_distance:.5f}"
        for r in reports
    )
    _report(5, "distributed noise composes to the Laplace target", ok, detail)


def test_criterion_6_gradient_oracle():
    rng = np.random.default_rng(123)
    checked = 0
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(1, 6))
        ds, model, weights = random_instance(rng, K)
        plan = build_noise_plan(ds, K, 1.0, int(rng.integers(10_000)))
        targets = weights.matrix_entries(ds.users, ds.items) * ds.ratings
        worst = max(worst, fd_gradient_error(model, ds, targets, plan.item_totals))
        checked += 1
    ok = checked >= 100 and worst < 1e-5
    _report(6, "analytic gradients match finite differences", ok,
            f"{checked} instances, worst relative error {worst:.2e}")


def test_criterion_7_reduction_bitwise(synth_factory):
    ds = synth_factory(n_users=50, n_items=50, mean_per_user=12, master_seed=101)
    cfg = ExperimentConfig()
    uniform = WeightAssignment(np.ones(ds.n_users), np.ones(ds.n_items))
    mf_model = train(*method_inputs(BaselineKind.MF, ds, uniform, cfg.epsilon, cfg.k, 0), cfg, 0)
    hd_ds, hd_weights, _ = method_inputs(BaselineKind.HDPMF, ds, uniform, cfg.epsilon, cfg.k, 0)
    hd_model = train(hd_ds, hd_weights, NoisePlan.zeros(ds, cfg.k), cfg, 0)
    ok = np.array_equal(mf_model.V, hd_model.V) and np.array_equal(mf_model.U, hd_model.U)
    _report(7, "unit weights + zero noise reduce to plain MF bitwise", ok)


def test_criterion_8_determinism(tmp_path, synth_factory):
    ds = synth_factory(n_users=30, n_items=25, mean_per_user=8, master_seed=103)
    data = tmp_path / "ratings.csv"
    lines = ["user,item,rating"]
    lines += [f"{u},{i},{int(r)}" for u, i, r in zip(ds.users, ds.items, ds.ratings)]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "results.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"dataset = {data}\nformat = csv\nscale_min = 1\nscale_max = 5\n"
        f"method = hdpmf\nk = 4\nepochs = 10\nn_test = 3\nseeds = 0,1,2\n"
        f"output = {out}\n"
    )
    outputs = []
    for _ in range(2):
        assert main(["run", str(cfg)]) == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(8, "identical config and seeds give byte-identical results", ok,
            f"{len(outputs[0])} bytes")


def test_criterion_9_information_flow(synth_factory):
    ds = synth_factory(n_users=20, n_items=20, mean_per_user=6, master_seed=107)
    cfg = ExperimentConfig(epochs=5, k=4, engine="messages")
    weights = allocate_weights(cfg, ds.n_users, ds.n_items, master_seed=0)
    channel = MessageChannel(capture=True)
    model0 = init_model(ds.n_users, ds.n_items, cfg.k, 0)
    inputs = method_inputs(BaselineKind.HDPMF, ds, weights, cfg.epsilon, cfg.k, 0)
    train(*inputs, cfg, 0, channel=channel)

    private_values = set(ds.ratings.tolist())
    private_values |= set(weights.matrix_entries(ds.users, ds.items).tolist())
    private_values |= set(model0.U.ravel().tolist())

    rows = [row for upload in channel.gradient_log for row in upload.payload]
    payload_ok = all(
        isinstance(row, np.ndarray)
        and row.shape == (cfg.k,)
        and row.dtype == np.float64
        for row in rows
    )
    leak_free = all(not (set(row.tolist()) & private_values) for row in rows)
    counts_ok = (
        len(rows) == channel.n_gradient_messages
        and channel.n_gradient_messages == cfg.epochs * len(ds)
        and channel.n_registrations == len(ds)
    )
    ok = payload_ok and leak_free and counts_ok
    _report(
        9, "only K-vector gradients cross the device boundary", ok,
        f"{channel.n_gradient_messages} gradient messages audited",
    )
