"""The benchmark's workloads: generated data shape, experiment config and
kernel backend, with the reason each one is in the set."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # value of HDPMF_BACKEND, asserted against backend_name()
    method: str
    engine: str  # kernel | messages
    trace: bool  # write the per-update protocol trace
    n_users: int
    n_items: int
    n_ratings: int
    epochs: int
    seeds: tuple[int, ...]  # the experiment's master seeds, one seed-run each
    k: int = 10
    n_test: int = 10

    def config_text(self, dataset: str, output: str, trace_path: str) -> str:
        lines = [
            f"dataset = {dataset}",
            "format = csv",
            "scale_min = 1",
            "scale_max = 5",
            f"method = {self.method}",
            f"k = {self.k}",
            f"epochs = {self.epochs}",
            "split = leave-n-out",
            f"n_test = {self.n_test}",
            f"seeds = {','.join(str(s) for s in self.seeds)}",
            f"engine = {self.engine}",
            f"output = {output}",
        ]
        if self.trace:
            lines.append(f"trace = {trace_path}")
        return "\n".join(lines) + "\n"


# MovieLens-100K shape: 943 users x 1,682 items. The rating count is fixed
# (not random) so that every workload seed trains on the same number of
# entries and run times compare across seeds.
ML100K_SHAPE = dict(n_users=943, n_items=1682, n_ratings=74_000)
# Each run (one `hdpmf run` after loading) is kept near one to two seconds:
# the calibration loop timed around a run tracks the host's speed only over
# an interval that short (see calibrate.py), hence one master seed per
# experiment and fewer epochs on the two workloads whose cost is per epoch.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reference-native",
            why="the paper's hdpmf experiment on the compiled kernel; the per-rating noise plan dominates, so privacy and rng work shows here",
            backend="native", method="hdpmf", engine="kernel", trace=False,
            epochs=100, seeds=(0,), **ML100K_SHAPE,
        ),
        Workload(
            name="mf-python",
            why="non-private mf on the NumPy kernel over the same data; no noise plan, the epoch loop dominates, so kernel work shows here",
            backend="python", method="mf", engine="kernel", trace=False,
            epochs=30, seeds=(0,), **ML100K_SHAPE,
        ),
        Workload(
            name="messages-trace",
            why="hdpmf through the device/recommender message objects with the update trace on; bypasses the kernels",
            backend="native", method="hdpmf", engine="messages", trace=True,
            n_users=300, n_items=400, n_ratings=10_000, epochs=10, seeds=(0,),
        ),
    )
}
