"""The package's top level: exactly the names that the CLI, the benchmark
and README's library use need, each importable from there, and README's
library path runs on them alone. And `src/` holds only what a run, the CLI
or the benchmark calls: every definition in the package is named in
`src/` or `perfbench/`, and the compiled extension exports exactly the
backend's names."""

import ast
from pathlib import Path

import numpy as np

import hdpmf
from hdpmf import kernels
from hdpmf.evaluation import run_single_seed

ROOT = Path(__file__).resolve().parents[1]
DEMO_CSV = ROOT / "configs" / "demo-ratings.csv"


def test_top_level_is_the_documented_surface():
    assert hdpmf.__all__ == [
        "__version__", "ExperimentConfig", "parse_config", "backend_name",
        "BaselineKind", "method_inputs", "allocate_weights", "train", "predict_all", "MessageChannel",
        "RatingDataset", "load_csv", "load_movielens_100k", "load_movielens_1m", "split_leave_n_out",
        "run_experiment", "emit_results",
        "ConfigError", "DivergedRunError", "EmptySplitError", "HdpmfError", "ParseError", "ProtocolError",
    ]
    assert [name for name in hdpmf.__all__ if not hasattr(hdpmf, name)] == []


def test_readme_library_path_uses_top_level_names_only():
    # README's example, on a short run; it scores as `hdpmf run` does
    cfg = hdpmf.ExperimentConfig(method=hdpmf.BaselineKind.HDPMF, n_test=5, epochs=10)
    seed = 0
    data = hdpmf.load_csv(DEMO_CSV, 1, 5)
    weights = hdpmf.allocate_weights(cfg, data.n_users, data.n_items, seed)
    split = hdpmf.split_leave_n_out(data, cfg.n_test, seed)
    inputs = hdpmf.method_inputs(cfg.method, split.train, weights, cfg.epsilon, cfg.k, seed)
    model = hdpmf.train(*inputs, cfg, seed)
    predictions = hdpmf.predict_all(
        model, weights, split.test.users, split.test.items,
        data.scale_min, data.scale_max, rescale=cfg.method.rescales,
    )
    assert len(predictions) == len(split.test) > 0
    errors = predictions - split.test.ratings
    assert np.mean(errors * errors) == run_single_seed(cfg, data, seed).mse


def test_every_definition_in_the_package_is_named_by_src_or_perfbench():
    # a name counts when it is read as a variable or attribute, or written as
    # an identifier string (the tracer and the backend look names up by
    # string); a definition does not name itself
    defined, named = set(), set()
    for path in sorted([*(ROOT / "src" / "hdpmf").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.parent.name == "hdpmf" and not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                named.add(node.value)
    assert sorted(defined - named) == []


def test_every_export_of_the_extension_is_the_backends_or_a_tests(native):
    # the backend binds `kernels._ENTRY_POINTS` and reads `NAME` and `ISA`
    public = {name for name in vars(native) if not name.startswith("_")}
    assert sorted(public) == sorted({*kernels._ENTRY_POINTS, "NAME", "ISA"})
