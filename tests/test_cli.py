"""Config parsing and the CLI subcommands end to end."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hdpmf
from hdpmf.baselines import BaselineKind
from hdpmf.cli import main
from hdpmf.config import ExperimentConfig, parse_config
from hdpmf.evaluation import read_results
from hdpmf.exceptions import ConfigError


def write_csv_dataset(tmp_path, synth_factory, name="ratings.csv", **kw):
    ds = synth_factory(n_users=25, n_items=20, mean_per_user=8, **kw)
    lines = ["user,item,rating"]
    lines += [f"{u},{i},{int(r)}" for u, i, r in zip(ds.users, ds.items, ds.ratings)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def write_config(tmp_path, name="exp.cfg", **keys):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


BASE = dict(
    format="csv", scale_min=1, scale_max=5, k=3, epochs=4, eta0="0.005",
    n_test=3, seeds="0,1",
)


class TestParseConfig:
    def test_empty_file_gives_table_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert (cfg.f_uc, cfg.f_um, cfg.f_ic, cfg.f_im) == (0.54, 0.37, 0.33, 0.33)
        assert cfg.epsilon == 1.0 and cfg.k == 10 and cfg.epochs == 100
        assert (cfg.eps_uc, cfg.eps_um, cfg.eps_ul) == (0.1, 0.5, 1.0)
        assert (cfg.eps_ic, cfg.eps_im, cfg.eps_il) == (0.1, 0.5, 1.0)
        assert cfg.method is BaselineKind.HDPMF
        assert cfg.seeds == (0, 1, 2, 3, 4)

    def test_negative_epsilon_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(write_config(tmp_path, epsilon=-1))

    def test_seed_must_fit_the_noise_key(self, tmp_path):
        assert parse_config(write_config(tmp_path, seeds=2**64 - 1)).seeds == (2**64 - 1,)
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(write_config(tmp_path, seeds=2**64))

    def test_n_test_must_fit_int64(self, tmp_path):
        assert parse_config(write_config(tmp_path, n_test=2**63 - 1)).n_test == 2**63 - 1
        for value in (2**63, 10**23):
            with pytest.raises(ConfigError, match="n_test"):
                parse_config(write_config(tmp_path, n_test=value))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write_config(tmp_path, learning="fast"))

    def test_type_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config(write_config(tmp_path, epochs="ten"))

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nepsilon = 0.5  # inline\n")
        assert parse_config(path).epsilon == 0.5

    def test_hash_inside_value_is_kept(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("dataset = data/run#2.csv\noutput = out#1.csv\t# tab comment\n")
        cfg = parse_config(path)
        assert cfg.dataset == "data/run#2.csv"
        assert cfg.output == "out#1.csv"

    def test_indented_comment_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("   # indented = comment\nk = 5 # note\n")
        assert parse_config(path).k == 5

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epsilon = 1\nepsilon = 2\n")
        with pytest.raises(ConfigError, match="more than once"):
            parse_config(path)

    def test_trace_requires_message_engine(self, tmp_path):
        with pytest.raises(ConfigError, match="trace"):
            parse_config(write_config(tmp_path, trace="t.log"))
        cfg = parse_config(write_config(tmp_path, trace="t.log", engine="messages"))
        assert cfg.trace == "t.log"

    def test_bad_ratio_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, f_uc=0.8, f_um=0.4))

    @pytest.mark.parametrize("path", [None, Path(__file__).parent.parent / "configs" / "demo.cfg"],
                             ids=["defaults", "demo.cfg"])
    def test_effective_items_echo_parses_back(self, tmp_path, path):
        cfg = ExperimentConfig() if path is None else parse_config(path)
        echo = [f"{key} = {value}" for key, value in cfg.effective_items() if value != "None"]
        (tmp_path / "echo.cfg").write_text("\n".join(echo) + "\n")
        assert parse_config(tmp_path / "echo.cfg").effective_items() == cfg.effective_items()


class TestConfigChecks:
    """Direct construction and `dataclasses.replace` run the checks a
    config file gets."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda **kw: ExperimentConfig(**kw), id="direct"),
        pytest.param(lambda **kw: replace(ExperimentConfig(), **kw), id="replace"),
    ])
    @pytest.mark.parametrize("key,value", [
        ("k", 0),
        ("epochs", 0),
        ("fraction", 7),
        ("engine", "bogus"),
        ("trace", "t.log"),
        ("eps_uc", 5),
        ("seeds", ()),
        ("seeds", (1, 1)),
        ("seeds", (2**64,)),
        ("epsilon", float("nan")),
        ("lam", float("inf")),
        ("eta0", 0.0),
        ("lam", -0.1),
        ("epsilon", 0.0),
        ("epsilon", -1.0),
        ("f_uc", -0.1),
        ("f_im", 1.5),
        ("eps_uc", 0.0),
        ("eps_il", 1.5),
        # a value that is a dict sets several keys; `key` is the one at fault
        pytest.param("scale_max", dict(format="csv", scale_min=-1e308, scale_max=1e308), id="scale-range-overflows"),
    ])
    def test_invalid_value_names_its_key(self, make, key, value):
        with pytest.raises(ConfigError, match=rf"\b{key}\b") as info:
            make(**(value if isinstance(value, dict) else {key: value}))
        assert info.value.key == key

    @pytest.mark.parametrize("changes,key", [
        pytest.param({"f_uc": 0.8, "f_um": 0.4}, "f_um", id="f_uc-0.8-f_um-0.4"),
        pytest.param({"f_uc": 0.7, "f_um": 0.5}, "f_um", id="f_uc-0.7-f_um-0.5"),
        pytest.param({"f_ic": 0.6, "f_im": 0.5}, "f_im", id="f_ic-0.6-f_im-0.5"),
        pytest.param({"eps_uc": 0.6, "eps_um": 0.5}, "eps_um", id="eps_uc-0.6-eps_um-0.5"),
        pytest.param({"eps_ul": 0.3}, "eps_ul", id="eps_ul-0.3"),
        pytest.param({"eps_im": 0.05}, "eps_im", id="eps_im-0.05"),
    ])
    def test_privacy_group_error_names_the_field_at_fault(self, changes, key):
        """A ratio pair or weight range is checked field by field against
        the fields before it, so the error names the first field out of
        order, not the group."""
        with pytest.raises(ConfigError, match=rf"\b{key}\b") as info:
            ExperimentConfig(**changes)
        assert info.value.key == key

    def test_privacy_file_error_names_its_key(self, tmp_path, capsys):
        assert main(["run", str(write_config(tmp_path, f_uc=0.8, f_um=0.4))]) == 2
        assert capsys.readouterr().err.startswith("config error: config key 'f_um':")


class TestCmdRun:
    def test_writes_csv_with_seed_rows(self, tmp_path, synth_factory, capsys):
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=67)
        out = tmp_path / "res.csv"
        cfg = write_config(tmp_path, dataset=data, output=out, method="hdpmf", **BASE)
        assert main(["run", str(cfg)]) == 0
        seed_rows, agg_rows = read_results(out)
        assert len(seed_rows) == 2 and len(agg_rows) == 1
        assert "MSE" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, rows", [
        (["run"], 2),
        (["sweep", "--key", "eps_uc", "--values", "0.2,0.3"], 4),
    ], ids=["run", "sweep"])
    def test_header_names_backend_and_versions(self, tmp_path, synth_factory, argv, rows):
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=67)
        out = tmp_path / "res.csv"
        cfg = write_config(tmp_path, dataset=data, output=out, method="hdpmf", **BASE)
        assert main([argv[0], str(cfg), *argv[1:]]) == 0
        ran_by = [f"# backend = {hdpmf.backend_name()}", f"# hdpmf = {hdpmf.__version__}",
                  f"# numpy = {np.__version__}"]
        lines = out.read_text().splitlines()
        header = lines[: lines.index("method,dataset,K,eps,f_uc,eps_uc,fraction,seed,mse,mae")]
        assert all(line in header for line in ran_by)
        without = tmp_path / "without.csv"
        without.write_text("".join(line + "\n" for line in lines if line not in ran_by))
        assert read_results(out) == read_results(without)
        assert len(read_results(out)[0]) == rows  # seeds x sweep values

    def test_missing_dataset_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dataset="/nonexistent/u.data")
        assert main(["run", str(cfg)]) == 2
        assert "/nonexistent/u.data" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2

    def test_non_utf8_files_name_their_path(self, tmp_path, capsys):
        config = tmp_path / "latin.cfg"
        config.write_bytes(b"\xff\xfeformat = csv\n")
        data = tmp_path / "latin.csv"
        data.write_bytes(b"\xff\xfeuser,item,rating\n1,1,3\n")
        for path in (config, write_config(tmp_path, dataset=data, format="csv")):
            assert main(["run", str(path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:")
            assert "not UTF-8" in err[0]
        assert str(data) in err[0]

    @pytest.mark.parametrize("key,value,method", [
        pytest.param("rescale", "false", "mf", id="rescale-mf"),
        pytest.param("rescale", "true", "hdpmf_r", id="rescale-hdpmf_r"),
        pytest.param("rescale", "false", "hdpmf", id="rescale-hdpmf"),
        pytest.param("clamp", "false", "hdpmf", id="clamp-hdpmf"),
    ])
    def test_removed_knobs_are_config_errors(self, tmp_path, synth_factory, capsys, key, value, method):
        # `method` alone picks rescaling, and predictions are always clamped
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=67)
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, dataset=data, output=out, method=method, **{key: value}, **BASE)
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"'{key}': unknown key" in err
        assert not out.exists()

    def test_hdpmf_r_rows_are_labelled_and_not_rescaled(self, tmp_path, synth_factory):
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=67)
        mses = {}
        for method in ("hdpmf", "hdpmf_r"):
            out = tmp_path / f"{method}.csv"
            cfg = write_config(tmp_path, f"{method}.cfg", dataset=data, output=out, method=method, **BASE)
            assert main(["run", str(cfg)]) == 0
            seed_rows, agg_rows = read_results(out)
            assert {r["method"] for r in seed_rows + agg_rows} == {method}
            mses[method] = [r["mse"] for r in seed_rows]
        # same training, so only the missing division by w_ij can differ
        assert all(a != b for a, b in zip(mses["hdpmf"], mses["hdpmf_r"]))

    @pytest.mark.parametrize("body", ["1,1,3\n1,2,4\n2,1,5\n", ""])
    def test_split_with_nothing_to_score_is_a_data_error(self, tmp_path, capsys, body):
        # every user has <= n_test ratings, or the CSV has only its header
        data = tmp_path / "few.csv"
        data.write_text("user,item,rating\n" + body)
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, dataset=data, output=out, **BASE)
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "leave-3-out" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_id_beyond_int64_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("user,item,rating\n1,1,3\n99999999999999999999,2,4\n")
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, dataset=data, output=out, **BASE)
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{data}:3: id 99999999999999999999" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_reruns_are_byte_identical(self, tmp_path, synth_factory):
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=71)
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, "a.cfg", dataset=data, output=out, **BASE)
        assert main(["run", str(cfg)]) == 0
        first = out.read_bytes()
        assert main(["run", str(cfg)]) == 0
        assert first == out.read_bytes()

    def test_diverged_run_exits_nonzero(self, tmp_path, synth_factory, capsys):
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=73)
        cfg = write_config(
            tmp_path, dataset=data, output=tmp_path / "r.csv",
            method="mf", eta0=1e9, epochs=60,
            **{k: v for k, v in BASE.items() if k not in ("eta0", "epochs")},
        )
        assert main(["run", str(cfg)]) == 1
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["kernel", "messages"])
    def test_loss_trace_matches_objective(self, tmp_path, synth_factory, engine):
        from hdpmf.evaluation import load_dataset, run_experiment
        from hdpmf.model import objective_value
        from hdpmf.baselines import BaselineKind, method_inputs
        from hdpmf.privacy import allocate_weights
        from hdpmf.protocol import train
        from hdpmf.data import split_leave_n_out

        data = write_csv_dataset(tmp_path, synth_factory, master_seed=101)
        out = tmp_path / "r.csv"
        cfg_path = write_config(
            tmp_path, dataset=data, output=out, method="hdpmf", engine=engine,
            loss_trace=tmp_path / "loss.csv", **BASE,
        )
        assert main(["run", str(cfg_path)]) == 0
        lines = (tmp_path / "loss.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert len(rows) == 2 * 4  # seeds x epochs
        # cross-check the last logged value for seed 0 against the objective
        # of an independently trained model
        cfg = parse_config(cfg_path)
        ds = load_dataset(cfg)
        plan_split = split_leave_n_out(ds, cfg.n_test, 0)
        w = allocate_weights(cfg, ds.n_users, ds.n_items, 0)
        train_set, entry_weights, plan = method_inputs(
            BaselineKind.HDPMF, plan_split.train, w, cfg.epsilon, cfg.k, 0
        )
        model = train(train_set, entry_weights, plan, cfg, 0)
        targets = w.matrix_entries(train_set.users, train_set.items) * train_set.ratings
        expected = objective_value(model, train_set, targets, plan.item_totals)
        logged = float(rows[cfg.epochs - 1][2])
        assert logged == pytest.approx(expected, rel=1e-9)

    def test_trace_file_written(self, tmp_path, synth_factory):
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=79)
        trace = tmp_path / "trace.log"
        cfg = write_config(
            tmp_path, dataset=data, output=tmp_path / "r.csv",
            engine="messages", trace=trace, **BASE,
        )
        assert main(["run", str(cfg)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("#")
        assert any(",item," in line for line in lines)
        assert any(",user," in line for line in lines)

    def test_failed_run_keeps_earlier_traces(self, tmp_path, synth_factory, capsys):
        # the epsilon check fails after the load, when the traces are open:
        # both earlier files keep their bytes, and no temporary file is left
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=79)
        trace, loss = tmp_path / "t.csv", tmp_path / "l.csv"
        trace.write_text("earlier trace\n")
        loss.write_text("earlier loss trace\n")
        keys = dict(dataset=data, output=tmp_path / "r.csv", engine="messages", trace=trace, loss_trace=loss, **BASE)
        before = {p.name for p in tmp_path.iterdir()}
        assert main(["run", str(write_config(tmp_path, epsilon=5e-324, **keys))]) == 2
        assert capsys.readouterr().err.startswith("config error: config key 'epsilon':")
        assert trace.read_text() == "earlier trace\n"
        assert loss.read_text() == "earlier loss trace\n"
        assert {p.name for p in tmp_path.iterdir()} == before | {"exp.cfg"}

        assert main(["run", str(write_config(tmp_path, **keys))]) == 0
        assert trace.read_text().startswith("# epoch,kind,index,message_count,gradient_norm\n")
        assert loss.read_text().startswith("# seed,epoch,objective\n")
        assert {p.name for p in tmp_path.iterdir()} == before | {"exp.cfg", "r.csv"}


class TestCmdSweep:
    def test_eps_uc_sweep_row_counts(self, tmp_path, synth_factory):
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=83)
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, dataset=data, output=out, method="hdpmf", **BASE)
        assert main(["sweep", str(cfg), "--key", "eps_uc", "--values", "0.1,0.2,0.3,0.4"]) == 0
        seed_rows, agg_rows = read_results(out)
        assert len(seed_rows) == 4 * 2  # values x seeds
        assert len(agg_rows) == 4
        assert sorted({r["eps_uc"] for r in seed_rows}) == [0.1, 0.2, 0.3, 0.4]
        # other spec parameters stay at their configured values
        assert {r["f_uc"] for r in seed_rows} == {0.54}

    def test_fraction_sweep_forces_leave_one_out(self, tmp_path, synth_factory, monkeypatch):
        import hdpmf.evaluation as evaluation

        seen = []
        original = evaluation.split_leave_n_out

        def spy(ds, n_test, seed):
            seen.append(n_test)
            return original(ds, n_test, seed)

        monkeypatch.setattr(evaluation, "split_leave_n_out", spy)
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=89)
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, dataset=data, output=out, method="hdpmf", **BASE)
        assert main(["sweep", str(cfg), "--key", "fraction", "--values", "0.5,1.0"]) == 0
        assert seen and set(seen) == {1}  # leave-one-out was used
        seed_rows, _ = read_results(out)
        assert sorted({r["fraction"] for r in seed_rows}) == [0.5, 1.0]
        assert "# split = leave-one-out" in out.read_text().splitlines()

    def test_invalid_key_rejected(self, tmp_path, synth_factory):
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=97)
        cfg = write_config(tmp_path, dataset=data, output=tmp_path / "o.csv", **BASE)
        assert main(["sweep", str(cfg), "--key", "fraction", "--values", "0,2"]) == 2

    @pytest.mark.parametrize("key", ["trace", "loss_trace"])
    def test_trace_keys_rejected(self, tmp_path, synth_factory, capsys, key):
        # sweep writes no trace, so a trace key would be echoed but ignored
        data = write_csv_dataset(tmp_path, synth_factory, master_seed=97)
        out, trace = tmp_path / "o.csv", tmp_path / "t.log"
        cfg = write_config(tmp_path, dataset=data, output=out, engine="messages", **{key: trace}, **BASE)
        assert main(["sweep", str(cfg), "--key", "eps_uc", "--values", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"'{key}'" in err
        assert not out.exists() and not trace.exists()


_RUN_AND_SWEEP = pytest.mark.parametrize("argv", [
    pytest.param(["run"], id="run"),
    pytest.param(["sweep", "--key", "eps_uc", "--values", "0.1,0.2"], id="sweep"),
])


def _written_path_error_before_any_run(tmp_path, synth_factory, capsys, monkeypatch, argv, key, **keys) -> str:
    """Run `argv` on a config with `keys`, whose values may name "{data}",
    "{config}", "{out}" or "{dir}", with loading and training refused; check
    that it fails on `key` and leaves the rating file as it was, and return
    its one stderr line."""
    import hdpmf.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the data was loaded or a run started before the written paths were checked")

    monkeypatch.setattr(cli, "load_dataset", never)
    monkeypatch.setattr(cli, "run_experiment", never)
    data = write_csv_dataset(tmp_path, synth_factory, master_seed=97)
    before = data.read_bytes()
    names = {"data": data, "config": tmp_path / "exp.cfg", "out": tmp_path / "res.csv", "dir": tmp_path}
    keys = {"output": "{out}", **keys}
    cfg = write_config(tmp_path, dataset=data, **{k: str(v).format(**names) for k, v in keys.items()}, **BASE)
    assert main([argv[0], str(cfg), *argv[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: config key '{key}':")
    assert data.read_bytes() == before
    return err[0]


@_RUN_AND_SWEEP
def test_missing_output_directory_rejected_before_any_run(tmp_path, synth_factory, capsys, monkeypatch, argv):
    output = tmp_path / "no_such_dir" / "res.csv"
    assert "no_such_dir" in _written_path_error_before_any_run(
        tmp_path, synth_factory, capsys, monkeypatch, argv, "output", output=output
    )
    assert not (tmp_path / "no_such_dir").exists()


@_RUN_AND_SWEEP
def test_output_naming_a_directory_rejected_before_any_run(tmp_path, synth_factory, capsys, monkeypatch, argv):
    output = tmp_path / "results"
    output.mkdir()
    assert "names a directory" in _written_path_error_before_any_run(
        tmp_path, synth_factory, capsys, monkeypatch, argv, "output", output=output
    )
    assert not any(output.iterdir())


@_RUN_AND_SWEEP
@pytest.mark.parametrize("value,message", [
    ("{data}", "is the same file as the dataset"),
    ("{config}", "is the same file as the config file"),
    ("./ratings.csv", "is the same file as the dataset"),  # relative, run from tmp_path
    ("{data}/../ratings.csv", "directory not found"),  # the dataset, named through a file
])
def test_output_over_an_input_rejected_before_any_run(tmp_path, synth_factory, capsys, monkeypatch, argv, value, message):
    monkeypatch.chdir(tmp_path)
    err = _written_path_error_before_any_run(
        tmp_path, synth_factory, capsys, monkeypatch, argv, "output", output=value
    )
    assert message in err


@pytest.mark.parametrize("key", ["trace", "loss_trace"])
@pytest.mark.parametrize("value,message", [
    ("{data}", "is the same file as the dataset"),
    ("{config}", "is the same file as the config file"),
    ("{out}", "is the same file as `output`"),
    ("{dir}/nodir/x.csv", "directory not found"),
    ("{dir}", "names a directory"),
])
def test_trace_path_rejected_before_any_run(tmp_path, synth_factory, capsys, monkeypatch, key, value, message):
    err = _written_path_error_before_any_run(
        tmp_path, synth_factory, capsys, monkeypatch, ["run"], key, engine="messages", **{key: value}
    )
    assert message in err
    assert not (tmp_path / "res.csv").exists() and not (tmp_path / "nodir").exists()


def test_two_traces_on_one_file_rejected_on_the_later_key(tmp_path, synth_factory, capsys, monkeypatch):
    err = _written_path_error_before_any_run(
        tmp_path, synth_factory, capsys, monkeypatch, ["run"], "loss_trace",
        engine="messages", trace="{out}.log", loss_trace="{out}.log",
    )
    assert "is the same file as `trace`" in err


@pytest.mark.parametrize("link", ["symlink", "hardlink"])
def test_output_linked_to_the_dataset_rejected_before_any_run(tmp_path, synth_factory, capsys, monkeypatch, link):
    data = write_csv_dataset(tmp_path, synth_factory, master_seed=97)
    alias = tmp_path / "alias.csv"
    (alias.symlink_to if link == "symlink" else alias.hardlink_to)(data)
    err = _written_path_error_before_any_run(
        tmp_path, synth_factory, capsys, monkeypatch, ["run"], "output", output=alias
    )
    assert "is the same file as the dataset" in err


@pytest.mark.parametrize("fmt", ["ml-100k", "ml-1m"])
@pytest.mark.parametrize("key,value", [("scale_min", 0.0), ("scale_max", 10.0)])
def test_movielens_scale_is_fixed(tmp_path, capsys, fmt, key, value):
    with pytest.raises(ConfigError, match="scale is fixed") as info:
        ExperimentConfig(format=fmt, **{key: value})
    assert info.value.key == key
    assert main(["run", str(write_config(tmp_path, format=fmt, **{key: value}))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key '{key}':") and err.count("\n") == 1
    assert ExperimentConfig(format="csv", scale_min=0.0, scale_max=10.0).scale_max == 10.0


@pytest.mark.parametrize("make", [
    pytest.param(lambda **kw: ExperimentConfig(**kw), id="direct"),
    pytest.param(lambda **kw: replace(ExperimentConfig(), **kw), id="replace"),
])
@pytest.mark.parametrize("lo", [1e-200, 5e-324])
def test_weight_bounds_whose_product_underflows_rejected(make, lo):
    # a privacy weight of 0 would stop hdpmf's rescaled prediction
    with pytest.raises(ConfigError, match="underflows to 0") as info:
        make(eps_uc=lo, eps_um=lo, eps_ic=lo, eps_im=lo)
    assert info.value.key == "eps_ic"
    assert make(eps_uc=1e-150, eps_ic=1e-150).eps_ic == 1e-150


_TINY_WEIGHTS = dict(eps_uc=1e-100, eps_um=1e-100, eps_ic=1e-100, eps_im=1e-100)


@pytest.mark.parametrize("keys,key", [
    # weights of 1e-200, a dpmf budget of epsilon * 1e-200 = 0
    pytest.param(dict(method="dpmf", epsilon=1e-200, **_TINY_WEIGHTS), "epsilon", id="dpmf-budget-underflow"),
    pytest.param(dict(epsilon=5e-324), "epsilon", id="epsilon-5e-324"),
    # weights of 0: the weight-range check fires before any budget is formed
    pytest.param(dict(method="dpmf", eps_uc=1e-200, eps_um=1e-200, eps_ic=1e-200, eps_im=1e-200),
                 "eps_ic", id="dpmf-weight-underflow"),
])
def test_unusable_budget_exits_2_with_one_line(tmp_path, synth_factory, capsys, keys, key):
    data = write_csv_dataset(tmp_path, synth_factory, master_seed=67)
    out = tmp_path / "res.csv"
    cfg = write_config(tmp_path, dataset=data, output=out, **{**BASE, "seeds": 0, **keys})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config key '{key}':") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 8.00 EiB for an array", "run failed: Unable to allocate 8.00 EiB for an array"),
    ("", "run failed: out of memory"),
])
def test_memory_error_is_a_run_failure(tmp_path, synth_factory, capsys, monkeypatch, message, line):
    import hdpmf.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_experiment", exhausted)
    data = write_csv_dataset(tmp_path, synth_factory, master_seed=67)
    cfg = write_config(tmp_path, dataset=data, output=tmp_path / "res.csv", **BASE)
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [line]


@_RUN_AND_SWEEP
@pytest.mark.parametrize("k", [10**22, 10**12])
def test_huge_k_rejected_before_anything_k_sized(tmp_path, synth_factory, capsys, monkeypatch, argv, k):
    # a K whose factors alone exceed physical memory is a config error on
    # `k`; nothing K-sized may be reached, so NumPy never sees the size
    import hdpmf.baselines
    import hdpmf.evaluation
    import hdpmf.protocol

    def never(*args, **kwargs):
        raise AssertionError("a K-sized allocation was reached before k was checked")

    for module, name in (
        (hdpmf.protocol, "init_model"),
        (hdpmf.baselines, "build_noise_plan"), (hdpmf.evaluation, "allocate_weights"),
    ):
        monkeypatch.setattr(module, name, never)
    data = write_csv_dataset(tmp_path, synth_factory, master_seed=98)
    cfg = write_config(tmp_path, dataset=data, output=tmp_path / "res.csv", **{**BASE, "k": k})
    assert main([argv[0], str(cfg), *argv[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: config key 'k': K = {k} with ")
    assert not (tmp_path / "res.csv").exists()


def test_k_limit_follows_physical_memory(synth_factory, monkeypatch):
    # the bound is U and V in float64: (n_users + n_items) * K * 8 bytes
    import hdpmf.evaluation as evaluation

    ds = synth_factory(n_users=25, n_items=20, mean_per_user=8, master_seed=99)
    pages = {"SC_PAGE_SIZE": 64, "SC_PHYS_PAGES": ds.n_users + ds.n_items}
    monkeypatch.setattr(evaluation.os, "sysconf", pages.__getitem__)
    evaluation._check_k_fits(ExperimentConfig(k=8), ds)
    with pytest.raises(ConfigError, match="config key 'k'"):
        evaluation._check_k_fits(ExperimentConfig(k=9), ds)


class TestCmdCheckNoise:
    def test_small_check_passes(self, capsys):
        code = main([
            "check-noise", "--dim", "10", "--delta", "4", "--eps", "1",
            "--raters", "1,5", "--samples", "200000", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_doubling_eps_quarters_variance(self):
        from hdpmf.diagnostics import check_noise_composition

        a = check_noise_composition(10, 4.0, 1.0, 5, 100_000, 0)
        b = check_noise_composition(10, 4.0, 2.0, 5, 100_000, 0)
        assert b.variance == pytest.approx(a.variance / 4.0, rel=1e-9)
        assert b.target_variance == pytest.approx(a.target_variance / 4.0)

    def test_raters_one_reduces_to_single_draw_form(self):
        from hdpmf.diagnostics import check_noise_composition

        report = check_noise_composition(10, 4.0, 1.0, 1, 150_000, 1)
        assert report.passed
        assert report.variance == pytest.approx(report.target_variance, rel=0.03)

    def test_ks_statistic_matches_scipy(self):
        # SciPy as the oracle: the same double as scipy.stats.kstest
        from scipy import stats

        from hdpmf.diagnostics import check_noise_composition, sample_aggregate_noise

        for raters, seed in ((1, 0), (5, 3), (50, 1)):
            report = check_noise_composition(10, 4.0, 1.0, raters, 20_000, seed)
            draws = sample_aggregate_noise(10, 4.0, 1.0, raters, 20_000, seed)
            oracle = stats.kstest(draws, stats.laplace(scale=report.scale).cdf).statistic
            assert report.ks_distance == float(oracle)

    def test_too_few_samples_rejected(self):
        from hdpmf.diagnostics import MIN_SAMPLES, check_noise_composition

        with pytest.raises(ValueError, match="samples"):
            check_noise_composition(10, 4.0, 1.0, 1, MIN_SAMPLES - 1, 0)

    def test_half_variance_sampler_fails_at_minimum(self, monkeypatch):
        from hdpmf import diagnostics

        true_sampler = diagnostics.sample_aggregate_noise

        def half_variance(*args, **kwargs):
            return true_sampler(*args, **kwargs) / np.sqrt(2.0)

        exact = diagnostics.check_noise_composition(10, 4.0, 1.0, 5, diagnostics.MIN_SAMPLES, 0)
        monkeypatch.setattr(diagnostics, "sample_aggregate_noise", half_variance)
        half = diagnostics.check_noise_composition(10, 4.0, 1.0, 5, diagnostics.MIN_SAMPLES, 0)
        assert exact.passed
        assert half.variance == pytest.approx(exact.variance / 2.0, rel=1e-12)
        assert not half.variance_ok and not half.passed
        assert "[FAIL]" in "\n".join(half.lines())


@pytest.mark.parametrize("argv", [
    ["sweep", "{dir}/exp.cfg", "--key", "eps_uc", "--values", "abc"],
    ["check-noise", "--dim", "0"],
    ["check-noise", "--raters", "x"],
    ["check-noise", "--raters", "0"],
    ["check-noise", "--samples", "0"],
    ["check-noise", "--samples", "1"],
    ["check-noise", "--delta", "0"],
    ["check-noise", "--delta", "-4"],
    ["check-noise", "--eps", "0"],
    ["check-noise", "--eps", "-1"],
    ["run", "{dir}"],
    ["run", "{dir}/seed-2-64.cfg"],
    ["run", "{dir}/bad-row.cfg"],
    ["run", "{dir}/epsilon-nan.cfg"],
    ["run", "{dir}/epsilon-inf.cfg"],
    ["run", "{dir}/lam-nan.cfg"],
    ["run", "{dir}/eta0-inf.cfg"],
    ["run", "{dir}/scale_max-inf.cfg"],
    ["run", "{dir}/n_test-1e23.cfg"],
], ids=lambda argv: " ".join(argv).replace("{dir}", "DIR"))
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, argv):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("user,item,rating\n1,1,3\n1,2,4\n2,1,5\n2,2,2\n")
    (tmp_path / "seed-2-64.cfg").write_text(
        f"dataset = {ratings}\nformat = csv\nn_test = 1\nseeds = 18446744073709551616\n"
    )
    bad_row = tmp_path / "bad-row.csv"
    bad_row.write_text("user,item,rating\n1,1,3\n1,2,x\n")
    (tmp_path / "bad-row.cfg").write_text(f"dataset = {bad_row}\nformat = csv\n")
    for key, value in (("epsilon", "nan"), ("epsilon", "inf"), ("lam", "nan"), ("eta0", "inf"), ("scale_max", "inf")):
        (tmp_path / f"{key}-{value}.cfg").write_text(
            f"dataset = {ratings}\nformat = csv\nn_test = 1\nepochs = 2\n"
            f"output = {tmp_path / 'r.csv'}\n{key} = {value}\n"
        )
    (tmp_path / "n_test-1e23.cfg").write_text(
        f"dataset = {ratings}\nformat = csv\nn_test = {10**23}\nepochs = 2\noutput = {tmp_path / 'r.csv'}\n"
    )
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argument itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err and "Traceback" not in err
    if argv[0] == "run":
        assert err.count("\n") == 1
