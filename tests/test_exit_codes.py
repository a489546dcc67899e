"""The exit-code contract of `hdpmf run` as a property: whatever the config
file and rating file hold, `main` returns 0, 1 or 2, nothing escapes, an
exit 2 prints one `config error:` or `data error:` line, and the run never
writes over its own rating file. A refused kernel backend is an exit 2
with one `config error:` line too. `hdpmf sweep` and `hdpmf check-noise`
keep the same contract whatever their arguments, except that an argument
argparse refuses by itself ends in its usage and one `error:` line.

The strategy is bounded only to keep each example to milliseconds and
little memory: `epochs` is 1 or 2, at most two seeds, and `k` is 1-8 or at
least 10^12, which the K check rejects before anything K-sized is
allocated. A value in between is never drawn.

So that examples reach training, prediction and the written files as well
as the config checks, every key draws from its valid values or its wild
ones, and a calm example draws only valid values, leaves the rating file
whole and adds no stray lines. Keys that are checked together (the scale,
a ratio pair, a weight range) are drawn together, and such a group may
take one shared extreme for all its keys, even in a calm example, so that
extremes meet: every weight bound at 1e-200, say.
"""

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hdpmf
from hdpmf.cli import SWEEP_KEYS, main
from hdpmf.diagnostics import MIN_SAMPLES

# 1e-160 squared is subnormal, 1e-200 squared underflows to 0; as an epsilon,
# 1e-307 leaves 2 * delta / epsilon finite and the noise plan's scale not
EXTREMES = ["nan", "inf", "-inf", "0", "1", "1e308", "-1e308", "5e-324", "1e-160", "1e-200", "1e-307", "-1"]
# a valid value for each float key (the eps_* ones in their group's order)
FLOAT_KEYS = {
    "scale_min": "1", "scale_max": "5", "eta0": "0.01", "lam": "0.01", "epsilon": "1",
    "fraction": "0.6", "f_uc": "0.5", "f_um": "0.3", "f_ic": "0.3", "f_im": "0.3",
    "eps_uc": "0.1", "eps_um": "0.5", "eps_ul": "1", "eps_ic": "0.2", "eps_im": "0.5", "eps_il": "0.8",
}
WRITTEN = ("output", "trace", "loss_trace")
SEEDS = st.sampled_from([0, 1, 3])
VALID = {
    **{key: st.just(value) for key, value in FLOAT_KEYS.items()},
    "format": st.sampled_from(["csv", "ml-100k", "ml-1m"]),
    "method": st.sampled_from(["mf", "dpmf", "pdpmf", "hdpmf", "hdpmf_r"]),
    "split": st.just("leave-n-out"),
    "engine": st.sampled_from(["kernel", "messages"]),
    "k": st.integers(1, 8).map(str),
    "epochs": st.sampled_from(["1", "2"]),
    "n_test": st.integers(1, 12).map(str),
    "seeds": st.lists(SEEDS, min_size=1, max_size=2, unique=True).map(lambda s: ",".join(map(str, s))),
    **dict.fromkeys(WRITTEN, st.just("fresh")),
}
# where a written key may point, besides a fresh file: the rating file
# (named relative to the run directory, while `dataset` is absolute), the
# config file, a directory, a missing directory, or another written key's file
TARGETS = ["dataset", "config", "directory", "missing", *(f"same:{k}" for k in WRITTEN)]
WILD = {
    **dict.fromkeys(FLOAT_KEYS, st.sampled_from(EXTREMES)),
    "format": st.just("tsv"),
    "method": st.sampled_from(["HDPMF", "dp"]),
    "split": st.sampled_from(["random", "leave-one-out"]),
    "engine": st.just("batch"),
    "k": st.integers(10**12, 10**30).map(str),
    "epochs": st.nothing(),
    "n_test": st.integers(-2, 10**30).map(str),
    "seeds": st.lists(st.one_of(SEEDS, st.sampled_from([2**64 - 1, 2**64, -1])), min_size=1, max_size=2)
    .map(lambda s: ",".join(map(str, s))),
    **dict.fromkeys(WRITTEN, st.sampled_from(TARGETS)),
}
MUTATIONS = ["bad-field", "out-of-scale", "duplicate", "nul", "crlf", "empty"]
LAYOUTS = {"csv": (",", False), "ml-100k": ("\t", True), "ml-1m": ("::", True)}

# 6 users rating 11-14 of 20 items each, on the scale [1, 5]
RATINGS = [(u, (u * 7 + j) % 20, 1 + (u + 2 * j) % 5) for u in range(6) for j in range(11 + u % 4)]


def _rarely(p: int) -> st.SearchStrategy[bool]:
    """True about once in `p` draws."""
    return st.sampled_from([False] * (p - 1) + [True])


# the bounded keys are always written, so their defaults (100 epochs, five
# seeds) never apply; every other group of keys may be left out
BOUNDED = ("k", "epochs", "seeds")
FLOAT_GROUPS = (
    ("scale_min", "scale_max"), ("eta0",), ("lam",), ("epsilon",), ("fraction",),
    ("f_uc", "f_um"), ("f_ic", "f_im"), ("eps_uc", "eps_um", "eps_ul"), ("eps_ic", "eps_im", "eps_il"),
)
OPTIONAL = (*FLOAT_GROUPS, *((key,) for key in ("format", "method", "split", "engine", "n_test", *WRITTEN)))


@st.composite
def runs(draw):
    """The config's lines, the rating file's layout and its mutations."""
    calm = draw(st.booleans())

    def value(key: str) -> str:
        if calm:
            return draw(VALID[key])
        if draw(_rarely(12)):
            return ""
        return draw(st.one_of(VALID[key], WILD[key]))

    shared = draw(st.sampled_from(EXTREMES))
    values = {key: value(key) for key in BOUNDED}
    for group in draw(st.lists(st.sampled_from(OPTIONAL), unique=True)):
        in_common = group in FLOAT_GROUPS and draw(_rarely(3))
        values.update((key, shared if in_common else value(key)) for key in group)
    if calm and "trace" in values:
        values["engine"] = "messages"  # a trace needs the message engine
    lines = [f"{key} = {v}" for key, v in values.items()]
    layout = values.get("format", "ml-100k")
    if calm:
        return lines, layout, set()
    if draw(_rarely(8)):
        lines.insert(draw(st.integers(0, len(lines))), "bogus_key = 1")
    if draw(_rarely(8)):
        lines.append(draw(st.sampled_from(lines)))  # a duplicate key
    if draw(_rarely(4)):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i] + draw(st.sampled_from([" # note", "#x", "\t#"]))
    if draw(_rarely(4)):
        lines.insert(0, "# stray comment")
    if layout not in LAYOUTS or draw(_rarely(8)):
        layout = draw(st.sampled_from(sorted(LAYOUTS)))
    return lines, layout, draw(st.sets(st.sampled_from(MUTATIONS), max_size=2))


def _rating_file(layout: str, mutations: set[str]) -> bytes:
    sep, timestamped = LAYOUTS[layout]
    rows = [[str(u), str(i), str(r)] + ["0"] * timestamped for u, i, r in RATINGS]
    if "bad-field" in mutations:
        rows[4][2] = "x"
    if "out-of-scale" in mutations:
        rows[7][2] = "9"
    if "duplicate" in mutations:
        rows.append(rows[0])
    header = ["user,item,rating"] if layout == "csv" else []
    text = "\n".join(header + [sep.join(row) for row in rows]) + "\n"
    if "nul" in mutations:
        text = text[:30] + "\x00" + text[30:]
    if "crlf" in mutations:
        text = text.replace("\n", "\r\n")
    return b"" if "empty" in mutations else text.encode()


def _resolve(line: str, root: Path) -> str:
    """Turn a drawn path target into a path under `root`."""
    key, sep, value = line.partition(" = ")
    if not sep or key not in WRITTEN:
        return line
    paths = {
        "fresh": f"{key}.out", "dataset": "data.csv", "config": str(root / "run.cfg"),
        "directory": "adir", "missing": "nodir/x.csv",
        **{f"same:{k}": f"{k}.out" for k in WRITTEN},
    }
    for target, path in paths.items():
        if value.startswith(target):
            return f"{key} = {path}{value[len(target):]}"
    return line


@settings(max_examples=200, deadline=None)
@given(runs())
@example((["k = 2", "epochs = 1", "seeds = 0", "format = csv", "method = hdpmf", "epsilon = 1e-307"],
          "csv", set()))
def test_every_run_exits_0_1_or_2_and_leaves_its_data_alone(drawn):
    lines, layout, mutations = drawn
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = root / "data.csv"
        data.write_bytes(_rating_file(layout, mutations))
        before = data.read_bytes()
        (root / "adir").mkdir()
        config = root / "run.cfg"
        config.write_text("".join(
            line + "\n" for line in [f"dataset = {data}", *(_resolve(line, root) for line in lines)]
        ))
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # the default output, results.csv, lands here
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(["run", str(config)])
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), (code, err.getvalue())
        if code == 2:
            out = err.getvalue().splitlines()
            assert len(out) == 1 and out[0].startswith(("config error:", "data error:")), out
        assert data.read_bytes() == before


def _exit_of(argv: list[str]) -> tuple[int, bool, list[str]]:
    """main's exit code for argv, whether argparse refused an argument
    (and exited), and the stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code, refused = main(argv), False
        except SystemExit as exc:
            code, refused = exc.code, True
    return code, refused, err.getvalue().splitlines()


def _assert_contract(argv: list[str]) -> None:
    code, refused, lines = _exit_of(argv)
    assert not any(line.startswith("Traceback") for line in lines), lines
    if refused:
        assert code == 2 and lines[-1].startswith(f"hdpmf {argv[0]}: error: "), (code, lines)
        return
    assert code in (0, 1, 2), (code, lines)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith(("config error:", "data error:")), lines


def _comma_joined(values: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.lists(values, min_size=1, max_size=3).map(",".join)


def _either(calm: bool, valid: st.SearchStrategy, wild: st.SearchStrategy) -> st.SearchStrategy:
    """A valid value in a calm example, else a valid or a wild one."""
    return valid if calm else st.one_of(valid, wild)


# the extremes that argparse takes as numbers, and those that are positive
FINITE = [v for v in EXTREMES if v not in ("nan", "inf", "-inf")]
POSITIVE = [v for v in FINITE if not v.startswith(("-", "0"))]
# valid values of each sweep key among them, and the finite extremes
SWEEP_VALUES = _comma_joined(st.sampled_from(["0.05", "0.1", "0.25", "0.5", "0.7", "1", *FINITE]))
WILD_SWEEP_VALUES = st.one_of(_comma_joined(st.sampled_from(EXTREMES)),
                              st.sampled_from(["", ",", "x", "1,,x", "0.5,abc"]))


@st.composite
def sweeps(draw):
    """A sweep's config lines (a small valid run, which outside a calm
    example may ask for a trace) and its key and values."""
    calm = draw(st.booleans())
    lines = [
        "format = csv", f"k = {draw(st.integers(1, 4))}", "epochs = 1", "seeds = 0", "n_test = 2",
        f"method = {draw(VALID['method'])}", f"engine = {draw(VALID['engine'])}", "output = results.csv",
    ]
    if not calm and draw(_rarely(6)):
        lines.append(draw(st.sampled_from(["trace", "loss_trace"])) + " = trace.out")
    key = draw(_either(calm, st.sampled_from(SWEEP_KEYS), st.sampled_from(["epsilon", "EPS_UC", ""])))
    return lines, key, draw(_either(calm, SWEEP_VALUES, WILD_SWEEP_VALUES))


@settings(max_examples=60, deadline=None)
@given(sweeps())
def test_every_sweep_exits_0_1_or_2(drawn):
    lines, key, values = drawn
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data, before = root / "data.csv", _rating_file("csv", set())
        data.write_bytes(before)
        config = root / "sweep.cfg"
        config.write_text("".join(line + "\n" for line in [f"dataset = {data}", *lines]))
        cwd = os.getcwd()
        os.chdir(root)  # results.csv and trace.out land here
        try:
            _assert_contract(["sweep", str(config), "--key", key, "--values", values])
        finally:
            os.chdir(cwd)
        assert data.read_bytes() == before


def _flag(name: str, values: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    """The flag with a drawn value, or nothing (its default)."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def noise_checks(draw):
    """check-noise's arguments. Samples and raters are always given and
    stay small (at most 10^4 samples, 50 raters and three rater counts),
    so that every drawn check is allocatable and fast. delta and eps draw
    the positive extremes even in a calm example, so that the Laplace
    scale 2 * sqrt(K) * delta / eps overflows or underflows while each
    flag is valid."""
    calm = draw(st.booleans())
    dim = _either(calm, st.one_of(st.integers(1, 64).map(str), st.sampled_from([str(10**30), str(10**400)])),
                  st.sampled_from(["0", "-1", "x", "1.5"]))
    positive = _either(calm, st.sampled_from(["4", "0.5", "2.5", *POSITIVE]), st.sampled_from(EXTREMES))
    raters = _either(calm, _comma_joined(st.integers(1, 50).map(str)), st.sampled_from(["", ",", "0", "x", "5,0"]))
    samples = _either(calm, st.integers(MIN_SAMPLES, 10_000).map(str),
                      st.sampled_from([str(MIN_SAMPLES - 1), "0", "-1", "x", "1e3"]))
    seed = _either(calm, st.sampled_from(["0", "1", "3", str(2**64 - 1), str(2**64)]), st.sampled_from(["-1", "x"]))
    return ["check-noise", *draw(_flag("--dim", dim)), *draw(_flag("--delta", positive)),
            *draw(_flag("--eps", positive)), "--raters", draw(raters), "--samples", draw(samples),
            *draw(_flag("--seed", seed))]


@settings(max_examples=100, deadline=None)
@given(noise_checks())
# the scale overflows to inf, underflows to 0, or is finite with a square
# that overflows
@example(["check-noise", "--raters", "1", "--samples", "1000", "--eps", "1e-320"])
@example(["check-noise", "--delta", "1e-300", "--eps", "1e300", "--raters", "1", "--samples", "1000"])
@example(["check-noise", "--eps", "1e-200", "--raters", "1", "--samples", "1000"])
@example(["check-noise", "--dim", str(10**400), "--raters", "1", "--samples", "1000"])
def test_every_noise_check_exits_0_1_or_2(argv):
    _assert_contract(argv)


@pytest.mark.parametrize("backend", ["pyhton", "native"])
def test_refused_backend_exits_2_with_one_line(tmp_path, backend):
    # the package's sources without any compiled extension, so that forcing
    # `native` is refused as well as a misspelt backend
    (tmp_path / "hdpmf").mkdir()
    for source in Path(hdpmf.__file__).parent.glob("*.py"):
        shutil.copy(source, tmp_path / "hdpmf" / source.name)
    data, output = tmp_path / "data.csv", tmp_path / "results.csv"
    data.write_bytes(_rating_file("csv", set()))
    config = tmp_path / "run.cfg"
    config.write_text(f"dataset = {data}\nformat = csv\nk = 2\nepochs = 1\nseeds = 0\noutput = {output}\n")
    env = dict(os.environ, HDPMF_BACKEND=backend, PYTHONPATH=str(tmp_path))
    done = subprocess.run([sys.executable, "-m", "hdpmf.cli", "run", str(config)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    out = done.stderr.splitlines()
    assert len(out) == 1 and out[0].startswith("config error: config key 'HDPMF_BACKEND':"), out
    assert not output.exists()
