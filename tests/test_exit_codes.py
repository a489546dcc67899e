"""The exit-code contract of `hdpmf run` as a property: whatever the config
file and rating file hold, `main` returns 0, 1 or 2, nothing escapes, an
exit 2 prints one `config error:` or `data error:` line, and the run never
writes over its own rating file.

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
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hdpmf.cli import main

# 1e-160 squared is subnormal, 1e-200 squared underflows to 0
EXTREMES = ["nan", "inf", "-inf", "0", "1", "1e308", "-1e308", "5e-324", "1e-160", "1e-200", "-1"]
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
    "split": st.sampled_from(["leave-n-out", "leave-one-out"]),
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
    "split": st.just("random"),
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
