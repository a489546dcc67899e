"""Dataset ingestion, splits, folds, and subsampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpmf.data import (
    RatingDataset,
    _dense_remap,
    _read_bulk,
    _read_lines,
    kfold_splits,
    load_csv,
    load_movielens_100k,
    load_movielens_1m,
    split_leave_n_out,
    subsample_per_user,
)
from hdpmf.exceptions import ParseError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class Format:
    """One file format: how a rating line is written, how the file is
    loaded, and the arguments of its bulk parse and line loop."""

    def __init__(self, filename, sep, n_fields, header, load):
        self.filename, self.sep, self.n_fields, self.header, self.load = filename, sep, n_fields, header, load
        self.first_line_no = 2 if header else 1

    def line(self, u, i, r):
        return self.sep.join([str(u), str(i), str(r)] + ["881250949"] * (self.n_fields - 3))

    def text(self, lines, eol="\n"):
        return ("user,item,rating" + eol if self.header else "") + "".join(f"{line}{eol}" for line in lines)

    def write(self, tmp_path, lines, eol="\n"):
        path = tmp_path / self.filename
        path.write_bytes(self.text(lines, eol).encode())
        return path

    def bulk(self, path):
        return _read_bulk(path, self.sep, self.n_fields, 1.0, 5.0, self.header)

    def loop(self, path):
        return _read_lines(path, self.sep, self.n_fields, 1.0, 5.0, self.header)


FORMATS = {
    "csv": Format("r.csv", ",", 3, True, lambda p: load_csv(p, 1.0, 5.0)),
    "ml-100k": Format("u.data", "\t", 4, False, load_movielens_100k),
    "ml-1m": Format("r.dat", "::", 4, False, load_movielens_1m),
}


class TestRatingDataset:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RatingDataset(
                np.array([0, 0]), np.array([1, 1]), np.array([3.0, 4.0]), 1, 2, 1, 5
            )

    def test_out_of_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            RatingDataset(np.array([0]), np.array([0]), np.array([6.0]), 1, 1, 1, 5)

    def test_entries_canonically_sorted(self, synth_factory):
        ds = RatingDataset(
            np.array([1, 0, 1]), np.array([0, 0, 1]), np.array([2.0, 3.0, 4.0]), 2, 2, 1, 5
        )
        assert ds.users.tolist() == [0, 1, 1]
        assert ds.items.tolist() == [0, 0, 1]
        assert ds.ratings.tolist() == [3.0, 2.0, 4.0]
        # a subset keeps the canonical order without sorting again
        big = synth_factory(n_users=20, n_items=15, mean_per_user=6, master_seed=5)
        mask = np.random.default_rng(5).random(len(big)) < 0.7
        perm = np.random.default_rng(6).permutation(int(mask.sum()))
        shuffled = RatingDataset(
            big.users[mask][perm], big.items[mask][perm], big.ratings[mask][perm],
            big.n_users, big.n_items, big.scale_min, big.scale_max,
        )
        sub = big.subset(mask)
        for name in ("users", "items", "ratings"):
            assert np.array_equal(getattr(sub, name), getattr(shuffled, name))

    def test_delta_from_declared_scale(self, tiny_dataset):
        assert tiny_dataset.delta == 4.0

    def test_item_raters_ascending(self, tiny_dataset):
        ptr, order = tiny_dataset.by_item
        for j in range(tiny_dataset.n_items):
            raters = tiny_dataset.users[order[ptr[j] : ptr[j + 1]]]
            assert raters.tolist() == sorted(raters.tolist())

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=40, unique=True),
        data=st.data(),
    )
    def test_any_order_gives_the_lexsort_order(self, pairs, data):
        users, items = np.array(pairs, dtype=np.int64).T
        ratings = np.linspace(1, 5, len(pairs))
        perm = np.array(data.draw(st.permutations(range(len(pairs)))), dtype=np.int64)
        ds = RatingDataset(users[perm], items[perm], ratings[perm], 10, 10, 1, 5)
        ref = np.lexsort((items, users))
        for got, want in ((ds.users, users), (ds.items, items), (ds.ratings, ratings)):
            assert got.tobytes() == want[ref].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=30, unique=True),
        data=st.data(),
    )
    def test_duplicate_names_the_smallest_repeated_pair(self, pairs, data):
        repeats = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
        rows = data.draw(st.permutations(pairs + repeats))
        users, items = np.array(rows, dtype=np.int64).T
        u, i = min(repeats)
        with pytest.raises(ValueError, match=f"^duplicate rating for user {u}, item {i}$"):
            RatingDataset(users, items, np.full(len(rows), 3.0), 10, 10, 1, 5)

    @pytest.mark.parametrize("n_users,n_items,branch", [
        (2**31, 2**31 - 1, "argsort"),
        (2**31, 2**31, "lexsort"),
        (2, 2**61 - 1, "argsort"),
        (3, 2**61, "lexsort"),
    ])
    def test_wide_keys_take_lexsort(self, monkeypatch, n_users, n_items, branch):
        # packed keys user * n_items + item need n_users * n_items < 2**62
        calls = []
        for name in ("argsort", "lexsort"):
            def counted(*args, _sort=getattr(np, name), _name=name, **kwargs):
                calls.append(_name)
                return _sort(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        users = np.array([n_users - 1, 0, n_users - 1, 0])
        items = np.array([0, n_items - 1, n_items - 1, 0])
        ds = RatingDataset(users, items, np.array([1.0, 2.0, 3.0, 4.0]), n_users, n_items, 1, 5)
        assert calls == [branch]
        assert ds.users.tolist() == [0, 0, n_users - 1, n_users - 1]
        assert ds.items.tolist() == [0, n_items - 1, 0, n_items - 1]
        assert ds.ratings.tolist() == [4.0, 2.0, 1.0, 3.0]


class TestLoaders:
    def test_ml100k_line(self, tmp_path):
        path = write(tmp_path, "u.data", "1\t3\t4\t881250949\n5\t3\t2\t881250950\n")
        ds = load_movielens_100k(path)
        assert len(ds) == 2
        assert ds.n_users == 2 and ds.n_items == 1
        # raw user 1 is the smallest raw id -> dense index 0
        assert ds.users.tolist() == [0, 1]
        assert ds.ratings.tolist() == [4.0, 2.0]
        assert (ds.scale_min, ds.scale_max) == (1.0, 5.0)

    def test_ml100k_out_of_scale(self, tmp_path):
        path = write(tmp_path, "u.data", "1\t3\t6\t881250949\n")
        with pytest.raises(ParseError, match="outside scale"):
            load_movielens_100k(path)

    def test_ml100k_missing_field(self, tmp_path):
        path = write(tmp_path, "u.data", "1\t3\t4\n")
        with pytest.raises(ParseError, match="expected 4 fields"):
            load_movielens_100k(path)

    def test_ml100k_extra_field(self, tmp_path):
        path = write(tmp_path, "u.data", "1\t3\t4\t881250949\n1\t4\t4\t881250949\t9\n")
        with pytest.raises(ParseError, match=":2: expected 4 fields, got 5"):
            load_movielens_100k(path)

    def test_ml100k_error_names_line(self, tmp_path):
        path = write(tmp_path, "u.data", "1\t3\t4\t0\nbad line here\n")
        with pytest.raises(ParseError, match=":2:"):
            load_movielens_100k(path)

    def test_ml1m_line(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::1193::5::978300760\n")
        ds = load_movielens_1m(path)
        assert ds.ratings.tolist() == [5.0]

    def test_ml1m_missing_field(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::1193::5\n")
        with pytest.raises(ParseError):
            load_movielens_1m(path)

    def test_csv_roundtrip(self, tmp_path):
        path = write(tmp_path, "r.csv", "user,item,rating\n10,7,4\n10,9,2\n11,7,5\n")
        ds = load_csv(path, 1, 5)
        assert len(ds) == 3
        assert ds.n_users == 2 and ds.n_items == 2

    def test_csv_duplicate_pair(self, tmp_path):
        path = write(tmp_path, "r.csv", "user,item,rating\n1,1,4\n1,1,5\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_csv(path, 1, 5)

    def test_csv_empty_file_is_valid_empty_dataset(self, tmp_path):
        path = write(tmp_path, "r.csv", "")
        ds = load_csv(path, 1, 5)
        assert len(ds) == 0

    def test_csv_bad_header(self, tmp_path):
        path = write(tmp_path, "r.csv", "a,b,c\n")
        with pytest.raises(ParseError, match="header"):
            load_csv(path, 1, 5)

    def test_dense_remap_bijection(self, tmp_path):
        path = write(tmp_path, "r.csv", "user,item,rating\n100,7,4\n5,7,2\n100,900,5\n")
        ds = load_csv(path, 1, 5)
        assert sorted(set(ds.users.tolist())) == [0, 1]
        assert sorted(set(ds.items.tolist())) == [0, 1]

    @pytest.mark.parametrize("fmt", ["csv", "ml-100k", "ml-1m"])
    @pytest.mark.parametrize("huge", ["99999999999999999999", "9223372036854775808", "-9223372036854775809"])
    def test_id_beyond_int64_names_its_line(self, tmp_path, fmt, huge):
        f = FORMATS[fmt]
        line_no = f.first_line_no + 1
        path = f.write(tmp_path, [f.line(1, 1, 3.0), f.line(huge, 2, 4.0), f.line(3, 3, 5.0), "bad line"])
        with pytest.raises(ParseError, match=f":{line_no}: id {huge} does not fit in 64 bits$"):
            f.load(path)
        path = f.write(tmp_path, [f.line(1, 1, 3.0), f.line(2, huge, 4.0)])
        with pytest.raises(ParseError, match=f":{line_no}: id {huge} does not fit in 64 bits$"):
            f.load(path)
        # an earlier bad line is still named first
        path = f.write(tmp_path, ["bad line", f.line(huge, 2, 4.0)])
        with pytest.raises(ParseError, match=f":{line_no - 1}: expected {f.n_fields} fields, got 1"):
            f.load(path)

    @pytest.mark.parametrize("fmt", ["csv", "ml-100k", "ml-1m"])
    def test_int64_limits_load(self, tmp_path, fmt):
        f = FORMATS[fmt]
        ds = f.load(f.write(tmp_path, [f.line(-(2**63), 2**63 - 1, 3.0), f.line(2**63 - 1, -(2**63), 4.0)]))
        assert ds.users.tolist() == [0, 1] and ds.items.tolist() == [1, 0]



@st.composite
def rating_triples(draw):
    """Distinct (user, item) pairs with sparse raw ids, in random order,
    with ratings on [1, 5] in half steps."""
    raw_ids = st.integers(0, 10**9)
    users = draw(st.lists(raw_ids, min_size=1, max_size=6, unique=True))
    items = draw(st.lists(raw_ids, min_size=1, max_size=6, unique=True))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(users), st.sampled_from(items)),
        min_size=1, max_size=20, unique=True,
    ))
    return [(u, i, draw(st.integers(2, 10)) / 2) for u, i in draw(st.permutations(pairs))]


class TestDenseRemap:
    @settings(max_examples=200, deadline=None)
    @given(raw=st.one_of(
        st.lists(st.integers(-5, 5), min_size=1, max_size=30),
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=30),
        st.builds(
            lambda base, offsets: [base + o for o in offsets],
            st.integers(-(2**63), 2**63 - 1 - 3000),
            st.lists(st.integers(0, 3000), min_size=1, max_size=60),
        ),
    ))
    def test_matches_unique(self, raw):
        raw = np.array(raw, dtype=np.int64)
        dense, count = _dense_remap(raw)
        uniq, inverse = np.unique(raw, return_inverse=True)
        assert dense.dtype == np.int64 and count == len(uniq)
        assert np.array_equal(dense, inverse)

    def test_dense_span_is_ranked_without_a_sort(self, monkeypatch):
        table = np.zeros(5, dtype=[("user", np.int64), ("rating", np.float64)])
        table["user"] = [1005, 1000, 1003, 1000, 1005]

        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", no_sort)
        dense, count = _dense_remap(table["user"])
        assert dense.tolist() == [2, 0, 1, 0, 2] and count == 3

    @pytest.mark.parametrize("raw", [[7], [-(2**63)], [2**63 - 1], []])
    def test_single_and_no_ids(self, raw):
        dense, count = _dense_remap(np.array(raw, dtype=np.int64))
        assert dense.tolist() == [0] * len(raw) and count == len(raw)


# Field values and stray text for the mutated files. The loop accepts some
# (`+7`, ` 7 `, `07`, `1e0`, non-ASCII digits), rejects others (`1.0` as an
# id, `1_000` past the scale, NaN); the bulk parse must agree or decline.
BAD_IDS = ["x", "1.0", "1e3", "1_000", "\u0661\u0662", "+7", "-7", " 7 ", "07", "", "0x1F",
           "99999999999999999999", "-9223372036854775809", "9223372036854775807"]
BAD_RATINGS = ["nan", "NaN", "inf", "-inf", "0", "6", "5.0000001", "4_0", "1e0", "4e-0",
               ".5e1", "3.", "+2", "", "x", "1e400", "-0", " 3 ", "3 3", "2.5e", "\u0663"]
STRAY = [" ", "  ", "\t", "#", "# x", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
         ":", ":::", "::::", ",", "\n", "e", "+", "-", ".", "_", "\r", "\r\n"]
# Line ends of a whole file; a stray CR at the end of a field makes lone CRs,
# CR CR LF and mixed line ends.
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def mutated_files(draw):
    """A format and the text of a file of it, with any of LINE_ENDS, and one
    to three lines mutated: a field added or dropped, an id or rating
    replaced, or stray text inserted into a field."""
    f = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    lines = [f.line(u, i, r) for u, i, r in draw(rating_triples())]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(f.sep)
        kind = draw(st.sampled_from(["drop", "add", "user", "item", "rating", "stray"]))
        if kind == "drop":
            fields.pop()
        elif kind == "add":
            fields.append("7")
        elif kind in ("user", "item") and len(fields) > 1:
            fields[kind == "item"] = draw(st.sampled_from(BAD_IDS))
        elif kind == "rating" and len(fields) > 2:
            fields[2] = draw(st.sampled_from(BAD_RATINGS))
        elif kind == "stray":
            # most often at either end of a field, where a parser may skip it
            j = draw(st.integers(0, len(fields) - 1))
            n = len(fields[j])
            pos = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
            fields[j] = fields[j][:pos] + draw(st.sampled_from(STRAY)) + fields[j][pos:]
        lines[k] = f.sep.join(fields)
    return f, f.text(lines, draw(st.sampled_from(LINE_ENDS)))


def outcome(load, path):
    """What loading gives: the ParseError message, None when the bulk parse
    declines, or the dataset's shape and raw array bytes."""
    try:
        ds = load(path)
    except ParseError as exc:
        return str(exc)
    if ds is None:
        return None
    arrays = (ds.users, ds.items, ds.ratings)
    return ds.n_users, ds.n_items, [(a.dtype.str, a.tobytes()) for a in arrays]


class TestLoaderRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(triples=rating_triples())
    def test_formats_load_equal_datasets(self, tmp_path_factory, triples):
        tmp = tmp_path_factory.mktemp("roundtrip")
        csv = write(tmp, "r.csv", "user,item,rating\n" + "".join(f"{u},{i},{r}\n" for u, i, r in triples))
        ml100k = write(tmp, "u.data", "".join(f"{u}\t{i}\t{r}\t0\n" for u, i, r in triples))
        ml1m = write(tmp, "r.dat", "".join(f"{u}::{i}::{r}::0\n" for u, i, r in triples))
        loaded = [load_csv(csv, 1, 5), load_movielens_100k(ml100k), load_movielens_1m(ml1m)]

        # dense ids follow ascending raw ids; entries are sorted by (user, item)
        user_ids = {u: k for k, u in enumerate(sorted({u for u, _, _ in triples}))}
        item_ids = {i: k for k, i in enumerate(sorted({i for _, i, _ in triples}))}
        expected = sorted((user_ids[u], item_ids[i], r) for u, i, r in triples)
        for ds in loaded:
            assert (ds.n_users, ds.n_items) == (len(user_ids), len(item_ids))
            assert (ds.scale_min, ds.scale_max) == (1.0, 5.0)
            got = list(zip(ds.users.tolist(), ds.items.tolist(), ds.ratings.tolist()))
            assert got == expected

    @settings(max_examples=50, deadline=None)
    @given(triples=rating_triples(), eol=st.sampled_from(["\n", "\r\n"]))
    def test_clean_files_take_the_bulk_path(self, tmp_path_factory, triples, eol):
        tmp = tmp_path_factory.mktemp("bulk")
        for f in FORMATS.values():
            path = f.write(tmp, [f.line(u, i, r) for u, i, r in triples], eol)
            bulk = f.bulk(path)
            assert bulk is not None, f.filename
            assert outcome(lambda p: bulk, path) == outcome(f.loop, path)

    @settings(max_examples=400, deadline=None)
    @given(case=mutated_files())
    def test_mutated_files_load_as_the_line_loop_does(self, tmp_path_factory, case):
        f, text = case
        path = tmp_path_factory.mktemp("mutated") / f.filename
        path.write_bytes(text.encode())
        loop = outcome(f.loop, path)
        bulk = outcome(f.bulk, path)
        # the bulk parse may decline, but never accepts a file the loop
        # rejects or reads a value differently
        assert bulk is None or bulk == loop
        assert outcome(f.load, path) == loop

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @pytest.mark.parametrize("text", ["", "\n", "\n\n", "user,item,rating\n", "user,item,rating\n\n", "user, item, rating",
                                      "user,item,rating\r\n"])
    def test_empty_and_header_only_files(self, tmp_path, fmt, text):
        f = FORMATS[fmt]
        path = write(tmp_path, f.filename, text)
        loop = outcome(f.loop, path)
        assert outcome(f.bulk, path) is None
        assert outcome(f.load, path) == loop

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_non_utf8_bytes_go_to_the_loop(self, tmp_path, fmt):
        f = FORMATS[fmt]
        good = [f.line(u, 1, 3.0) for u in range(2000)]
        path = f.write(tmp_path, good)
        # a bad line 2 is reported before bad bytes 2000 lines later
        text = f.text([good[0], "1"] + good[1:]).encode() + b"\xff\n"
        path.write_bytes(text)
        with pytest.raises(ParseError, match=f":{f.first_line_no + 1}: expected {f.n_fields} fields, got 1"):
            f.load(path)
        path.write_bytes(f.text(good).encode() + b"\xff\n")
        with pytest.raises(UnicodeDecodeError):
            f.load(path)


class TestSplits:
    def test_leave_n_out_counts(self, synth_factory):
        ds = synth_factory(n_users=40, n_items=60, mean_per_user=25, master_seed=3)
        plan = split_leave_n_out(ds, 10, master_seed=0)
        ptr, _ = ds.by_user
        counts = np.diff(ptr)
        expected_test = 10 * int(np.sum(counts > 10))
        assert len(plan.test) == expected_test
        assert len(plan.train) + len(plan.test) == len(ds)

    def test_small_user_goes_entirely_to_train(self):
        users = np.zeros(8, dtype=int)
        items = np.arange(8)
        ds = RatingDataset(users, items, np.full(8, 3.0), 1, 8, 1, 5)
        plan = split_leave_n_out(ds, 10, master_seed=0)
        assert len(plan.train) == 8 and len(plan.test) == 0

    def test_user_with_30_ratings(self):
        ds = RatingDataset(
            np.zeros(30, dtype=int), np.arange(30), np.full(30, 3.0), 1, 30, 1, 5
        )
        plan = split_leave_n_out(ds, 10, master_seed=1)
        assert len(plan.train) == 20 and len(plan.test) == 10

    def test_split_disjoint_and_complete(self, small_synth):
        plan = split_leave_n_out(small_synth, 10, master_seed=4)
        pairs_train = set(zip(plan.train.users.tolist(), plan.train.items.tolist()))
        pairs_test = set(zip(plan.test.users.tolist(), plan.test.items.tolist()))
        assert not (pairs_train & pairs_test)
        assert len(pairs_train) + len(pairs_test) == len(small_synth)

    def test_every_test_user_in_train(self, small_synth):
        plan = split_leave_n_out(small_synth, 10, master_seed=4)
        assert set(plan.test.users.tolist()) <= set(plan.train.users.tolist())

    def test_split_deterministic(self, small_synth):
        a = split_leave_n_out(small_synth, 10, master_seed=5)
        b = split_leave_n_out(small_synth, 10, master_seed=5)
        assert np.array_equal(a.test.items, b.test.items)
        c = split_leave_n_out(small_synth, 10, master_seed=6)
        assert not np.array_equal(a.test.items, c.test.items)

    def test_leave_one_out(self):
        users = np.array([0, 0, 1])
        ds = RatingDataset(users, np.array([0, 1, 0]), np.full(3, 3.0), 2, 2, 1, 5)
        plan = split_leave_n_out(ds, 1, master_seed=0)
        # user 0 (2 ratings) leaves one; user 1 (1 rating) keeps everything
        assert len(plan.test) == 1
        assert plan.test.users.tolist() == [0]

    @pytest.mark.parametrize("n_test", [-1, 0])
    def test_n_test_below_one_rejected(self, n_test):
        ds = RatingDataset(np.zeros(5, dtype=int), np.arange(5), np.full(5, 3.0), 1, 5, 1, 5)
        with pytest.raises(ValueError, match="n_test"):
            split_leave_n_out(ds, n_test, master_seed=0)

    def test_leave_one_out_test_size(self, small_synth):
        plan = split_leave_n_out(small_synth, 1, master_seed=0)
        ptr, _ = small_synth.by_user
        eligible = int(np.sum(np.diff(ptr) >= 2))
        assert len(plan.test) == eligible


class TestKfold:
    def test_fold_sizes(self):
        ds = RatingDataset(
            np.repeat(np.arange(10), 10), np.tile(np.arange(10), 10),
            np.full(100, 3.0), 10, 10, 1, 5,
        )
        plans = kfold_splits(ds, 5, master_seed=0)
        assert [len(p.test) for p in plans] == [20] * 5

    def test_folds_partition(self, small_synth):
        plans = kfold_splits(small_synth, 4, master_seed=2)
        sizes = [len(p.test) for p in plans]
        assert max(sizes) - min(sizes) <= 1
        all_pairs = []
        for p in plans:
            all_pairs.extend(zip(p.test.users.tolist(), p.test.items.tolist()))
        assert len(all_pairs) == len(set(all_pairs)) == len(small_synth)

    def test_k_must_be_at_least_two(self, small_synth):
        with pytest.raises(ValueError):
            kfold_splits(small_synth, 1, master_seed=0)

    def test_k_above_rating_count_rejected(self):
        # more folds than ratings would leave some folds empty
        ds = RatingDataset(np.zeros(5, dtype=int), np.arange(5), np.full(5, 3.0), 1, 5, 1, 5)
        with pytest.raises(ValueError, match="5 ratings"):
            kfold_splits(ds, 7, master_seed=0)
        assert [len(p.test) for p in kfold_splits(ds, 5, master_seed=0)] == [1] * 5


class TestSubsample:
    def test_identity_fraction(self, small_synth):
        out = subsample_per_user(small_synth, 1.0, master_seed=0)
        assert out is small_synth

    def test_ceiling_rule(self):
        ds = RatingDataset(
            np.zeros(10, dtype=int), np.arange(10), np.full(10, 3.0), 1, 10, 1, 5
        )
        out = subsample_per_user(ds, 0.2, master_seed=0)
        assert len(out) == 2

    def test_total_count_near_fraction(self, small_synth):
        out = subsample_per_user(small_synth, 0.4, master_seed=1)
        # per-user ceilings: within one rating per user of the exact fraction
        assert 0.4 * len(small_synth) <= len(out) <= 0.4 * len(small_synth) + small_synth.n_users

    def test_never_fabricates(self, small_synth):
        out = subsample_per_user(small_synth, 0.6, master_seed=2)
        parent = set(zip(small_synth.users.tolist(), small_synth.items.tolist()))
        child = set(zip(out.users.tolist(), out.items.tolist()))
        assert child <= parent

    def test_fraction_bounds(self, small_synth):
        with pytest.raises(ValueError):
            subsample_per_user(small_synth, 0.0, master_seed=0)


class TestMl100kFile:
    def test_full_file_has_100k_entries(self, ml100k):
        assert len(ml100k) == 100_000

    def test_leave_10_out_count(self, ml100k):
        plan = split_leave_n_out(ml100k, 10, master_seed=0)
        ptr, _ = ml100k.by_user
        assert len(plan.test) == 10 * int(np.sum(np.diff(ptr) > 10))
