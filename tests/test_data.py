"""Dataset ingestion, splits, folds, and subsampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpmf.data import (
    RatingDataset,
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


class TestRatingDataset:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RatingDataset(
                np.array([0, 0]), np.array([1, 1]), np.array([3.0, 4.0]), 1, 2, 1, 5
            )

    def test_out_of_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            RatingDataset(np.array([0]), np.array([0]), np.array([6.0]), 1, 1, 1, 5)

    def test_entries_canonically_sorted(self):
        ds = RatingDataset(
            np.array([1, 0, 1]), np.array([0, 0, 1]), np.array([2.0, 3.0, 4.0]), 2, 2, 1, 5
        )
        assert ds.users.tolist() == [0, 1, 1]
        assert ds.items.tolist() == [0, 0, 1]
        assert ds.ratings.tolist() == [3.0, 2.0, 4.0]

    def test_delta_from_declared_scale(self, tiny_dataset):
        assert tiny_dataset.delta == 4.0

    def test_item_raters_ascending(self, tiny_dataset):
        ptr, order = tiny_dataset.by_item
        for j in range(tiny_dataset.n_items):
            raters = tiny_dataset.users[order[ptr[j] : ptr[j + 1]]]
            assert raters.tolist() == sorted(raters.tolist())


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
