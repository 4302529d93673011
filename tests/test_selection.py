"""Distance-based selection: counts, oracles, quarantine, scopes."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial.distance
from scipy.spatial.distance import pdist, squareform

from fedaa import config, selection
from fedaa.reference import all_rows_selection, gram_bound
from fedaa.errors import ConfigError, SimulationError
from fedaa.nn import ArchSpec, layer_slices, param_count


def pairwise_oracle(vectors):
    """Hand-rolled distance matrix, independent of scipy."""
    n = len(vectors)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = math.sqrt(float(np.sum((vectors[i] - vectors[j]) ** 2)))
    return out


# ------------------------------------------------------------ counts


def test_top_count_round_half_up():
    assert selection.top_count(30.0, 20) == 6
    assert selection.top_count(30.0, 10) == 3
    assert selection.top_count(100.0, 7) == 7
    assert selection.top_count(50.0, 5) == 3  # 2.5 rounds up
    assert selection.top_count(80.0, 20) == 16
    assert selection.top_count(1.0, 3) == 1  # floor at one client
    assert selection.top_count(34.0, 3) == 1
    assert selection.top_count(67.0, 3) == 2


def test_top_count_bounds():
    with pytest.raises(ConfigError):
        selection.top_count(0.0, 10)
    with pytest.raises(ConfigError):
        selection.top_count(101.0, 10)
    with pytest.raises(ConfigError):
        selection.top_count(50.0, 0)


# ------------------------------------------------------------ state


def test_normalize_state_min_max():
    out = selection.normalize_state(np.array([10.0, 15.0, 20.0]))
    assert np.allclose(out, [0.0, 0.5, 1.0], atol=1e-15)
    # constant vectors normalize to zeros
    assert np.array_equal(selection.normalize_state(np.array([4.0, 4.0])), [0.0, 0.0])
    with pytest.raises(ConfigError):
        selection.normalize_state(np.array([]))


# ------------------------------------------------------------ selection oracle


def test_three_client_hand_computed_selection():
    # distances: d(0,1) = 5, d(0,2) = 10, d(1,2) = 5 -> row sums [15, 10, 15]
    uploads = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    one = selection.select_clients([0, 1, 2], uploads, 34.0)
    assert one.selected_ids == [1]
    assert np.allclose(one.raw_row_sums, [10.0])
    assert np.array_equal(one.state, [0.0])  # single value is degenerate
    two = selection.select_clients([0, 1, 2], uploads, 67.0)
    # 1 wins outright; 0 and 2 tie at 15 and the lower id enters
    assert two.selected_ids == [0, 1]
    assert np.allclose(two.raw_row_sums, [15.0, 10.0])
    assert np.allclose(two.state, [1.0, 0.0])


def test_identical_uploads_tie_break_by_id():
    res = selection.select_clients([0, 1, 2], np.ones((3, 4)), 67.0)
    assert res.selected_ids == [0, 1]
    assert np.array_equal(res.state, [0.0, 0.0])
    # rows of no columns are identical too
    assert selection.select_clients([0, 1, 2], np.ones((3, 0)), 67.0).selected_ids == [0, 1]


def test_distance_matrix_matches_oracle():
    rng = np.random.default_rng(30)
    vectors = rng.normal(size=(7, 12))
    res = selection.select_clients(list(range(7)), vectors, 50.0)
    oracle = pairwise_oracle(vectors)
    assert np.allclose(oracle, oracle.T, atol=1e-12)
    assert np.all(np.diag(oracle) == 0.0)
    # row sums align with the oracle for the selected ids
    sums = oracle.sum(axis=1)
    order = np.lexsort((np.arange(7), sums))
    expect = sorted(order[:4].tolist())
    assert res.selected_ids == expect
    assert np.allclose(res.raw_row_sums, sums[expect], rtol=1e-12, atol=0.0)


def permuted_rows(rows, perm):
    """Row i moved to row perm[i]: client i relabelled as perm[i], with the
    ids kept ascending."""
    moved = np.empty_like(rows)
    moved[perm] = rows
    return moved


def test_permutation_equivariance():
    rng = np.random.default_rng(31)
    vectors = rng.normal(size=(6, 9))
    ids = list(range(6))
    base = selection.select_clients(ids, vectors, 50.0)
    perm = [4, 0, 5, 2, 1, 3]
    shuffled = selection.select_clients(ids, permuted_rows(vectors, perm), 50.0)
    assert sorted(perm[i] for i in base.selected_ids) == shuffled.selected_ids


def test_scale_invariance_of_membership_and_state():
    rng = np.random.default_rng(32)
    uploads = rng.normal(size=(8, 10))
    base = selection.select_clients(list(range(8)), uploads, 40.0)
    scaled = selection.select_clients(list(range(8)), 2.0 * uploads, 40.0)
    assert base.selected_ids == scaled.selected_ids
    assert np.allclose(base.state, scaled.state, atol=1e-12)
    assert np.allclose(2.0 * base.raw_row_sums, scaled.raw_row_sums, atol=1e-9)


def test_state_range():
    rng = np.random.default_rng(33)
    res = selection.select_clients(list(range(10)), rng.normal(size=(10, 6)), 60.0)
    assert res.state.min() == 0.0
    assert res.state.max() <= 1.0
    assert np.all((res.state >= 0.0) & (res.state <= 1.0))


def test_selection_equals_the_all_rows_oracle_generated():
    # repeated rows are measured once; the outputs must still be the
    # all-rows oracle's, bit for bit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    arch = ArchSpec(2, (2,), 2)  # 12 parameters; the scoped block is 6 of them
    size = param_count(arch)
    value = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, 3e5])
    row = st.one_of(
        st.lists(value, min_size=size, max_size=size).map(np.array),
        st.sampled_from(["zero", "-zero", "nan", "inf", "huge"]).map(
            {"zero": np.zeros(size), "-zero": np.full(size, -0.0),
             "nan": np.full(size, np.nan), "inf": np.r_[np.inf, np.zeros(size - 1)],
             "huge": np.r_[-1e160, np.zeros(size - 1)]}.get
        ),
    )
    seen = set()
    zero, nan = np.zeros(size), np.full(size, np.nan)
    mixed = np.array([1.0, -2.5, 0.1, 3e5, 1e-300, 0.0, 1.0, -2.5, 0.1, 3e5, 1e-300, 0.0])

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    # each category the coverage assertion asks for, whatever the draws reach
    @hypothesis.example(pool=[zero, -zero, nan], swap=False, picks=[0, 1, 2, 0],
                        ids=list(range(10)), m_percent=50.0, scope="all_layers")
    @hypothesis.example(pool=[mixed, nan], swap=False, picks=[0, 1, 1],
                        ids=list(range(10)), m_percent=1.0, scope="last_hidden_layer")
    @hypothesis.example(pool=[mixed], swap=True, picks=[0, 1, 0, 1],
                        ids=list(range(10)), m_percent=50.0, scope="all_layers")
    @hypothesis.example(pool=[mixed, np.full(size, -1e160)], swap=False, picks=[0, 1, 0],
                        ids=list(range(10)), m_percent=30.0, scope="all_layers")
    @hypothesis.given(
        pool=st.lists(row, min_size=1, max_size=4),
        swap=st.booleans(),
        picks=st.lists(st.integers(0, 4), min_size=2, max_size=10),
        ids=st.lists(st.integers(0, 50), min_size=10, max_size=10, unique=True),
        m_percent=st.sampled_from([1.0, 30.0, 50.0, 100.0]),
        scope=st.sampled_from(selection.SCOPES),
    )
    def check(pool, swap, picks, ids, m_percent, scope):
        if swap:
            # two words swapped: the same wrapping word sum, other bytes
            pool = [*pool, pool[0][[1, 0, *range(2, size)]]]
        ids = sorted(ids[: len(picks)])
        uploads = np.array([pool[p % len(pool)] for p in picks])
        want = all_rows_selection(ids, uploads, m_percent, scope, arch)
        if want is None:
            with pytest.raises(SimulationError):
                selection.select_clients(ids, uploads, m_percent, scope, arch)
            return
        got = selection.select_clients(ids, uploads, m_percent, scope, arch)
        assert got.selected_ids == want[0]
        assert got.state.tobytes() == want[1].tobytes()
        assert got.raw_row_sums.tobytes() == want[2].tobytes()
        keys = [v.tobytes() for v in uploads if np.isfinite(v).all()]
        seen.add(scope)
        if len(set(keys)) < len(keys):
            seen.add("repeated rows")
        if len(keys) < len(uploads):
            seen.add("non-finite rows")
        if (uploads == -1e160).any():
            seen.add("oversized rows")
        if len(keys) == 1:
            seen.add("a single finite row")
        if {np.zeros(size).tobytes(), np.full(size, -0.0).tobytes()} <= set(keys):
            seen.add("0.0 and -0.0 rows")
        pair = {pool[0].tobytes(), pool[-1].tobytes()}
        if swap and len(pair) == 2 and pair <= set(keys):
            seen.add("rows of one word sum")

    check()
    assert seen >= {*selection.SCOPES, "repeated rows", "non-finite rows", "oversized rows",
                    "a single finite row", "0.0 and -0.0 rows", "rows of one word sum"}


def test_distinct_rows_merges_exactly_the_byte_equal_rows_generated(monkeypatch):
    # rows that share a key but differ in bytes: a word off the key's
    # sample, two words swapped (one wrapping sum), 0.0 against -0.0, under
    # few and many key words. The oracle keys each row by its bytes, in the
    # order of first appearance
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    # each kind of collision, whatever the draws reach
    @hypothesis.example(cols=8, edits=[(0, 1, 1.0), (1, 1, 1.0)], picks=[0, 1, 2, 1, 0, 2],
                        drop=[], key_words=4)
    @hypothesis.example(cols=5, edits=[(0, 0, 0.0), (1, 0, -0.0)], picks=[0, 1, 0, 1],
                        drop=[1], key_words=64)
    @hypothesis.example(cols=6, edits=[(0, 0, -1.0)], picks=[2, 0, 1, 0, 1, 2],
                        drop=[], key_words=1)
    @hypothesis.given(
        cols=st.integers(1, 40),
        # (variant, column, value): set one entry of a variant of the base row
        edits=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 39),
                                 st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])), max_size=6),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=12),
        drop=st.lists(st.integers(0, 11), max_size=4),
        key_words=st.sampled_from([1, 4, 64]),
    )
    def check(cols, edits, picks, drop, key_words):
        monkeypatch.setattr(selection, "KEY_WORDS", key_words)
        base = np.linspace(-1.0, 1.0, cols)
        variants = [base.copy() for _ in range(4)] + [base[::-1].copy()]  # 4: swapped words
        for variant, col, value in edits:
            variants[variant][col % cols] = value
        x = np.array([variants[p] for p in picks])
        rows = np.array([r for r in range(len(picks)) if r not in drop], dtype=np.intp)
        if rows.size == 0:
            return
        first, inverse = selection._distinct_rows(x, rows)
        order = list(dict.fromkeys(x[r].tobytes() for r in rows))
        assert [x[r].tobytes() for r in first] == order
        assert inverse.tolist() == [order.index(x[r].tobytes()) for r in rows]
        words = x.view(np.uint64)
        for a in rows:
            for b in rows:
                if x[a].tobytes() != x[b].tobytes():
                    if words[a].sum() == words[b].sum():
                        seen.add("a shared word sum")
                    if np.array_equal(x[a], x[b]):
                        seen.add("0.0 and -0.0")
                    step = max(1, cols // key_words)
                    if words[a, ::step].sum() == words[b, ::step].sum():
                        seen.add("a shared key")

    check()
    assert seen == {"a shared word sum", "a shared key", "0.0 and -0.0"}


def test_selection_through_a_row_index_equals_the_gathered_rows_generated():
    # select_clients(ids, uploads, rows=rows) reads the referenced rows in
    # place, each once; it must equal select_clients(ids, uploads[rows]) bit
    # for bit, error text included, on either distance route, and on the
    # exact route the all-rows oracle too
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    arch = ArchSpec(2, (2,), 2)  # 12 parameters; the scoped block is 6 of them
    size = param_count(arch)
    value = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, 3e5])
    special = {"zero": np.zeros(size), "-zero": np.full(size, -0.0),
               "nan": np.full(size, np.nan), "inf": np.r_[np.zeros(size - 1), np.inf],
               "-inf": np.r_[-np.inf, np.zeros(size - 1)],
               "huge": np.r_[np.zeros(6), 2.0**481, np.zeros(size - 7)],
               "-huge": np.r_[-(2.0**481), np.zeros(size - 1)]}
    row = st.one_of(st.lists(value, min_size=size, max_size=size).map(np.array),
                    st.sampled_from(sorted(special)).map(special.get))
    mixed = np.array([1.0, -2.5, 0.1, 3e5, 1e-300, 0.0, 1.0, -2.5, 0.1, 3e5, 1e-300, 0.0])
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    # each category the coverage assertion asks for, whatever the draws reach
    @hypothesis.example(pool=[special["zero"], special["-zero"], mixed], swap=False,
                        picks=[0, 1, 0, 2, 1], m_percent=50.0, scope="all_layers", gram=False)
    @hypothesis.example(pool=[mixed, special["nan"], special["huge"]], swap=False,
                        picks=[0, 1, 1, 2, 0, 1], m_percent=100.0, scope="all_layers", gram=True)
    @hypothesis.example(pool=[mixed, special["inf"], special["-huge"], special["-inf"]],
                        swap=True, picks=[4, 0, 1, 4, 4], m_percent=30.0,
                        scope="last_hidden_layer", gram=False)
    @hypothesis.example(pool=[mixed, mixed.copy(), special["zero"]], swap=False,
                        picks=[1, 0, 1], m_percent=50.0, scope="last_hidden_layer", gram=True)
    @hypothesis.given(
        pool=st.lists(row, min_size=1, max_size=5),
        swap=st.booleans(),
        picks=st.lists(st.integers(0, 5), min_size=2, max_size=10),
        m_percent=st.sampled_from([1.0, 30.0, 50.0, 100.0]),
        scope=st.sampled_from(selection.SCOPES),
        gram=st.booleans(),
    )
    def check(pool, swap, picks, m_percent, scope, gram):
        if swap:
            # two words swapped: the same wrapping word sum, other bytes
            pool = [*pool, pool[0][[1, 0, *range(2, size)]]]
        uploads = np.array(pool)
        rows = np.array([p % len(pool) for p in picks])
        ids = [3 * i + 1 for i in range(len(rows))]
        wsl, bsl = layer_slices(arch)[0]
        x = uploads if scope == "all_layers" else uploads[:, wsl.start : bsl.stop]
        ok = (abs(x) <= selection.LIMIT).all(axis=1)  # each row of the matrix
        bad = [r for r in rows.tolist() if not ok[r]]
        if len(set(bad)) < len(bad):
            seen.add("a shared unmeasurable row")
        if any(bad.count(r) == 1 for r in bad):
            seen.add("an unmeasurable row once")
        with pytest.MonkeyPatch.context() as patch:
            if gram:
                patch.setattr(selection, "GRAM_WORK", 0)
            try:
                want = selection.select_clients(ids, uploads[rows], m_percent, scope, arch)
            except SimulationError as exc:
                with pytest.raises(SimulationError) as raised:
                    selection.select_clients(ids, uploads, m_percent, scope, arch, rows=rows)
                assert str(raised.value) == str(exc)
                named = ", ".join(str(c) for c, r in zip(ids, rows) if not ok[r])
                assert str(exc).endswith(
                    f"clients {named} uploaded values that are non-finite or beyond +-2^480"
                )
                seen.add("an error")
                return
            got = selection.select_clients(ids, uploads, m_percent, scope, arch, rows=rows)
        assert got.selected_ids == want.selected_ids
        assert got.state.tobytes() == want.state.tobytes()
        assert got.raw_row_sums.tobytes() == want.raw_row_sums.tobytes()
        if not gram:
            exact = all_rows_selection(ids, uploads[rows], m_percent, scope, arch)
            assert got.selected_ids == exact[0]
            assert got.raw_row_sums.tobytes() == exact[2].tobytes()
        seen.update([scope, "gram" if gram else "exact"])
        measurable = {r for r in rows.tolist() if ok[r]}
        if len(set(rows.tolist())) < len(rows):
            seen.add("a shared row")
        if len(set(rows.tolist())) < len(pool):
            seen.add("part of the matrix")
        keys = [x[r].tobytes() for r in measurable]
        if len(set(keys)) < len(keys):
            seen.add("byte-equal rows at different indices")
        if {np.zeros(x.shape[1]).tobytes(), np.full(x.shape[1], -0.0).tobytes()} <= set(keys):
            seen.add("0.0 and -0.0 rows")
        if swap and pool[0].tobytes() != pool[-1].tobytes() and {0, len(pool) - 1} <= measurable:
            seen.add("rows of one word sum")

    check()
    assert seen == {*selection.SCOPES, "gram", "exact", "an error", "a shared row",
                    "part of the matrix", "a shared unmeasurable row",
                    "an unmeasurable row once", "byte-equal rows at different indices",
                    "0.0 and -0.0 rows", "rows of one word sum"}


def test_permutation_equivariance_with_repeated_rows_generated():
    # rows on one axis at integer points have exact distances, so every row
    # sum is exact in any summation order; relabelling the clients then
    # keeps each kept client's sum, and only ties at the cut may change
    # which of the tied clients is kept
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    point = st.one_of(
        st.integers(-4, 4).map(lambda a: np.array([float(a), 0.0, 0.0])),
        st.sampled_from([np.full(3, -0.0), np.array([np.nan, 0.0, 0.0])]),
    )
    seen = set()

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    # repeated and non-finite rows, whatever the draws reach
    @hypothesis.example(
        rows=[np.array([1.0, 0.0, 0.0]), np.array([np.nan, 0.0, 0.0]),
              np.array([1.0, 0.0, 0.0]), np.array([-2.0, 0.0, 0.0])],
        order=[8, 3, 1, 0, 2, 7, 4, 6, 5], m_percent=50.0,
    )
    @hypothesis.given(
        rows=st.lists(point, min_size=2, max_size=9),
        order=st.permutations(range(9)),
        m_percent=st.sampled_from([30.0, 50.0, 80.0]),
    )
    def check(rows, order, m_percent):
        n = len(rows)
        perm = [i for i in order if i < n]  # a uniform permutation of range(n)
        ids = list(range(n))
        rows = np.array(rows)
        try:
            base = selection.select_clients(ids, rows, m_percent)
        except SimulationError:
            with pytest.raises(SimulationError):
                selection.select_clients(ids, permuted_rows(rows, perm), m_percent)
            return
        moved = selection.select_clients(ids, permuted_rows(rows, perm), m_percent)
        assert sorted(base.raw_row_sums.tolist()) == sorted(moved.raw_row_sums.tolist())
        assert sorted(base.state.tolist()) == sorted(moved.state.tolist())
        cut = base.raw_row_sums.max()
        moved_sums = dict(zip(moved.selected_ids, moved.raw_row_sums.tolist()))
        for cid, total in zip(base.selected_ids, base.raw_row_sums.tolist()):
            if total < cut or perm[cid] in moved_sums:
                assert moved_sums[perm[cid]] == total
        keys = [v.tobytes() for v in rows]
        if len(set(keys)) < len(keys):
            seen.add("repeated rows")
        if not all(np.isfinite(v).all() for v in rows):
            seen.add("non-finite rows")

    check()
    assert seen == {"repeated rows", "non-finite rows"}


# ------------------------------------------------------------ kernels


def test_gram_distance_matrix_is_pdist_within_its_bound_generated(monkeypatch):
    # every shape on the Gram route, over repeated rows and scales from
    # underflow to 1e140: exactly symmetric, a zero diagonal, and within
    # the stated bound of squareform(pdist(.))
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.setattr(selection, "GRAM_WORK", 0)
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    # every scale over repeated rows, whatever the draws reach
    @hypothesis.example(shape=(2, 5, 3), seed=0, picks=[0, 1] * 7, scale=1.0, offset=0.0)
    @hypothesis.example(shape=(5, 6, 4), seed=1, picks=[0, 1] * 7, scale=3e5, offset=1e7)
    @hypothesis.example(shape=(5, 9, 7), seed=2, picks=[0, 1] * 7, scale=1e-300, offset=0.0)
    @hypothesis.example(shape=(5, 14, 40), seed=3, picks=[0, 1] * 7, scale=1e140, offset=1.0)
    @hypothesis.given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 14), st.integers(1, 40)),
        seed=st.integers(0, 2**32 - 1),
        # 60 is a multiple of every distinct count, so p % distinct is uniform
        picks=st.lists(st.integers(0, 59), min_size=14, max_size=14),
        scale=st.sampled_from([1e-300, 1.0, 3e5, 1e140]),
        # rows far from the origin, which the centring brings back
        offset=st.sampled_from([0.0, 1.0, 1e7]),
    )
    def check(shape, seed, picks, scale, offset):
        distinct, n, cols = shape
        pool = np.random.default_rng(seed).normal(scale=scale, size=(distinct, cols))
        picks = [p % distinct for p in picks[:n]]
        y = offset * scale + pool[picks]
        want = squareform(pdist(y))
        got = selection.distance_matrix(y.copy())
        assert np.array_equal(got, got.T)
        assert not got.diagonal().any()
        assert (abs(got - want) <= gram_bound(y, want)).all()
        if len(set(picks)) < n:
            seen.add(f"repeated rows at {scale}")

    check()
    assert seen == {f"repeated rows at {scale}" for scale in (1e-300, 1.0, 3e5, 1e140)}


def test_below_gram_work_the_distance_matrix_is_pdist_bit_for_bit():
    # 7,260 pairs of 121 rows times 577 columns fall just short of
    # GRAM_WORK, and 578 columns reach it
    assert 121 * 120 // 2 * 577 < selection.GRAM_WORK <= 121 * 120 // 2 * 578
    rng = np.random.default_rng(42)
    for shape in [(1, 5), (2, 3), (20, 610), (121, 577)]:
        y = 5.0 + rng.normal(size=shape)
        y[-1] = y[0]
        kept = y.copy()
        assert selection.distance_matrix(y).tobytes() == squareform(pdist(kept)).tobytes()
        assert y.tobytes() == kept.tobytes()  # the numpy route leaves the rows as they were
    y = 5.0 + rng.normal(size=(121, 578))
    want = squareform(pdist(y))
    got = selection.distance_matrix(y.copy())
    assert got.tobytes() != want.tobytes()  # the Gram route's own rounding
    assert (abs(got - want) <= gram_bound(y, want)).all()


def test_the_numpy_distance_matrix_holds_one_difference_block_at_a_time():
    # 23 rows of 7,110 (below GRAM_WORK): the first block of differences
    # is 22 rows, and each block is released before the next is made
    y = np.random.default_rng(0).normal(size=(23, 7_110))
    want = squareform(pdist(y))
    tracemalloc.start()
    try:
        got = selection.distance_matrix(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 1.5 * 22 * y[0].nbytes


def test_the_numpy_distance_matrix_is_pdist_bit_for_bit_generated():
    # the numpy route on 1-40 rows of 1-700 columns: squareform(pdist(.))
    # bit for bit over repeated rows and every scale, the rows unchanged
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scales = (0.0, -0.0, 5e-324, 1e-310, 1.0, 1e150)
    seen = set()

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    # each scale over repeated rows, whatever the draws reach
    @hypothesis.example(shape=(1, 1, 1), seed=0, picks=[0] * 40, scale=1.0, signs=False)
    @hypothesis.example(shape=(3, 20, 610), seed=1, picks=[0, 1, 2] * 14, scale=0.0, signs=True)
    @hypothesis.example(shape=(2, 4, 9), seed=2, picks=[0, 1] * 20, scale=-0.0, signs=False)
    @hypothesis.example(shape=(4, 9, 33), seed=3, picks=[0, 1, 2, 3] * 10, scale=5e-324, signs=True)
    @hypothesis.example(shape=(5, 12, 70), seed=4, picks=list(range(5)) * 8, scale=1e-310, signs=False)
    @hypothesis.example(shape=(40, 40, 700), seed=5, picks=[0, 0, *range(38)], scale=1e150, signs=True)
    @hypothesis.example(shape=(30, 31, 700), seed=6, picks=[*range(30), 0, *range(9)], scale=1.0, signs=False)
    @hypothesis.given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 700)),
        seed=st.integers(0, 2**32 - 1),
        picks=st.lists(st.integers(0, 39), min_size=40, max_size=40),
        scale=st.sampled_from(scales),
        signs=st.booleans(),  # negate a random half of the entries
    )
    def check(shape, seed, picks, scale, signs):
        distinct, n, cols = shape
        rng = np.random.default_rng(seed)
        pool = scale * rng.normal(size=(distinct, cols))
        if signs:
            pool[rng.random(pool.shape) < 0.5] *= -1.0
        y = pool[[p % distinct for p in picks[:n]]]
        kept = y.copy()
        want = squareform(pdist(y))
        assert selection.distance_matrix(y).tobytes() == want.tobytes()
        assert y.tobytes() == kept.tobytes()
        if len({row.tobytes() for row in y}) < n:
            seen.add(f"repeated rows at {scale!r}")

    check()
    assert seen == {f"repeated rows at {s!r}" for s in scales}


@pytest.mark.parametrize("scope", selection.SCOPES)
def test_logistic_rounds_take_numpy_and_server_heavy_rounds_the_gram_kernel(monkeypatch, scope):
    # signflip_logistic selects over 20 distinct rows of 610 columns, on
    # numpy, and server_heavy over 120 benign rows plus the one vector its
    # 80 ipm attackers send, 121 distinct rows of 14,210 (12,200 in scope),
    # on the Gram kernel: neither calls pdist (the oracles, which do, run first)
    rng = np.random.default_rng(43)
    small_arch = ArchSpec(49, (10,), 10)  # 610 parameters, 500 in the last hidden layer
    small = rng.normal(size=(20, param_count(small_arch)))
    arch = ArchSpec(60, (200,), 10)
    assert param_count(arch) == 14_210
    heavy = np.empty((200, 14_210))
    heavy[:120] = rng.normal(0.0, 0.05, size=(120, 14_210))
    heavy[120:] = -0.7 * heavy[:120].mean(axis=0)
    want_small = all_rows_selection(list(range(20)), small, 30.0, scope, small_arch)
    want = all_rows_selection(list(range(200)), heavy, 60.0, scope, arch)
    pdists = []

    def recording(y):
        pdists.append(y.shape)
        return pdist(y)

    monkeypatch.setattr(scipy.spatial.distance, "pdist", recording)
    got = selection.select_clients(list(range(20)), small, 30.0, scope, small_arch)
    assert pdists == []
    assert got.raw_row_sums.tobytes() == want_small[2].tobytes()
    got = selection.select_clients(list(range(200)), heavy, 60.0, scope, arch)
    assert pdists == []
    assert got.selected_ids == want[0]
    assert np.allclose(got.raw_row_sums, want[2], rtol=1e-12, atol=0.0)


# ------------------------------------------------------------ quarantine


def test_nan_upload_never_selected():
    rng = np.random.default_rng(34)
    uploads = rng.normal(size=(5, 5))
    uploads[2, 3] = np.nan
    res = selection.select_clients(list(range(5)), uploads, 80.0)
    assert 2 not in res.selected_ids
    assert len(res.selected_ids) == 4
    assert np.all(np.isfinite(res.raw_row_sums))
    # finite clients' row sums ignore the quarantined one
    finite = [0, 1, 3, 4]
    oracle = pairwise_oracle([uploads[i] for i in finite])
    assert np.allclose(res.raw_row_sums, oracle.sum(axis=1), atol=1e-12)


def test_all_nonfinite_uploads_rejected():
    uploads = np.array([np.full(3, np.nan), np.full(3, np.inf)])
    with pytest.raises(SimulationError):
        selection.select_clients([0, 1], uploads, 50.0)


def test_too_few_measurable_uploads_rejected():
    uploads = np.array([np.zeros(3), np.full(3, np.nan), [1.0, np.inf, 0.0], [0.0, -1e150, 0.0]])
    with pytest.raises(
        SimulationError,
        match=r"^only 1 measurable uploads for a selection of 2; "
        r"clients 4, 7, 9 uploaded values that are non-finite or beyond \+-2\^480$",
    ):
        selection.select_clients([0, 4, 7, 9], uploads, 50.0)  # needs 2, only 1 measurable


def test_a_huge_finite_upload_is_never_selected():
    # 1e160 squared overflows, so every distance to row 3 would be inf and
    # every row sum would tie at inf
    rng = np.random.default_rng(38)
    uploads = rng.normal(size=(10, 50))
    uploads[3] = 1e160
    res = selection.select_clients(list(range(10)), uploads, 50.0)
    assert 3 not in res.selected_ids
    others = [i for i in range(10) if i != 3]
    sums = squareform(pdist(uploads[others])).sum(axis=1)
    assert res.selected_ids == sorted(np.array(others)[np.argsort(sums, kind="stable")[:5]].tolist())
    # entries of exactly +-LIMIT are measurable, and the next float out is not
    limit = selection.LIMIT
    edge = np.zeros((4, 50))
    edge[0, 7], edge[1, 9] = limit, -limit
    edge[2, 0], edge[3, 1] = np.nextafter(limit, np.inf), np.nextafter(-limit, -np.inf)
    res = selection.select_clients([0, 1, 2, 3], edge, 50.0)
    assert res.selected_ids == [0, 1]
    assert np.isfinite(res.raw_row_sums).all()


# ------------------------------------------------------------ scopes


def test_last_hidden_layer_scope_slices_correct_block():
    arch = ArchSpec(4, (3, 2), 2)
    wsl, bsl = layer_slices(arch)[1]  # final hidden layer
    rng = np.random.default_rng(35)
    base = rng.normal(size=param_count(arch))
    # clients 0/1 differ only OUTSIDE the slice; 2 differs only inside it
    a = base.copy()
    b = base.copy()
    b[0] += 50.0  # first-layer weight, invisible to the scoped distance
    c = base.copy()
    c[wsl.start] += 1.0
    uploads = np.array([a, b, c])
    res = selection.select_clients([0, 1, 2], uploads, 67.0, scope="last_hidden_layer", arch=arch)
    # scoped distances: d(0, 1) = 0 and d(0, 2) = d(1, 2) = 1
    assert np.allclose(res.raw_row_sums, [1.0, 1.0], rtol=0.0, atol=1e-12)
    # under the full-vector scope client 1 is the outlier instead: d(0, 1) = 50
    full = selection.select_clients([0, 1, 2], uploads, 67.0)
    assert np.allclose(full.raw_row_sums, [51.0, 1.0 + math.sqrt(2501.0)], rtol=0.0, atol=1e-9)
    assert full.selected_ids == [0, 2]
    assert res.selected_ids == [0, 1]


def test_last_hidden_layer_requires_a_hidden_layer():
    with pytest.raises(ConfigError, match=r"distance_scope = last_hidden_layer .*model\.hidden"):
        config.parse_config_text("distance_scope = last_hidden_layer\n")
    with pytest.raises(ConfigError, match="model.hidden"):
        config.parse_config_text("distance_scope = last_hidden_layer\nmodel.hidden =\n")
    assert config.parse_config_text(
        "distance_scope = last_hidden_layer\nmodel.hidden = 4\n"
    ).model_hidden == (4,)
    arch = ArchSpec(5, (), 3)
    uploads = np.random.default_rng(36).normal(size=(4, param_count(arch)))
    with pytest.raises(ConfigError, match="requires a hidden layer"):
        selection.select_clients([0, 1, 2, 3], uploads, 50.0, scope="last_hidden_layer", arch=arch)


def test_scope_errors():
    uploads = np.array([np.zeros(4), np.ones(4)])
    with pytest.raises(ConfigError):
        selection.select_clients([0, 1], uploads, 50.0, scope="last_hidden_layer")  # no arch
    with pytest.raises(ConfigError):
        selection.select_clients([0, 1], uploads, 50.0, scope="first_layer")
    with pytest.raises(ConfigError):
        selection.select_clients(
            [0, 1], uploads, 50.0, scope="last_hidden_layer", arch=ArchSpec(3, (2,), 2)
        )  # arch size mismatch


def test_input_validation():
    with pytest.raises(ConfigError, match="at least 2 uploads"):
        selection.select_clients([0], np.zeros((1, 3)), 50.0)
    # one row per client id, the ids strictly ascending
    for ids, uploads in [
        ([0, 1, 2], np.zeros(3)),
        ([0, 1], np.zeros((3, 2))),
        ([0, 1, 2], np.zeros((2, 2))),
        ([1, 0], np.zeros((2, 2))),
        ([0, 0, 1], np.zeros((3, 2))),
    ]:
        with pytest.raises(ConfigError, match="client ids"):
            selection.select_clients(ids, uploads, 50.0)


# ------------------------------------------------------------ robustness


def test_outlier_exclusion_trials():
    # benign uploads cluster tightly around a shared random center; a few
    # constant-vector outliers with huge magnitudes must never be kept
    master = np.random.default_rng(37)
    hits = 0
    trials = 50
    for _ in range(trials):
        seed = master.integers(0, 2**32)
        rng = np.random.default_rng(seed)
        center = rng.normal(size=30)
        uploads = np.empty((13, 30))
        uploads[:10] = center + rng.normal(0.0, 0.1, size=(10, 30))
        uploads[10:] = rng.normal(0.0, 100.0, size=(3, 1))
        res = selection.select_clients(list(range(13)), uploads, 30.0)  # keeps 4 of 13
        if all(c < 10 for c in res.selected_ids):
            hits += 1
    assert hits == trials
