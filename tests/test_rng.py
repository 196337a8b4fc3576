import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlab.graphcore import from_edges
from expanderlab.percolation import _PHASE_EDGES, _edge_uniforms
from expanderlab.rng import _GOLDEN, _MASK64, Stream, split
from oracles import ScalarStream


def _unmix(z: int) -> int:
    """The inverse of the SplitMix64 finalizer: _mix(_unmix(z)) == z."""
    z ^= z >> 31 ^ z >> 62
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64
    z ^= z >> 27 ^ z >> 54
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64
    return z ^ z >> 30 ^ z >> 60


def _path(m: int):
    return from_edges(m + 1, [(v, v + 1) for v in range(m)])


class TestStream:
    def test_determinism(self):
        assert Stream(42).block(5).tolist() == Stream(42).block(5).tolist()

    def test_known_splitmix_values(self):
        # the first outputs for seed 0 of the SplittableRandom finalizer
        assert Stream(0).block(3).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
        ]

    def test_uniform_range(self):
        xs = _edge_uniforms(_path(10_000), 7)
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 0.5) < 0.02

    def test_randrange_bounds_and_coverage(self):
        # the reference's draws mod n, which the block shuffle must reproduce
        s = ScalarStream(3)
        seen = {s.randrange(6) for _ in range(500)}
        assert seen == {0, 1, 2, 3, 4, 5}

    def test_shuffle_is_permutation(self):
        s = Stream(5)
        xs = list(range(30))
        s.shuffle(xs)
        assert sorted(xs) == list(range(30))
        assert xs != list(range(30))  # astronomically unlikely to be identity


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(0, _MASK64), st.integers(0, 5_000))
def test_blocks_match_the_scalar_reference(seed, k):
    # each call leaves the stream where the scalar one is: the next draws agree
    fast, ref = Stream(seed), ScalarStream(seed)
    assert fast.block(k).tolist() == [ref.next_u64() for _ in range(k)]
    xs, ys = list(range(k)), list(range(k))
    fast.shuffle(xs)
    ref.shuffle(ys)
    assert xs == ys
    assert fast.block(1).tolist() == [ref.next_u64()]
    stream = ScalarStream(split(seed, _PHASE_EDGES))
    assert _edge_uniforms(_path(k), seed).tolist() == [stream.uniform() for _ in range(k)]


@pytest.mark.parametrize("t", range(4))
def test_shuffle_rejects_as_the_reference_does(t):
    # the t-th draw of a 5-item shuffle is 2^64 - 1, the top of the incomplete
    # block for every bound; for bound 3 (t = 2) it is the only rejected value
    seed = (_unmix(_MASK64) - (t + 1) * _GOLDEN) & _MASK64
    assert Stream(seed).block(t + 1).tolist()[t] == _MASK64
    fast, ref = Stream(seed), ScalarStream(seed)
    xs, ys = list(range(5)), list(range(5))
    fast.shuffle(xs)
    ref.shuffle(ys)
    assert xs == ys
    assert fast.block(1).tolist() == [ref.next_u64()]


class TestSplit:
    def test_children_differ(self):
        kids = {split(9, i) for i in range(100)}
        assert len(kids) == 100

    def test_fold_associativity(self):
        assert split(9, 2, 5) == split(split(9, 2), 5)

    def test_independent_of_sibling_draws(self):
        # drawing from one child stream must not perturb another
        a = Stream(split(1, 0))
        b = Stream(split(1, 1))
        seq_b = Stream(split(1, 1)).block(1).tolist()
        a.block(1)
        assert b.block(1).tolist() == seq_b
