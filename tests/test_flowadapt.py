import math
import warnings

import numpy as np
import pytest

from flowcodec import flowadapt
from flowcodec.flowadapt import (
    block_mean,
    downsample_flow,
    expand_block_field,
)
from flowcodec.io import FLO_SENTINEL
from flowcodec.model import (
    DEFAULT_MV_BOUND,
    BlockMotionField,
    MotionVector,
    quantize_to_quarter_pel,
)

from oracles import block_vector_median
from synth import constant_flow, random_flow


# --- oracles -------------------------------------------------------------------

def ref_mean(vectors):
    n = len(vectors)
    return (math.fsum(u for u, _ in vectors) / n, math.fsum(v for _, v in vectors) / n)


def summed_distance(vectors, ui, vi):
    """Exact sum of the Euclidean distances from (ui, vi) to every member."""
    return math.fsum(math.sqrt((ui - uj) ** 2 + (vi - vj) ** 2) for uj, vj in vectors)


def ref_vector_median(vectors):
    """O(K^2) minimizer of summed distances with the documented tie-break."""
    best = None
    for ui, vi in vectors:
        key = (summed_distance(vectors, ui, vi), ui * ui + vi * vi, ui, vi)
        if best is None or key < best[0]:
            best = (key, (ui, vi))
    return best[1]


def vecs_of(vectors):
    """Pack a vector list into the (K, 2) float64 set the estimators take."""
    return np.array(vectors, np.float64).reshape(-1, 2)


def list_of(vecs):
    """The (u, v) float tuples of a (K, 2) set, as the oracles take them."""
    return [tuple(v) for v in vecs.tolist()]


def block(field, x0, y0, bw, bh):
    """The in-bounds vectors of one rectangle of a dense field."""
    return vecs_of(field[y0:y0 + bh, x0:x0 + bw])


# --- block mean ------------------------------------------------------------------

def test_mean_of_identical_vectors():
    field = constant_flow(8, 8, 2.0, -1.0)
    assert block_mean(block(field, 0, 0, 8, 8)) == MotionVector(8, -4)


def test_mean_midpoint():
    assert block_mean(vecs_of([(1, 1), (3, 3)])) == MotionVector(8, 8)


def test_mean_matches_reference_summation():
    rng = np.random.default_rng(1)
    field = random_flow(48, 48, rng)
    for _ in range(30):
        x0, y0 = int(rng.integers(0, 33)), int(rng.integers(0, 33))
        vectors = [tuple(map(float, field[y, x]))
                   for y in range(y0, y0 + 16) for x in range(x0, x0 + 16)]
        want_u, want_v = ref_mean(vectors)
        assert block_mean(block(field, x0, y0, 16, 16)) == quantize_to_quarter_pel(want_u, want_v)


# --- vector median ----------------------------------------------------------------

def test_median_of_identical_vectors():
    field = constant_flow(4, 4, -3.5, 0.25)
    assert block_vector_median(block(field, 0, 0, 4, 4)) == MotionVector(-14, 1)


def test_median_outlier_case():
    vectors = [(0.0, 0.0), (0.0, 0.0), (10.0, 10.0)]
    # distance sums: (0,0) -> ~14.14, (10,10) -> ~28.28
    assert ref_vector_median(vectors) == (0.0, 0.0)
    assert block_vector_median(vecs_of(vectors)) == MotionVector(0, 0)


def test_median_is_member_of_input_set():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(1, 30))
        vectors = [tuple(map(float, v)) for v in rng.normal(0, 4, (k, 2))]
        mv = block_vector_median(vecs_of(vectors))
        u, v = ref_vector_median(vectors)
        assert mv == quantize_to_quarter_pel(u, v)
        assert (u, v) in vectors


def test_median_matches_bruteforce_including_ties():
    rng = np.random.default_rng(3)
    for trial in range(300):
        k = int(rng.integers(1, 65))
        if trial % 3 == 0:
            # integer coordinates plus duplicates: plenty of exact ties
            vecs = rng.integers(-4, 5, (k, 2)).astype(np.float64)
        elif trial % 3 == 1:
            vecs = rng.normal(0, 6, (k, 2))
            vecs[: k // 2] = vecs[k // 2 : 2 * (k // 2)]  # mirrored duplicates
        else:
            vecs = rng.normal(0, 6, (k, 2))
        vectors = [tuple(map(float, v)) for v in vecs]
        got = block_vector_median(vecs_of(vectors))
        assert got == quantize_to_quarter_pel(*ref_vector_median(vectors))


def test_median_symmetric_tie_breaks_lexicographic():
    vectors = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    got = block_vector_median(vecs_of(vectors))
    assert got == quantize_to_quarter_pel(*ref_vector_median(vectors))
    assert got == MotionVector(-4, 0)  # equal sums and magnitudes; smallest (u, v)


# --- vector median at full block size ----------------------------------------------

def symmetric_set(rng, center=(0.0, 0.0), scale=3.0, half=128):
    """`half` float32-derived offsets and their mirror images about `center`.

    center +/- offset is exact in float64, so mirrored members have the same
    multiset of distances and tie exactly."""
    h = rng.normal(0, scale, (half, 2)).astype(np.float32).astype(np.float64)
    return np.concatenate([np.add(center, h), np.subtract(center, h)])


FULL_BLOCK_SETS = {
    "constant": lambda rng: np.tile([1.75, -0.25], (256, 1)),
    "two-valued": lambda rng: np.repeat([[3.0, 2.25], [0.5, -1.0]], 128, axis=0),
    "point-symmetric": lambda rng: symmetric_set(rng)[rng.permutation(256)],
    "noisy": lambda rng: rng.normal(-2, 4, (256, 2)).astype(np.float32).astype(np.float64),
    "single": lambda rng: vecs_of([(2.5, -0.75)]),
}


@pytest.mark.parametrize("name", FULL_BLOCK_SETS)
def test_median_matches_bruteforce_on_full_blocks(name):
    vecs = FULL_BLOCK_SETS[name](np.random.default_rng(8))
    assert block_vector_median(vecs) == quantize_to_quarter_pel(*ref_vector_median(list_of(vecs)))


def test_median_one_ulp_apart_is_decided_by_exact_sums():
    # The mirrored pair c +/- h tie; moving one component of another member
    # by one ulp splits their sums in the last bits only, so the prefilter
    # must keep both and the exact sums pick the winner. (With numpy 2.4 on
    # x86-64, the prefilter's numpy row sums rank the pair the wrong way
    # round here, and tie it in the second set below.)
    def split_tie(vecs):
        tied = ref_vector_median(list_of(vecs))
        vecs[0, 0] = np.nextafter(vecs[0, 0], np.inf)
        vectors = list_of(vecs)
        won = ref_vector_median(vectors)
        sums = [summed_distance(vectors, *p) for p in (tied, won)]
        assert sums[0] != sums[1] and abs(sums[0] - sums[1]) <= sums[1] * 2.0 ** -50
        assert block_vector_median(vecs) == quantize_to_quarter_pel(*won)
        assert quantize_to_quarter_pel(*won) != quantize_to_quarter_pel(*tied)
        return tied, won, vectors

    center = (30.125, -20.125)
    split_tie(symmetric_set(np.random.default_rng(310), center, scale=0.1))

    # Every member twice, and one copy moved: the exact sums still differ in
    # the last bits, but summed once per distinct vector (counts dropped) the
    # moved copy weighs as much as a pair, and the sums rank the tie the
    # other way round.
    vecs = np.repeat(symmetric_set(np.random.default_rng(2), center, scale=0.1, half=64), 2, axis=0)
    tied, won, vectors = split_tie(vecs)
    distinct = sorted(set(vectors))
    assert summed_distance(distinct, *tied) < summed_distance(distinct, *won)


# --- vector median over repeated vectors -----------------------------------------

def test_median_of_copies_and_one_outlier():
    vecs = np.concatenate([np.tile([0.75, -1.5], (255, 1)), [[40.0, 33.25]]])
    for order in (vecs, vecs[::-1]):
        assert ref_vector_median(list_of(order)) == (0.75, -1.5)
        assert block_vector_median(order) == MotionVector(3, -6)


def test_median_of_few_distinct_vectors_matches_bruteforce():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        values = rng.normal(0, 3, (k, 2)).astype(np.float32).astype(np.float64)
        n = int(rng.choice([16, 64, 128, 256]))
        vecs = values[rng.choice(k, n, p=rng.dirichlet(np.ones(k)))]
        assert block_vector_median(vecs) == quantize_to_quarter_pel(*ref_vector_median(list_of(vecs)))


def test_median_with_signed_zero_components_matches_bruteforce():
    # Grouping merges 0.0 and -0.0: their distances and quantisation agree.
    rng = np.random.default_rng(13)
    zeros = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
    for vecs in (zeros,
                 np.concatenate([zeros, [[1.0, -0.0], [-0.0, 1.0], [1.0, 0.0]]]),
                 np.concatenate([zeros[rng.choice(4, 60)], [[-0.0, 2.5]] * 70, [[3.0, -0.0]] * 70])):
        want = quantize_to_quarter_pel(*ref_vector_median(list_of(vecs)))
        assert block_vector_median(vecs) == want
        assert block_vector_median(vecs[rng.permutation(len(vecs))]) == want


# --- pruned vector median --------------------------------------------------------

def median_member(vecs):
    """The member that block_vector_median picks, before quarter-pel
    rounding hides which one it is."""
    return tuple(flowadapt._vector_medians(vecs.reshape(1, 1, -1, 1, 2))[0, 0].tolist())


def assert_median(vecs):
    """The Vector Median of vecs, in two orders, is the oracle's member."""
    want = ref_vector_median(list_of(vecs))
    assert median_member(vecs) == median_member(vecs[::-1]) == want
    assert block_vector_median(vecs) == quantize_to_quarter_pel(*want)


def two_clusters(rng, sizes, spread, gap=3.0):
    a = rng.normal(0, spread, (sizes[0], 2)) + (gap / 2, -1.0)
    b = rng.normal(0, spread, (sizes[1], 2)) - (gap / 2, 1.0)
    return np.concatenate([a, b])[rng.permutation(sum(sizes))]


@pytest.mark.parametrize("sizes", [(131, 125), (128, 128), (125, 131), (129, 127)])
@pytest.mark.parametrize("spread", [0.0, 1e-9, 0.05, 0.5])
def test_median_of_near_balanced_two_cluster_blocks(sizes, spread):
    # D is nearly flat between the clusters, so few members can be pruned.
    rng = np.random.default_rng(sizes[0] * 10 + int(spread * 100))
    assert_median(two_clusters(rng, sizes, spread))


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.6, -0.8), (0.3, 0.7)])
@pytest.mark.parametrize("n", [2, 16, 64, 255, 256])
def test_median_of_collinear_sets(direction, n):
    # Along the line D is piecewise linear, flat between the two middle
    # members of an even set, and a tangent plane there is exact.
    rng = np.random.default_rng(n)
    t = rng.integers(-40, 41, n) / 8
    assert_median(np.outer(t, direction))
    assert_median(np.outer(t, direction) + (2.25, -7.5))
    assert_median(np.outer(np.abs(t), direction))  # many equal members at the ends


@pytest.mark.parametrize("n", [1, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("value", [(0.0, -0.0), (1.75, -0.25), (-3.1, 1e-300), (2.0 ** 60, -1e30)])
def test_median_of_all_equal_blocks(n, value):
    vecs = np.tile(value, (n, 1))
    assert block_vector_median(vecs) == quantize_to_quarter_pel(*value)
    field = np.tile(value, (20, 24, 1))  # full, edge and corner blocks
    if np.abs(value).max() > FLO_SENTINEL:
        with pytest.raises(ValueError, match="beyond"):
            downsample_flow(field, 16)
    else:
        assert (downsample_flow(field, 16).vectors == quantize_to_quarter_pel(*value)).all()


def anchored_set():
    """A 16-member set one of whose anchors is exactly a member: the
    coordinate-wise median (0, 0) holds ten members, so the Weiszfeld step
    stays there up to far less than a unit, and the mean distance from it is
    (2*1 + 4*39.5) / 16 = 10, which puts the first anchor at 10 * 0.1 = 1."""
    return vecs_of([(0.0, 0.0)] * 10 + [(1.0, 0.0)] * 2 + [(0.0, 39.5), (0.0, -39.5)] * 2)


def test_median_with_a_member_on_an_anchor():
    vecs = anchored_set()
    au, av = flowadapt._anchors(vecs[None, :, 0], vecs[None, :, 1])
    assert (1.0, 0.0) in zip(au[0].tolist(), av[0].tolist())  # the anchor is a member
    assert_median(vecs)
    assert_median(np.concatenate([vecs, [(1.0, 0.0)] * 4]))  # not the winner any more


def exact_sums(vecs):
    """summed_distance of every member, from numpy rows of the same
    rounded distances."""
    rows = np.sqrt(((vecs[:, None] - vecs[None]) ** 2).sum(axis=2))
    return np.array([math.fsum(row) for row in rows.tolist()])


def assert_bounds_hold(vecs, anchors):
    """No member's lower bound from the given anchors is above its exact
    summed distance."""
    anchors = np.asarray(anchors, np.float64).reshape(-1, 2)
    bound = flowadapt._lower_bounds(vecs[None, :, 0], vecs[None, :, 1],
                                    anchors[None, :, 0], anchors[None, :, 1])[0]
    sums = exact_sums(vecs)
    assert not (bound > sums).any(), np.flatnonzero(bound > sums)


SCALES = [1.0, 1e30, 2.0 ** -510, 1e-160, 1e-300, 5e-324]


@pytest.mark.parametrize("scale", SCALES)
def test_lower_bounds_stay_below_the_exact_sums(scale):
    # Anchors on members and between them, on the line of a collinear set,
    # where a tangent plane touches D and only the rounding margin keeps
    # the bound below the rounded sums.
    rng = np.random.default_rng(17)
    for trial in range(12):
        n = int(rng.choice([16, 64, 256]))
        t = np.sort(rng.integers(-1000, 1000, n)) * scale
        direction = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.6, 0.8)][trial % 4]
        line = np.outer(t, direction) + np.multiply(rng.integers(-5, 5, 2), scale * 1000)
        noisy = rng.normal(0, 1, (n, 2)) * scale
        for vecs in (line, noisy):
            picks = vecs[rng.choice(n, 3)]
            anchors = np.concatenate([picks, (picks[:2] + picks[1:]) / 2, picks + scale])
            assert_bounds_hold(vecs, anchors)
            c = vecs[None]
            assert_bounds_hold(vecs, np.stack(flowadapt._anchors(c[..., 0], c[..., 1]), 2))
    assert_bounds_hold(anchored_set() * scale, anchored_set()[:12] * scale)


@pytest.mark.parametrize("scale", SCALES)
def test_median_at_extreme_scales(scale):
    rng = np.random.default_rng(18)
    for trial in range(6):
        n = [16, 64, 256][trial % 3]
        offset = np.multiply(rng.integers(-3, 4, 2), scale * 100)
        for vecs in (rng.normal(0, 1, (n, 2)) * scale + offset,
                     np.outer(rng.integers(-50, 50, n), (1.0, 1.0)) * scale,
                     two_clusters(rng, (n // 2 + 1, n // 2 - 1), 0.1) * scale,
                     anchored_set() * scale):
            assert_median(vecs)


@pytest.mark.parametrize("size", [4, 8, 16])
def test_median_of_partial_edge_blocks(size):
    # A 24x20 field of 16 px blocks has blocks of 256, 128, 64 and 32 members.
    rng = np.random.default_rng(19 + size)
    for field in (rng.normal(1, 2, (20, 24, 2)),
                  np.where(rng.random((20, 24, 1)) < 0.5, (2.0, -1.0), (-1.5, 0.5)),
                  np.where(np.arange(24)[:, None] < 13, (0.25, 0.0), (4.0, 3.0))[None]
                  .repeat(20, 0) + rng.normal(0, 1e-3, (20, 24, 2))):
        blocks = downsample_flow(field, size, "vector-median")
        for r in range(blocks.rows):
            for c in range(blocks.cols):
                vectors = list_of(block(field, c * size, r * size, size, size))
                want = quantize_to_quarter_pel(*ref_vector_median(vectors))
                assert blocks.vector(c, r) == want, (r, c)


def test_median_fuzz_over_random_block_sets():
    rng = np.random.default_rng(20)
    for trial in range(150):
        n = int(rng.choice([1, 2, 3, 16, 32, 64, 128, 256]))
        kind = trial % 5
        if kind == 0:
            vecs = rng.normal(rng.normal(0, 5, 2), rng.uniform(0.01, 4), (n, 2))
        elif kind == 1:
            vecs = rng.integers(-3, 4, (n, 2)) / 4  # few distinct values, exact ties
        elif kind == 2:
            k = int(rng.integers(1, 5))
            vecs = rng.normal(0, 3, (k, 2))[rng.integers(0, k, n)] + rng.normal(0, 1e-6, (n, 2))
        elif kind == 3:
            vecs = rng.standard_cauchy((n, 2))  # heavy tails: far outliers
        else:
            vecs = rng.normal(0, 2, (n, 2)).astype(np.float32).astype(np.float64)
        assert_median(vecs)


# --- shared estimator properties -----------------------------------------------

def test_estimators_agree_on_constant_field():
    field = constant_flow(16, 16, 1.75, -2.25)
    for rect in [(0, 0, 16, 16), (8, 8, 8, 8), (12, 12, 8, 8)]:
        vecs = block(field, *rect)
        assert block_mean(vecs) == block_vector_median(vecs) == MotionVector(7, -9)


def test_estimators_permutation_invariant():
    rng = np.random.default_rng(4)
    vecs = rng.normal(0, 5, (24, 2))
    perm = rng.permutation(24)
    assert block_mean(vecs) == block_mean(vecs[perm])
    assert block_vector_median(vecs) == block_vector_median(vecs[perm])


def test_estimators_commute_with_translation():
    rng = np.random.default_rng(5)
    vecs = rng.integers(-8, 9, (16, 2)).astype(np.float64)
    t = (3.0, -2.0)
    shifted = vecs + np.array(t)
    m0, m1 = block_vector_median(vecs), block_vector_median(shifted)
    assert (m1.dx - m0.dx, m1.dy - m0.dy) == (12, -8)  # exact for integer input
    a0, a1 = block_mean(vecs), block_mean(shifted)
    assert abs(a1.dx - a0.dx - 12) <= 1 and abs(a1.dy - a0.dy + 8) <= 1


# --- downsample_flow ---------------------------------------------------------------

def test_downsample_constant_field():
    field = constant_flow(32, 32, -1.5, 0.5)
    for method in ("mean", "vector-median"):
        blocks = downsample_flow(field, 16, method)
        assert (blocks.rows, blocks.cols) == (2, 2)
        assert np.all(blocks.vectors[..., 0] == -6)
        assert np.all(blocks.vectors[..., 1] == 2)


def test_downsample_composes_per_block_estimates():
    rng = np.random.default_rng(6)
    field = random_flow(32, 32, rng)
    for method, op in (("mean", block_mean), ("vector-median", block_vector_median)):
        blocks = downsample_flow(field, 16, method)
        for r in range(2):
            for c in range(2):
                want = op(block(field, c * 16, r * 16, 16, 16))
                assert blocks.vector(c, r) == want


def test_downsample_edge_blocks_use_partial_sets():
    rng = np.random.default_rng(7)
    field = random_flow(20, 12, rng)  # 2 x 1 grid of 16 px blocks
    blocks = downsample_flow(field, 16, "mean")
    assert (blocks.rows, blocks.cols) == (1, 2)
    assert blocks.vector(1, 0) == block_mean(block(field, 16, 0, 16, 16))


def test_downsample_partial_median_blocks_match_bruteforce():
    field = random_flow(24, 20, np.random.default_rng(9))  # blocks of 256, 128, 64, 32
    blocks = downsample_flow(field, 16, "vector-median")
    for r in range(2):
        for c in range(2):
            vectors = list_of(block(field, c * 16, r * 16, 16, 16))
            assert blocks.vector(c, r) == quantize_to_quarter_pel(*ref_vector_median(vectors))


def test_downsample_median_blocks_of_one_and_of_256_distinct_vectors():
    # Blocks alternate constant and noisy flow, so each block has one
    # distinct vector or as many as members, in the same chunk; the last
    # column and row are partial (128, 64 and 32 members).
    rng = np.random.default_rng(14)
    field = rng.normal(1, 3, (36, 40, 2)).astype(np.float32)
    for r in range(3):
        for c in range(3):
            if (r + c) % 2:
                field[r * 16:(r + 1) * 16, c * 16:(c + 1) * 16] = (-2.5 + r, 0.75 * c)
    blocks = downsample_flow(field, 16, "vector-median")
    assert (blocks.rows, blocks.cols) == (3, 3)
    for r in range(3):
        for c in range(3):
            vectors = list_of(block(field, c * 16, r * 16, 16, 16))
            assert len(set(vectors)) == (1 if (r + c) % 2 else len(vectors)), (r, c)
            assert blocks.vector(c, r) == quantize_to_quarter_pel(*ref_vector_median(vectors)), (r, c)


def test_downsample_bimodal_block_mean_vs_median_differ():
    field = np.zeros((32, 32, 2), np.float32)
    field[:, 8:16, 0] = 8.0  # right half of block (0,0) moves, left half static
    mean_blocks = downsample_flow(field, 16, "mean")
    med_blocks = downsample_flow(field, 16, "vector-median")
    assert mean_blocks.vector(0, 0) == MotionVector(16, 0)   # interior value (4, 0) px
    assert med_blocks.vector(0, 0) == MotionVector(0, 0)     # an input vector
    # odd-count bimodal set: median returns a member, mean does not
    odd = vecs_of([(0.0, 0.0), (0.0, 0.0), (8.0, 0.0)])
    assert block_vector_median(odd) == MotionVector(0, 0)
    assert block_mean(odd) == MotionVector(11, 0)  # 8/3 px


def assert_means_are_block_means(field, size: int) -> np.ndarray:
    """The Mean of every block of field, whole grid at once, is `block_mean`
    of that block; returns where the numpy sum decided the block alone."""
    field = np.asarray(field, np.float64)
    blocks = downsample_flow(field, size, "mean")
    for r in range(blocks.rows):
        for c in range(blocks.cols):
            want = block_mean(block(field, c * size, r * size, size, size))
            assert blocks.vector(c, r) == want, (r, c)
    return flowadapt._block_means(field, size)[1]


@pytest.mark.parametrize("size", [4, 8, 16])
def test_grid_means_of_partial_edge_blocks(size):
    rng = np.random.default_rng(size)
    for w, h in ((37, 23), (size, 1), (1, size + 1), (3 * size, 2 * size)):
        exact = assert_means_are_block_means(random_flow(w, h, rng) * 8, size)
        assert exact.all()  # no noisy block sits within the bound of a tie


def test_grid_means_of_float32_fields():
    rng = np.random.default_rng(21)
    for scale in (1e-3, 0.3, 2.0, 40.0, 1e4):
        field = (rng.standard_normal((29, 45, 2)) * scale).astype(np.float32)
        assert assert_means_are_block_means(field, 8).all()


@pytest.mark.parametrize("size", [4, 8, 16])
def test_grid_means_on_a_quarter_pel_half_take_the_exact_sum(size):
    """Blocks whose exact mean is an odd multiple of 1/8 px, where rounding
    goes away from zero: the numpy sum cannot tell the side of the tie, so
    `block_mean` decides them."""
    rng = np.random.default_rng(size + 1)
    rows, cols = 3, 4
    means = (2 * rng.integers(-40, 40, (rows, cols, 2)) + 1) / 8  # odd eighths
    field = np.repeat(np.repeat(means, size, 0), size, 1)
    noise = rng.integers(-64, 65, (rows * size, cols * size // 2, 2)) / 64
    field[:, 0::2] += noise  # pairs that cancel exactly keep each block's mean
    field[:, 1::2] -= noise
    exact = assert_means_are_block_means(field, size)
    assert not exact.any()
    field += 1 / 64  # off the tie: the numpy sum decides
    exact = assert_means_are_block_means(field, size)
    assert exact.all()


def test_grid_means_of_large_cancelling_values():
    # Pairs up to the .flo bound cost the numpy sum at most about 1e-7 px,
    # far inside the rounding bound's room: it still decides every block.
    rng = np.random.default_rng(22)
    field = random_flow(32, 24, rng).astype(np.float64)
    big = np.array([FLO_SENTINEL, 1e8, 2.0 ** 29, 1e5])
    for k, value in enumerate(big):  # block k of the top row: a big pair that cancels
        field[0, 8 * k] = (value, -value)
        field[1, 8 * k + 3] = (-value, value)
    assert assert_means_are_block_means(field, 8).all()


@pytest.mark.parametrize("method", ["mean", "vector-median"])
def test_downsample_rejects_components_beyond_the_flo_bound(method):
    # Three (1e300, 0) and two (-1.7e300, 0) overflowed the Vector Median's
    # squared distances, which then picked the minority side; a Mean of
    # 1.7e308 raised a bare OverflowError.
    huge = np.array([[[1e300, 0.0]] * 3 + [[-1.7e300, 0.0]] * 2])
    past = np.nextafter(FLO_SENTINEL, np.inf)
    for field, count in ((huge, 5), (np.full((4, 4, 2), 1.7e308), 32),
                         (np.array([[[past, 0.0], [0.0, -past]]]), 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"has {count} components beyond"):
                downsample_flow(field, 16, method)


@pytest.mark.parametrize("method, one", [("mean", block_mean),
                                         ("vector-median", block_vector_median)])
def test_downsample_takes_components_up_to_the_flo_bound(method, one):
    rng = np.random.default_rng(40)
    field = rng.choice([-FLO_SENTINEL, FLO_SENTINEL, 0.0, 1.5], (20, 24, 2))
    field[:8, :8] = [[FLO_SENTINEL, 0.0]] * 3 + [[-FLO_SENTINEL, 0.0]] * 5  # each row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = downsample_flow(field, 8, method)
    for r in range(blocks.rows):
        for c in range(blocks.cols):
            assert blocks.vector(c, r) == one(block(field, 8 * c, 8 * r, 8, 8)), (r, c)
    # 24 members at +1e9 px and 40 at -1e9 px: both estimates clamp to -bound.
    assert blocks.vector(0, 0) == MotionVector(-DEFAULT_MV_BOUND, 0)


def test_downsample_validates_inputs():
    with pytest.raises(ValueError):
        downsample_flow(np.zeros((4, 4), np.float32), 16)
    with pytest.raises(ValueError):
        downsample_flow(constant_flow(8, 8, 0, 0), 16, method="mode")


def test_each_method_has_one_name():
    with pytest.raises(ValueError, match="unknown method 'median'"):
        downsample_flow(constant_flow(8, 8, 0, 0), 16, method="median")


@pytest.mark.parametrize("size", [0, -4, 5, 32])
@pytest.mark.parametrize("method", ["mean", "vector-median"])
def test_downsample_rejects_block_sizes_before_estimating(monkeypatch, method, size):
    def estimated(u, v):
        raise AssertionError("estimated a block")

    monkeypatch.setattr(flowadapt, "quantize_to_quarter_pel", estimated)
    with pytest.raises(ValueError, match=r"block_size must be one of \(4, 8, 16\)"):
        downsample_flow(random_flow(64, 64, np.random.default_rng(15)), size, method)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["mean", "vector-median"])
def test_downsample_rejects_non_finite_flow(method, bad):
    field = constant_flow(16, 16, 1.0, 0.0)
    field[3, 5, 1] = bad
    with pytest.raises(ValueError, match="1 non-finite"):
        downsample_flow(field, 16, method)


def test_expand_block_field_paints_blocks():
    field = constant_flow(32, 32, 2.0, 0.0)
    blocks = downsample_flow(field, 16, "mean")
    dense = expand_block_field(blocks, 32, 32)
    assert dense.shape == (32, 32, 2)
    assert np.all(dense[..., 0] == 2.0) and np.all(dense[..., 1] == 0.0)

    # A 3x2 grid of 8 px blocks over 20x12: the last column and row are partial.
    vectors = np.arange(12, dtype=np.int32).reshape(2, 3, 2) - 5
    dense = expand_block_field(BlockMotionField(8, vectors), 20, 12)
    assert dense.shape == (12, 20, 2) and dense.dtype == np.float32
    for y in range(12):
        for x in range(20):
            assert dense[y, x].tolist() == [v / 4 for v in vectors[y // 8, x // 8]], (x, y)
    with pytest.raises(ValueError, match="does not cover 20x18"):
        expand_block_field(BlockMotionField(8, vectors), 20, 18)
    with pytest.raises(ValueError, match="does not cover 28x12"):
        expand_block_field(BlockMotionField(8, vectors), 28, 12)
