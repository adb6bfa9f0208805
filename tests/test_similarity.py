"""The four similarity measures: hand arithmetic, laws, the cluster-max oracle,
and the batched exact values against sim_instances."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brex.similarity
from brex.corpus import distinct_windows
from brex.similarity import (
    MEASURE_KINDS,
    SimilarityMeasure,
    _stack,
    exact_values,
    sim_instance_cluster,
    sim_instance_templateset,
    sim_instances,
)

from support import DIM, axis, make_instance, make_template, rand_template, unit, vec

MATCH = SimilarityMeasure("match", (0.2, 0.6, 0.2))
ASYM = SimilarityMeasure("cc-asym")
SYM1 = SimilarityMeasure("cc-sym1")
SYM2 = SimilarityMeasure("cc-sym2")


class TestMeasureValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="cc-asym"):
            SimilarityMeasure("cosine")

    def test_match_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SimilarityMeasure("match", (0.5, 0.6, 0.2))

    @pytest.mark.parametrize("weights", [(-0.2, 0.6, 0.6), (math.nan, 0.5, 0.5)])
    def test_match_weights_must_be_nonnegative(self, weights):
        with pytest.raises(ValueError, match="nonnegative"):
            SimilarityMeasure("match", weights)

    def test_underscore_alias(self):
        assert SimilarityMeasure("cc_sym1").kind == "cc-sym1"


class TestSimInstances:
    def test_match_identical_between_only(self):
        t = make_template(v_between=axis(0))
        assert sim_instances(t, t, MATCH) == pytest.approx(0.6, abs=1e-12)

    def test_type_gate_forces_zero(self):
        a = make_template(v_between=axis(0), types=("ORG", "ORG"))
        b = make_template(v_between=axis(0), types=("ORG", "PER"))
        assert sim_instances(a, b, MATCH) == 0.0
        assert sim_instances(a, b, ASYM) == 0.0
        assert sim_instances(a, b, SYM1) == 0.0
        assert sim_instances(a, b, SYM2) == 0.0

    def test_asym_takes_max_over_windows(self):
        u, w = axis(0), axis(1)
        a = make_template(
            v_before=0.9 * u + math.sqrt(1 - 0.81) * w,
            v_between=0.4 * u + math.sqrt(1 - 0.16) * w,
            v_after=0.1 * u + math.sqrt(1 - 0.01) * w,
        )
        b = make_template(v_between=u)
        assert sim_instances(a, b, ASYM) == pytest.approx(0.9, abs=1e-12)

    def test_sym1_outer_max(self):
        u, w = axis(0), axis(1)
        a = make_template(v_between=0.2 * u + math.sqrt(1 - 0.04) * w)
        b = make_template(v_before=0.7 * w + math.sqrt(1 - 0.49) * axis(2),
                          v_between=u)
        # asym(a, b) = a.between . b.between = 0.2
        # asym(b, a) = b.before . a.between = 0.7 * sqrt(0.96) ... use exact dots
        forward = sim_instances(a, b, ASYM)
        backward = sim_instances(b, a, ASYM)
        assert sim_instances(a, b, SYM1) == pytest.approx(max(forward, backward))
        assert forward == pytest.approx(0.2, abs=1e-12)

    def test_sym2_formula(self):
        rng = np.random.default_rng(5)
        a, b = rand_template(rng), rand_template(rng)
        expected = max(
            float((a.v_before + a.v_after) @ b.v_between),
            float((b.v_before + b.v_after) @ a.v_between),
            float(a.v_between @ b.v_between),
            0.0,
        )
        assert sim_instances(a, b, SYM2) == pytest.approx(min(1.0, expected), abs=1e-12)

    def test_negative_dot_clamped_to_zero(self):
        a = make_template(v_between=axis(0))
        b = make_template(v_between=-axis(0))
        for measure in (MATCH, ASYM, SYM1, SYM2):
            assert sim_instances(a, b, measure) == 0.0

    def test_sym2_clamped_at_one(self):
        # side windows equal: (v_bef + v_aft) . v_bet = 2 before clamping
        a = make_template(v_before=axis(0), v_between=axis(1), v_after=axis(0))
        b = make_template(v_between=axis(0))
        assert sim_instances(a, b, SYM2) == 1.0

    def test_dimension_mismatch_raises(self):
        a = make_template(v_between=axis(0))
        b = make_template(v_between=np.zeros(DIM + 1), dim=DIM + 1)
        with pytest.raises(ValueError, match="dimension"):
            sim_instances(a, b, MATCH)

    def test_accepts_instances_and_templates(self):
        t = make_template(v_between=axis(0))
        inst = make_instance(template=t)
        assert sim_instances(inst, t, MATCH) == sim_instances(t, t, MATCH)


@st.composite
def template_pairs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rand_template(rng), rand_template(rng)


class TestLaws:
    @given(template_pairs())
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, pair):
        a, b = pair
        assert sim_instances(a, b, SYM1) == pytest.approx(
            sim_instances(b, a, SYM1), abs=1e-12)
        assert sim_instances(a, b, SYM2) == pytest.approx(
            sim_instances(b, a, SYM2), abs=1e-12)

    @given(template_pairs())
    @settings(max_examples=200, deadline=None)
    def test_sym1_dominates_asym(self, pair):
        a, b = pair
        assert sim_instances(a, b, SYM1) >= sim_instances(a, b, ASYM) - 1e-12

    @given(template_pairs())
    @settings(max_examples=200, deadline=None)
    def test_range(self, pair):
        a, b = pair
        for measure in (MATCH, ASYM, SYM1, SYM2):
            assert 0.0 <= sim_instances(a, b, measure) <= 1.0

    @given(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    @settings(max_examples=8, deadline=None)
    def test_match_self_similarity_counts_active_windows(self, mask):
        has_before, has_between, has_after = mask
        t = make_template(
            v_before=axis(0) if has_before else None,
            v_between=axis(1) if has_between else None,
            v_after=axis(2) if has_after else None,
        )
        expected = (0.2 * has_before + 0.6 * has_between + 0.2 * has_after)
        assert sim_instances(t, t, MATCH) == pytest.approx(expected, abs=1e-12)


class TestClusterAndTemplateSet:
    def test_singleton_cluster(self):
        inst = make_instance()
        assert sim_instance_cluster(inst, [inst], ASYM) == pytest.approx(1.0)

    def test_cluster_max_is_brute_force_max(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            probe = make_instance(template=rand_template(rng))
            members = [make_instance(template=rand_template(rng))
                       for _ in range(int(rng.integers(1, 100)))]
            expected = max(sim_instances(probe, m, SYM1) for m in members)
            assert sim_instance_cluster(probe, members, SYM1) == expected

    def test_empty_cluster_raises(self):
        with pytest.raises(ValueError):
            sim_instance_cluster(make_instance(), [], MATCH)

    def test_type_incompatible_cluster_is_zero(self):
        probe = make_instance(types=("ORG", "PER"))
        members = [make_instance(), make_instance()]
        assert sim_instance_cluster(probe, members, ASYM) == 0.0

    def test_templateset_empty_is_zero(self):
        assert sim_instance_templateset(make_instance(), [], MATCH) == 0.0

    def test_templateset_max(self):
        u = axis(0)
        probe = make_instance(template=make_template(v_between=u))
        lo = make_template(v_between=unit(vec(0.65, math.sqrt(1 - 0.65**2))))
        hi = make_template(v_between=unit(vec(0.72, math.sqrt(1 - 0.72**2))))
        value = sim_instance_templateset(probe, [lo, hi], ASYM)
        assert value == pytest.approx(0.72, abs=1e-12)

    def test_between_only_match_against_seed_template(self):
        # identical between vectors, zero side windows, default match weights
        u = axis(3)
        probe = make_instance(template=make_template(v_between=u))
        seed = make_template(v_between=u)
        assert sim_instance_templateset(probe, [seed], MATCH) == pytest.approx(
            0.6, abs=1e-12)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bytes, with any NaN equal to any NaN."""
    nan = np.isnan(a)
    return (nan == np.isnan(b)).all() and a[~nan].tobytes() == b[~nan].tobytes()


def random_contexts(rng, n, dim, log_scale):
    """n templates whose windows have components near 1 or near
    10**log_scale, a fifth of them zero. Two large windows overflow their
    dot product to inf or NaN, while a pair's other products stay finite."""
    windows = rng.normal(size=(n, 3, dim)) * np.where(
        rng.random((n, 3, 1)) < 0.5, 10.0 ** log_scale, 1.0)
    windows[rng.random((n, 3)) < 0.2] = 0.0
    return [make_template(*window, dim=dim) for window in windows]


def share_windows(rng, templates, sharing):
    """``templates`` with about a third of their windows replaced by another
    window of the list: the same array (``sharing`` "shared"), as ingest
    shares one array among the windows of a token multiset, or an equal
    copy of it ("equal"); "own" changes nothing."""
    if sharing == "own":
        return templates
    windows = [[t.v_before, t.v_between, t.v_after] for t in templates]
    flat = [window for triple in windows for window in triple]
    for triple in windows:
        for w in range(3):
            if rng.random() < 0.35:
                source = flat[int(rng.integers(len(flat)))]
                triple[w] = source if sharing == "shared" else source.copy()
    return [make_template(*triple, dim=len(triple[0])) for triple in windows]


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(MEASURE_KINDS),
       dim=st.sampled_from([1, 3, 8, 50, 67]),
       log_scale=st.sampled_from([-170.0, 0.0, 160.0]) | st.floats(-170.0, 160.0),
       block_cells=st.sampled_from([1, 100, 1 << 17]),
       sharing=st.sampled_from(["own", "shared", "equal"]))
@settings(max_examples=300, deadline=None)
def test_exact_values_equal_sim_instances_bit_for_bit(seed, kind, dim, log_scale,
                                                      block_cells, sharing):
    """The batched exact values of probe and target rows gathered from their
    tables of distinct contexts are the sim_instances values of those rows'
    templates, bit for bit, in chunks of any size, whether rows share one
    array, hold equal copies or hold their own. A before+after row of a
    table, built in chunks of any size, has the bits of the two windows'
    sum."""
    rng = np.random.default_rng(seed)
    weights = rng.random(3)
    measure = SimilarityMeasure(kind, tuple((weights / weights.sum()).tolist()))
    probes = share_windows(rng, random_contexts(rng, int(rng.integers(1, 8)), dim, log_scale),
                           sharing)
    targets = share_windows(rng, random_contexts(rng, int(rng.integers(1, 8)), dim, log_scale),
                            sharing)
    pairs = int(rng.integers(0, 40))
    p_at = rng.integers(0, len(probes), size=pairs)
    t_at = rng.integers(0, len(targets), size=pairs)
    with (mock.patch.object(brex.similarity, "_BLOCK_CELLS", block_cells),
          mock.patch.object(brex.similarity, "_GATHER_CELLS", block_cells),
          np.errstate(over="ignore", invalid="ignore")):
        probe_table = _stack(*distinct_windows(probes))
        target_table = _stack(*distinct_windows(targets))
        values = exact_values(measure, probe_table, p_at, target_table, t_at)
        expected = np.array([sim_instances(probes[i], targets[j], measure)
                             for i, j in zip(p_at.tolist(), t_at.tolist())])
        sides = np.array([t.v_before + t.v_after for t in probes])
    assert same_bits(values, expected)
    assert same_bits(probe_table.table[probe_table.ids[:, 3]], sides)
    assert same_bits(probe_table.table[probe_table.ids[:, :3]],
                     np.array([[t.v_before, t.v_between, t.v_after] for t in probes]))
