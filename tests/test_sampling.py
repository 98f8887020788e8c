import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from phasefit import (
    Branch,
    SamplerState,
    cdf,
    empirical_check,
    exponential_model,
    fit_two_moments,
    new_model,
    sample,
    sample_exponential,
    sample_n,
    split_seeds,
)
from phasefit.errors import InsufficientData, NegativeCount, NonPositiveRate


class TestSamplerState:
    def test_identical_seed_identical_stream(self):
        a, b = SamplerState(123), SamplerState(123)
        assert a.uniforms(1000).tolist() == b.uniforms(1000).tolist()

    def test_uniforms_never_zero(self):
        s = SamplerState(0)
        us = s.uniforms(1_000_000)
        assert np.all(us > 0.0) and np.all(us <= 1.0)

    def test_counter_tracks_draws(self):
        s = SamplerState(0)
        s.uniform()
        s.uniforms(10)
        assert s.counter == 11

    def test_split_seeds_distinct(self):
        states = split_seeds(7, 4)
        streams = [tuple(s.uniforms(50)) for s in states]
        assert len(set(streams)) == 4


class TestSampleExponential:
    def test_inverse_transform_value(self):
        # U = e^{-1} at rate 2 gives exactly 0.5
        class Fixed(SamplerState):
            def uniform(self):
                return math.exp(-1)

        assert sample_exponential(Fixed(0), 2.0) == pytest.approx(0.5)

    def test_u_one_gives_zero(self):
        class Fixed(SamplerState):
            def uniform(self):
                return 1.0

        assert sample_exponential(Fixed(0), 2.0) == 0.0

    def test_clt_mean(self):
        s = SamplerState(11)
        xs = np.array([sample_exponential(s, 3.0) for _ in range(100_000)])
        assert abs(xs.mean() - 1 / 3) <= 4 * (1 / 3) / math.sqrt(100_000)

    def test_nonpositive_rate(self):
        with pytest.raises(NonPositiveRate):
            sample_exponential(SamplerState(0), 0.0)


class TestSample:
    def test_instantaneous_model_always_zero(self):
        m = new_model([Branch(1.0, ())])
        s = SamplerState(1)
        assert all(sample(m, s) == 0.0 for _ in range(100))

    def test_all_draws_nonnegative_and_zero_iff_instantaneous(self):
        m = new_model([Branch(0.4, (0.4,)), Branch(0.6, ())])
        s = SamplerState(2)
        xs = [sample(m, s) for _ in range(10_000)]
        assert all(x >= 0.0 for x in xs)
        zeros = sum(1 for x in xs if x == 0.0)
        assert 0 < zeros < len(xs)

    def test_erlang2_empirical_moments(self):
        m = new_model([Branch(1.0, (2.0, 2.0))])
        xs = sample_n(m, SamplerState(3), 200_000)
        assert xs.mean() == pytest.approx(1.0, abs=4 * math.sqrt(0.5 / 200_000))
        assert xs.var() == pytest.approx(0.5, abs=0.02)

    def test_determinism(self):
        m = fit_two_moments(1.0, 4.0).model
        xs = sample_n(m, SamplerState(4), 1000)
        ys = sample_n(m, SamplerState(4), 1000)
        assert xs.tolist() == ys.tolist()

    def test_branch_frequencies(self):
        from phasefit.sampling import _pick_branch

        probs = [0.2, 0.5, 0.3]
        m = new_model([Branch(p, (1.0,)) for p in probs])
        n = 1_000_000
        s = SamplerState(5)
        us = s.uniforms(n)
        picks = np.array([_pick_branch(m, u) for u in us])
        for j, p in enumerate(probs):
            freq = float(np.mean(picks == j))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 4 * se

    def test_negative_count_rejected(self):
        with pytest.raises(NegativeCount):
            sample_n(exponential_model(1.0), SamplerState(0), -1)

    def test_atom_selection_frequency(self):
        n = 1_000_000
        m = new_model([Branch(0.25, ()), Branch(0.75, (1.0,))])
        xs = sample_n(m, SamplerState(6), n)
        freq = float(np.mean(xs == 0.0))
        se = math.sqrt(0.25 * 0.75 / n)
        assert abs(freq - 0.25) <= 4 * se


class TestEmpiricalCheck:
    def test_fitted_hypo_passes(self):
        m = fit_two_moments(1.0, 0.4).model
        rep = empirical_check(m, 1_000_000, seed=10)
        assert rep.passed
        assert 0.9975 <= rep.sample_mean <= 1.0025

    def test_zero_fraction_matches_atom(self):
        m = fit_two_moments(1.0, 4.0).model
        rep = empirical_check(m, 1_000_000, seed=11)
        assert rep.passed
        assert abs(rep.zero_fraction - 0.6) <= 0.002

    def test_corrupted_model_fails(self):
        good = fit_two_moments(1.0, 0.4).model
        bad = new_model([Branch(1.0, tuple(r / 2 for r in good.branches[0].rates))])
        rep = empirical_check(bad, 100_000, seed=12)
        analytic_of_good = 1.0
        assert abs(rep.sample_mean - analytic_of_good) > 4 * rep.se_mean

    def test_small_n_rejected(self):
        with pytest.raises(InsufficientData):
            empirical_check(exponential_model(1.0), 1, seed=0)


def test_ks_continuous_part():
    m = fit_two_moments(1.0, 4.0).model
    xs = sample_n(m, SamplerState(13), 100_000)
    positive = xs[xs > 0.0]
    atom = m.atom_weight
    cond_cdf = lambda t: (cdf(m, np.asarray(t, dtype=float)) - atom) / (1 - atom)
    res = stats.kstest(positive, cond_cdf)
    assert res.pvalue > 0.001


# Seeded streams must stay byte-identical across versions. These digests of
# sample_n(model, SamplerState(103), n).tobytes() and the uniforms consumed
# were recorded from the unchunked kernel; the draw counts sit at and around
# multiples of 2^16 so that they straddle chunk boundaries.
_AE20 = 20.76273824804412
GOLDEN_MODELS = {
    "exponential": new_model([Branch(1.0, (1.5,))]),
    "almost_erlang3": new_model([Branch(1.0, (4.387425886722794, 4.387425886722794,
                                              1.8377223398316203))]),
    "almost_erlang20": new_model([Branch(1.0, (_AE20,) * 19 + (11.778684822367609,))]),
    # twelve stages: numpy's reduction sums eight or more terms pairwise
    "erlang12": new_model([Branch(1.0, (12.0,) * 12)]),
    "hyper_atom": new_model([Branch(0.11764705882352941, (0.11764705882352941,)),
                             Branch(0.8823529411764706, ())]),
    "sauer_chandy": new_model([Branch(0.1127016653792583, (0.2254033307585166,)),
                               Branch(0.8872983346207417, (1.7745966692414832,))]),
    "mixed_0_2_11": new_model([Branch(0.2, ()), Branch(0.5, (2.0, 3.0)),
                               Branch(0.3, tuple(1.0 + k / 4 for k in range(11)))]),
}
GOLDEN = {
    ("exponential", 1): ("d85abe16d2c434e1732f21e39758d4a9", 2),
    ("exponential", 65535): ("a9e4b6935ed9a52f0e949a94bb6fb9c6", 131070),
    ("exponential", 65536): ("f99fcd51822195bd4d4c5c53b53da6a8", 131072),
    ("exponential", 65537): ("467cc4635021d5915dd8e30981e57951", 131074),
    ("exponential", 196615): ("31b1d5168d23e04ef532e85cd7651156", 393230),
    ("almost_erlang3", 1): ("468c354e0b5eb143bd39d411ce36a5ce", 4),
    ("almost_erlang3", 65535): ("82a307fcda496b1ce915777d3e7996ed", 262140),
    ("almost_erlang3", 65536): ("6f8bb51e40a171d45a156f27e2a1cb9d", 262144),
    ("almost_erlang3", 65537): ("88c186b173b19ffdd3a673a0b95cd7e3", 262148),
    ("almost_erlang3", 196615): ("59f7197649225c93e5f604278ab18ba0", 786460),
    ("almost_erlang20", 1): ("1d3422e8c2dd6b758b7550ca0dc903d9", 21),
    ("almost_erlang20", 65535): ("468f548791d947bee56bf8a1003f888f", 1376235),
    ("almost_erlang20", 65536): ("ee8c6fa71c781f14a91ffb1807d712b2", 1376256),
    ("almost_erlang20", 65537): ("7ab6976ca40d073df14c14c6df559165", 1376277),
    ("almost_erlang20", 196615): ("ec1ccc183a9ce11976120a598862987f", 4128915),
    ("erlang12", 1): ("5ea1f2501359e815e00f2c5dd542fa6e", 13),
    ("erlang12", 65535): ("e9b5fe67b1f70d9a2fcf3eb5f59070d6", 851955),
    ("erlang12", 65536): ("6ac484cf93e2d70a75733883eceaf83a", 851968),
    ("erlang12", 65537): ("cd3369acd36a6944ddf70b68eb1eb299", 851981),
    ("erlang12", 196615): ("a668b0490f6c88836703d7d9a77d905f", 2555995),
    ("hyper_atom", 1): ("af5570f5a1810b7af78caf4bc70a660f", 1),
    ("hyper_atom", 65535): ("dc6fa11f953de553e2d8746f015357d2", 73113),
    ("hyper_atom", 65536): ("4c25c9f7678e3c0f9ad9378f04fced2b", 73114),
    ("hyper_atom", 65537): ("981a5d54c44e2ac47660df554ec78d00", 73115),
    ("hyper_atom", 196615): ("20e1359422c2803a0bd2cafe0a1ccad6", 219734),
    ("sauer_chandy", 1): ("ff897447da9d63ab04f8bf4b58fc81b5", 2),
    ("sauer_chandy", 65535): ("4896abc29e79f4ad91a627df7058349e", 131070),
    ("sauer_chandy", 65536): ("98e0f156e9a1358ffb82f6d53609258c", 131072),
    ("sauer_chandy", 65537): ("2c9fa09f397b7259bbb256b24f2ab022", 131074),
    ("sauer_chandy", 196615): ("2bd37d864d9a1a488e60bca06a89076e", 393230),
    ("mixed_0_2_11", 1): ("0e9e1278a6a2bdd2c2c2b234ab763b0e", 3),
    ("mixed_0_2_11", 65535): ("14d5f0cf55824bdb18a7ba7a383000ff", 347803),
    ("mixed_0_2_11", 65536): ("d6d7c2cbc5590b86385359fc0a01c8a3", 347806),
    ("mixed_0_2_11", 65537): ("ec0fdeabfd363065177298d694d6fc5f", 347809),
    ("mixed_0_2_11", 196615): ("6ca9f6f0864afab814d093fdbffff7b9", 1040397),
}


@pytest.mark.parametrize("name,n", sorted(GOLDEN))
def test_sample_n_golden_stream(name, n):
    state = SamplerState(103)
    xs = sample_n(GOLDEN_MODELS[name], state, n)
    assert xs.shape == (n,)
    assert (hashlib.sha256(xs.tobytes()).hexdigest()[:32], state.counter) == GOLDEN[name, n]


def test_sample_n_memory_bound():
    # the unchunked kernel held six to eight arrays of n * 20 doubles: 801 MiB
    tracemalloc.start()
    try:
        xs = sample_n(GOLDEN_MODELS["almost_erlang20"], SamplerState(1), 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xs.shape == (1_000_000,) and np.all(xs > 0.0)
    assert peak < 96 * 2**20
