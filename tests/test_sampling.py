import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import phasefit
from phasefit import (
    Branch,
    sampling,
    SamplerState,
    cdf,
    empirical_check,
    exponential_model,
    fit_two_moments,
    new_model,
    sample_n,
    split_seeds,
)
from phasefit.errors import (DomainError, InsufficientData, MomentOverflow, NegativeCount,
                             NonPositiveInput, NonPositiveRate)


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
        s.uniforms(1)
        s.uniforms(10)
        assert s.counter == 11

    def test_split_seeds_distinct(self):
        states = split_seeds(7, 4)
        streams = [tuple(s.uniforms(50)) for s in states]
        assert len(set(streams)) == 4

    def test_split_seeds_keeps_its_streams(self):
        assert [s.seed for s in split_seeds(5, 2)] == [15658875773272509128, 6924645418555453511]

    @pytest.mark.parametrize("call", [
        lambda: SamplerState(-1), lambda: split_seeds(-1, 2),
        lambda: empirical_check(exponential_model(1.0), 10, seed=-3),
        lambda: phasefit.run_mph1(0.5, exponential_model(1.0), n_customers=10, seed=-3)],
        ids=["state", "split", "empirical_check", "run_mph1"])
    def test_negative_seed_refused_by_name(self, call):
        with pytest.raises(NonPositiveInput, match="seed must be nonnegative, got -"):
            call()

    def test_negative_stream_count_refused(self):
        with pytest.raises(NegativeCount, match="stream count"):
            split_seeds(0, -1)


def _fixed_uniforms(u: float) -> SamplerState:
    # sample_n takes its stage uniforms into a buffer, through uniforms(n, out)
    class Fixed(SamplerState):
        def uniforms(self, n, out=None):
            self.counter += n
            out = np.empty(n) if out is None else out[:n]
            out[:] = u
            return out

    return Fixed(0)


class TestSampleExponential:
    def test_inverse_transform_value(self):
        # U = e^{-1} at rate 2 gives exactly 0.5
        xs = sample_n(exponential_model(2.0), _fixed_uniforms(math.exp(-1)), 3)
        assert xs.tolist() == pytest.approx([0.5] * 3)

    def test_u_one_gives_zero(self):
        xs = sample_n(exponential_model(2.0), _fixed_uniforms(1.0), 3)
        assert xs.tolist() == [0.0] * 3

    def test_clt_mean(self):
        xs = sample_n(exponential_model(3.0), SamplerState(11), 100_000)
        assert abs(xs.mean() - 1 / 3) <= 4 * (1 / 3) / math.sqrt(100_000)

    def test_nonpositive_rate(self):
        with pytest.raises(NonPositiveRate):
            Branch(1.0, (0.0,))


class TestSample:
    def test_instantaneous_model_always_zero(self):
        s = SamplerState(1)
        xs = sample_n(new_model([Branch(1.0, ())]), s, 100)
        assert xs.tolist() == [0.0] * 100 and s.counter == 100

    def test_all_draws_nonnegative_and_zero_iff_instantaneous(self):
        m = new_model([Branch(0.4, (0.4,)), Branch(0.6, ())])
        n = 10_000
        xs = sample_n(m, SamplerState(2), n)
        # the branch uniforms come first: u > 0.4 picks the atom
        atom = SamplerState(2).uniforms(n) > 0.4
        assert np.all(xs >= 0.0)
        assert np.array_equal(xs == 0.0, atom)
        assert 0 < atom.sum() < n

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
        # branches of 0, 1 and 3 stages: the zeros count the first, and the
        # stage uniforms used (counter - n = n1 + 3 n3) split the other two
        probs = [0.2, 0.5, 0.3]
        m = new_model([Branch(0.2, ()), Branch(0.5, (1.0,)), Branch(0.3, (1.0, 2.0, 3.0))])
        n = 1_000_000
        s = SamplerState(5)
        xs = sample_n(m, s, n)
        n0 = int(np.sum(xs == 0.0))
        n3, rest = divmod(s.counter - n - (n - n0), 2)
        assert rest == 0
        for count, p in zip((n0, n - n0 - n3, n3), probs):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(count / n - p) <= 4 * se

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

    @pytest.mark.filterwarnings("error")
    def test_variance_near_the_float_range(self):
        # mean 1.25e153, variance 1.56e306: the squared deviations sum past 1e308
        rep = empirical_check(exponential_model(8e-154), 100_000, seed=0)
        assert rep.passed
        assert rep.sample_variance == pytest.approx(1.5625e306, rel=0.05)
        assert math.isfinite(rep.se_variance)

    def test_scaling_keeps_ordinary_moments_exact(self):
        m = fit_two_moments(1.0, 4.0).model
        xs = sample_n(m, SamplerState(14), 10_000)
        rep = empirical_check(m, 10_000, seed=14)
        assert (rep.sample_mean, rep.sample_variance) == (float(xs.mean()), float(xs.var(ddof=1)))

    def test_small_n_rejected(self):
        with pytest.raises(InsufficientData):
            empirical_check(exponential_model(1.0), 1, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_moments_refused_before_drawing(self):
        m = new_model([Branch(1.0, (1e-308, 1e-308))])
        with pytest.raises(MomentOverflow):
            empirical_check(m, 1_000_000, seed=0)


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
    # two, eight and nine stages: the terms after the first are summed one by one
    # below eight of them, pairwise from eight on
    "erlang2": new_model([Branch(1.0, (2.0,) * 2)]),
    "erlang8": new_model([Branch(1.0, (8.0,) * 8)]),
    "erlang9": new_model([Branch(1.0, (9.0,) * 9)]),
    # branches of at most one stage, with more than one atom
    "hyper_two_atoms": new_model([Branch(0.1, ()), Branch(0.3, (0.5,)), Branch(0.15, ()),
                                  Branch(0.25, (2.0,)), Branch(0.2, (7.0,))]),
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
    ("erlang2", 1): ("9e2102b1cdd5b48a0319e6b1f0040de6", 3),
    ("erlang2", 65535): ("bf852e398cf98b25c9202dcf9608aba4", 196605),
    ("erlang2", 65536): ("50790eac04df7d2b1b824a23d940866c", 196608),
    ("erlang2", 65537): ("dbce1473065f6195d69607cfe86adc0c", 196611),
    ("erlang2", 196615): ("b67882a111c52910fe537cd0be41bc9a", 589845),
    ("erlang8", 1): ("6b5310b59be7523a83b1466a69c4f4c4", 9),
    ("erlang8", 65535): ("d64e0c28cdbf62302431c5112a56e2df", 589815),
    ("erlang8", 65536): ("3b90f9cc2987f14e21343abdb609d7b3", 589824),
    ("erlang8", 65537): ("87ae6b197758c34b0ab42de37109e419", 589833),
    ("erlang8", 196615): ("b25183f2a6400dd8fdcd4b06390ffec9", 1769535),
    ("erlang9", 1): ("5b41884989461ae21e855c2e1a9cb79e", 10),
    ("erlang9", 65535): ("53b4a17ec1fcbb8c39f1363d138cbffa", 655350),
    ("erlang9", 65536): ("74e9c2ad930b66652ef466e7718da0e1", 655360),
    ("erlang9", 65537): ("c10c438004601972412e45e597f600e1", 655370),
    ("erlang9", 196615): ("4fda8b4e29fe0a46c0f603bc1b69e66c", 1966150),
    ("hyper_two_atoms", 1): ("6e9607e0f3dbd01bff41b9124acbab37", 2),
    ("hyper_two_atoms", 65535): ("15df8efa6324107ee8340ab128181c82", 114699),
    ("hyper_two_atoms", 65536): ("89f0af313c6326700ed7cb719e11af5c", 114700),
    ("hyper_two_atoms", 65537): ("fae08522dabfa03a59d0d0f45ed05518", 114702),
    ("hyper_two_atoms", 196615): ("b90879d7b680d071a95d3c6ae67ce4bc", 344073),
}


@pytest.mark.parametrize("name,n", sorted(GOLDEN))
def test_sample_n_golden_stream(name, n):
    state = SamplerState(103)
    xs = sample_n(GOLDEN_MODELS[name], state, n)
    assert xs.shape == (n,)
    assert (hashlib.sha256(xs.tobytes()).hexdigest()[:32], state.counter) == GOLDEN[name, n]


def test_sample_n_memory_bound():
    # the unchunked kernel held six to eight arrays of n * 20 doubles: 801 MiB,
    # the kernel chunked by draws 47.5 MiB, and with per-draw stage offsets
    # 16.6 MiB. Now the draws (7.6 MiB), one CHUNK buffer (256 KiB) per thread
    # and one row of tiled rates (256 KiB): 9.7 MiB measured on two threads.
    # The bound adds 1 MiB and the buffers of any further threads.
    tracemalloc.start()
    try:
        xs = sample_n(GOLDEN_MODELS["almost_erlang20"], SamplerState(1), 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xs.shape == (1_000_000,) and np.all(xs > 0.0)
    assert peak < 9.7 * 2**20 + (sampling.WORKERS - 2) * sampling.CHUNK * 8 + 2**20


def test_sample_n_memory_bound_with_a_rare_atom():
    # one draw in 21 is an atom: the draws (7.6 MiB), their branches and a mask (1 MiB
    # each) and the indices of the draws with a stage (7.3 MiB): 16.9 to 17.5 MiB measured
    # on one to three threads (18.2 to 19.2 MiB with per-draw stage offsets). The bound
    # adds 1 MiB.
    model = fit_two_moments(1.0, 1.1).model
    assert [b.length for b in model.branches] == [1, 0]
    tracemalloc.start()
    try:
        xs = sample_n(model, SamplerState(1), 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xs.shape == (1_000_000,) and 0.04 < np.mean(xs == 0.0) < 0.055
    assert peak < 17.5 * 2**20 + 2**20


@pytest.mark.parametrize("stages", range(1, 13))
def test_stage_sums_match_reduceat(stages):
    # the order of the sum fixes its bits: terms spread over many binades, and rows
    # of signed zeros, where only reduceat's own start from -0.0 keeps a -0.0
    rng = np.random.default_rng(stages)
    block = rng.exponential(size=(4000, stages)) * np.exp(rng.uniform(-30.0, 30.0, (4000, stages)))
    block[:50] = -0.0
    block[50:100] = rng.choice([0.0, -0.0], size=(50, stages))
    block[100:150, 1:] = -0.0
    want = np.add.reduceat(block.ravel(), np.arange(0, block.size, stages)).tobytes()
    assert sampling._stage_sums(block.copy()).tobytes() == want
    out = np.empty(len(block))
    sampling._stage_sums(block.copy(), out=out)
    assert out.tobytes() == want


def _run(model, n, seed=103):
    """sample_n's bytes, the counter after it and the next five uniforms."""
    state = SamplerState(seed)
    xs = sample_n(model, state, n)
    return xs.tobytes(), state.counter, state.uniforms(5).tobytes()


@pytest.fixture
def small_kernel(monkeypatch):
    """sample_n with chunks of `chunk` stage uniforms, and split across
    `workers` threads past `parallel_min` of them. Threads switch every
    microsecond meanwhile, so that parts interleave finely."""
    def apply(chunk, parallel_min, workers):
        monkeypatch.setattr(sampling, "CHUNK", chunk)
        monkeypatch.setattr(sampling, "PARALLEL_MIN", parallel_min)
        monkeypatch.setattr(sampling, "WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield apply
    finally:
        sys.setswitchinterval(interval)


INVARIANCE_MODELS = {name: GOLDEN_MODELS[name]
                     for name in ("mixed_0_2_11", "hyper_atom", "almost_erlang20", "erlang2",
                                  "erlang8", "erlang9", "hyper_two_atoms")}
INVARIANCE_MODELS["atom_only"] = new_model([Branch(1.0, ())])
INVARIANCE_MODELS["two_atoms"] = new_model([Branch(0.4, ()), Branch(0.6, ())])
# 0 to 3 draws, then counts on both sides of the chunk (5, 7 uniforms) and
# part boundaries those settings give
INVARIANCE_NS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 20, 21, 22, 39, 40, 41, 99, 100, 101)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("chunk", [5, 7])
@pytest.mark.parametrize("name", sorted(INVARIANCE_MODELS))
def test_sample_n_invariant_to_chunks_and_threads(small_kernel, name, chunk, workers):
    model = INVARIANCE_MODELS[name]
    want = {n: _run(model, n) for n in INVARIANCE_NS}
    small_kernel(chunk, 3, workers)
    for n in INVARIANCE_NS:
        assert _run(model, n) == want[n], n


@pytest.mark.parametrize("name,n", [(name, n) for name, n in sorted(GOLDEN) if n <= 65537])
def test_golden_stream_on_small_chunks_and_three_threads(small_kernel, name, n):
    small_kernel(61, 100, 3)
    test_sample_n_golden_stream(name, n)


def test_parts_hold_at_least_parallel_min_uniforms(small_kernel):
    # 2499 stage uniforms, 8 CPUs: two parts of at least 1000, so one helper,
    # jumped ahead to draw 417 (uniform 1251) of 833
    jumps = []

    class Recording(SamplerState):
        def skip(self, n):
            jumps.append(n)
            return super().skip(n)

    want = sample_n(GOLDEN_MODELS["almost_erlang3"], SamplerState(103), 833).tobytes()
    small_kernel(sampling.CHUNK, 1000, 8)
    assert sample_n(GOLDEN_MODELS["almost_erlang3"], Recording(103), 833).tobytes() == want
    assert jumps == [833, 1251, 1248]  # branch uniforms, the helper's jump, the caller's


@pytest.mark.filterwarnings("error")
def test_helper_thread_overflow_reaches_caller(small_kernel):
    # every draw at rate 1e-320 passes the float range, in every part
    small_kernel(sampling.CHUNK, 1000, 3)
    before = threading.active_count()
    with pytest.raises(MomentOverflow):
        sample_n(new_model([Branch(1.0, (1e-320,))]), SamplerState(0), 10_000)
    assert threading.active_count() == before


def test_helper_thread_failure_reaches_caller(small_kernel):
    class HelperFails(SamplerState):
        """Fails to draw once jumped ahead: only the copies for helper threads are,
        as the caller's own state skips only the branch uniforms of one branch."""
        skips = 0

        def skip(self, n):
            self.skips += 1
            return super().skip(n)

        def uniforms(self, n, out=None):
            if self.skips > 1:
                raise RuntimeError("a helper's part")
            return super().uniforms(n, out)

    small_kernel(sampling.CHUNK, 1000, 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="a helper's part"):
        sample_n(GOLDEN_MODELS["almost_erlang3"], HelperFails(0), 10_000)
    assert threading.active_count() == before
    # with one thread the same state draws without failing
    small_kernel(sampling.CHUNK, 1000, 1)
    assert sample_n(GOLDEN_MODELS["almost_erlang3"], HelperFails(0), 10_000).shape == (10_000,)


def run_limited(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Runs code in a child Python limited to 2 GiB of address space, with argv.
    A count of 1e10 draws must fail there at its first array: without the limit,
    an overcommitting host lets numpy start writing tens of GiB."""
    prelude = ("import resource\n"
               "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(phasefit.__file__)))
    return subprocess.run([sys.executable, "-c", prelude + code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


HUGE = 10**10
SAMPLE_HUGE = f"""
import json, sys
from phasefit import SamplerState, model_from_json, sample_n
from phasefit.errors import DomainError
state = SamplerState(5)
state.uniforms(3)
try:
    sample_n(model_from_json(sys.argv[1]), state, {HUGE})
except DomainError as exc:
    print(json.dumps([str(exc), state.counter, state.uniforms(1)[0]]))
"""


@pytest.mark.parametrize("name", ["almost_erlang20", "hyper_atom", "mixed_0_2_11"])
def test_huge_count_is_refused_with_the_stream_unchanged(name):
    proc = run_limited(SAMPLE_HUGE, phasefit.model_to_json(GOLDEN_MODELS[name]))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    want = SamplerState(5)
    want.uniforms(3)
    assert json.loads(proc.stdout) == [f"{HUGE} draws do not fit in memory", 3,
                                       want.uniforms(1)[0]]


def test_huge_queue_is_refused():
    proc = run_limited(f"""
from phasefit import exponential_model, run_mph1
from phasefit.errors import DomainError
try:
    run_mph1(0.5, exponential_model(1.0), n_customers={HUGE})
except DomainError as exc:
    print(exc)
""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"{HUGE} customers do not fit in memory\n", "")


@pytest.mark.parametrize("name", ["almost_erlang20", "mixed_0_2_11"])
@pytest.mark.parametrize("workers", [1, 3])
def test_refusal_after_drawing_rewinds_the_stream(small_kernel, monkeypatch, name, workers):
    # a part that fails once it has drawn: the stream goes back past the
    # branch uniforms, the helpers' jumps and the part's own uniforms
    def fill_then_fail(state, *args):
        state.uniforms(7)
        raise MemoryError

    small_kernel(5, 3, workers)
    monkeypatch.setattr(sampling, "_fill", fill_then_fail)
    state, want = SamplerState(5), SamplerState(5)
    with pytest.raises(DomainError, match="100 draws do not fit in memory"):
        sample_n(GOLDEN_MODELS[name], state, 100)
    assert state.counter == 0
    assert state.uniforms(4).tobytes() == want.uniforms(4).tobytes()
