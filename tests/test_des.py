import math
import sys
import warnings

import numpy as np
import pytest

from phasefit import (
    Branch,
    EventCalendar,
    MomentSummary,
    SamplerState,
    exponential_model,
    fit_two_moments,
    new_model,
    pk_mean_wait,
    run_mph1,
    sample_n,
    summarize,
)
from phasefit.des import WARMUP_FRACTION, _draws, _fifo_waits
from phasefit.errors import (
    NegativeCount,
    NonPositiveInput,
    UnstableSystem,
    UnstableSystemWarning,
)
from phasefit.sampling import split_seeds


class TestEventCalendar:
    def test_instantaneous_model_fires_now(self):
        cal = EventCalendar(SamplerState(0))
        t = cal.schedule(new_model([Branch(1.0, ())]), "a")
        assert t == cal.clock == 0.0

    def test_fifo_on_equal_times(self):
        cal = EventCalendar(SamplerState(0))
        cal.schedule_at(1.0, "first")
        cal.schedule_at(1.0, "second")
        cal.schedule_at(0.5, "early")
        assert [cal.pop()[1] for _ in range(3)] == ["early", "first", "second"]

    def test_clock_monotone(self):
        cal = EventCalendar(SamplerState(1))
        m = exponential_model(1.0)
        for i in range(50):
            cal.schedule(m, i)
        prev = 0.0
        while len(cal):
            t, _ = cal.pop()
            assert t >= prev
            prev = t

    def test_nan_time_rejected(self):
        cal = EventCalendar(SamplerState(0))
        for time in (math.nan, math.inf):
            with pytest.raises(NonPositiveInput):
                cal.schedule_at(time, "a")
        assert len(cal) == 0 and cal.clock == 0.0
        cal.clock = sys.float_info.max  # the clock plus a drawn delay passes the float range
        with pytest.raises(NonPositiveInput):
            cal.schedule(exponential_model(1e-300), "b")
        assert len(cal) == 0 and cal.clock == sys.float_info.max

    def test_schedule_reproduces_sampler_sequence(self):
        m = exponential_model(2.0)
        cal = EventCalendar(SamplerState(42))
        times = [cal.schedule(m, i) for i in range(10)]
        ref_state = SamplerState(42)
        expected = [sample_n(m, ref_state, 1)[0] for _ in range(10)]
        assert times == expected
        assert cal.rng.counter == ref_state.counter == 20


class TestPkMeanWait:
    def test_mm1_value(self):
        s = MomentSummary.from_mean_var(0.5, 0.25)
        assert pk_mean_wait(1.0, s) == pytest.approx(0.5)

    def test_hyper_value(self):
        s = MomentSummary.from_mean_var(0.5, 1.0)
        assert pk_mean_wait(1.0, s) == pytest.approx(1.25)

    def test_zero_arrival_rate(self):
        s = MomentSummary.from_mean_var(0.5, 0.25)
        assert pk_mean_wait(0.0, s) == 0.0

    def test_unstable_rejected(self):
        s = MomentSummary.from_mean_var(1.0, 1.0)
        with pytest.raises(UnstableSystem):
            pk_mean_wait(1.0, s)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_nan_inf_negative_arrival_rate_rejected(self, rate):
        for s in (MomentSummary.from_mean_var(0.5, 0.25), MomentSummary.from_mean_var(0.0, 0.0)):
            with pytest.raises(NonPositiveInput):
                pk_mean_wait(rate, s)


class TestRunMph1:
    def test_no_arrivals(self):
        stats = run_mph1(0.0, exponential_model(1.0), n_customers=100, seed=0)
        assert stats.n_served == 0
        assert stats.mean_wait == 0.0

    def test_mm1_matches_pk(self):
        service = exponential_model(2.0)  # mean 0.5
        stats = run_mph1(1.0, service, n_customers=200_000, seed=1)
        expected = pk_mean_wait(1.0, summarize(service))
        assert abs(stats.mean_wait - expected) <= 3 * stats.se_wait
        assert 0.4 < stats.utilization < 0.6
        assert stats.stable

    def test_hyper_service_matches_pk(self):
        service = fit_two_moments(0.5, 1.0).model
        stats = run_mph1(1.0, service, n_customers=200_000, seed=2)
        expected = pk_mean_wait(1.0, summarize(service))  # 1.25
        assert expected == pytest.approx(1.25, rel=1e-12)
        assert abs(stats.mean_wait - expected) <= 3 * stats.se_wait

    def test_system_time_exceeds_wait(self):
        service = exponential_model(2.0)
        stats = run_mph1(0.6, service, n_customers=50_000, seed=3)
        assert stats.mean_system_time > stats.mean_wait

    def test_unstable_warns_but_returns(self):
        with pytest.warns(UnstableSystemWarning):
            stats = run_mph1(3.0, exponential_model(2.0), n_customers=5_000, seed=4)
        assert not stats.stable
        assert stats.n_served == 5_000

    def test_negative_customer_count(self):
        with pytest.raises(NegativeCount):
            run_mph1(0.5, exponential_model(1.0), n_customers=-1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_bad_arrival_rate_refused_before_any_warning(self, rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveInput):
                run_mph1(rate, exponential_model(1.0), n_customers=10)

    @pytest.mark.filterwarnings("ignore::phasefit.errors.UnstableSystemWarning")
    def test_waits_whose_sum_passes_the_float_range_give_finite_statistics(self):
        # rho = 10 at a 1e304 mean service: waits near 1e307, 1800 of them sum past 1e310
        stats = run_mph1(1e-303, exponential_model(1e-304), n_customers=2000, seed=1)
        assert 1e306 < stats.se_wait < stats.mean_wait < stats.mean_system_time < math.inf

    @pytest.mark.filterwarnings("ignore::phasefit.errors.UnstableSystemWarning")
    def test_se_wait_keeps_its_scale_beside_a_huge_last_service(self):
        # at this seed only the last customer draws the rate-1e-300 branch: the last departure
        # is near 1e300 while the waits are near 1, whose batch means squared in units of the
        # last departure would underflow to an se_wait of 0
        service = new_model([Branch(0.999, (1.0,)), Branch(0.001, (1e-300,))])
        stats = run_mph1(0.5, service, n_customers=1000, seed=254)
        assert stats.mean_system_time > 1e296
        assert 0.1 < stats.se_wait < stats.mean_wait < 10.0

    def test_deterministic_given_seed(self):
        service = fit_two_moments(0.5, 0.1).model
        a = run_mph1(0.6, service, n_customers=10_000, seed=5)
        b = run_mph1(0.6, service, n_customers=10_000, seed=5)
        assert a == b


# Seeded QueueStats recorded from the heap-driven event loop. A vectorised
# pass may move them only in the last bits of its running sums. The customer
# counts sit below and at the 2^15-draw block size and straddle it.
_AE3 = 4.387425886722794
QUEUE_MODELS = {
    "exponential": new_model([Branch(1.0, (1.5,))]),
    "almost_erlang3": new_model([Branch(1.0, (_AE3, _AE3, 1.8377223398316203))]),
    "hyper_atom": new_model([Branch(0.11764705882352941, (0.11764705882352941,)),
                             Branch(0.8823529411764706, ())]),
    "sauer_chandy": new_model([Branch(0.1127016653792583, (0.2254033307585166,)),
                               Branch(0.8872983346207417, (1.7745966692414832,))]),
    "mixed_0_2_11": new_model([Branch(0.2, ()), Branch(0.5, (2.0, 3.0)),
                               Branch(0.3, tuple(1.0 + k / 4 for k in range(11)))]),
}
# name -> (service model, arrival rate, seed); "unstable" has rho = 1.3
QUEUE_CONFIGS = {
    "exponential": ("exponential", 1.05, 501),
    "almost_erlang3": ("almost_erlang3", 0.5, 502),
    "hyper_atom": ("hyper_atom", 0.8, 503),
    "sauer_chandy": ("sauer_chandy", 0.9, 504),
    "mixed_0_2_11": ("mixed_0_2_11", 0.3, 505),
    "unstable": ("exponential", 1.95, 506),
}
# (name, n_customers) -> (n_served, mean_wait, mean_system_time, utilization,
#                         se_wait, stable)
QUEUE_GOLDEN = {
    ("almost_erlang3", 1): (1, 0.0, 0.7802100618172018, 0.11368202771212992, 0.0, True),
    ("almost_erlang3", 7): (7, 0.0, 0.725562754266136, 0.22647909751771184, 0.0, True),
    ("almost_erlang3", 32768): (32768, 0.6944167047143133, 1.6927334603050588, 0.5018193942524176, 0.01926159073302563, True),
    ("almost_erlang3", 32769): (32769, 0.6944025218593423, 1.6927237717779264, 0.5018280373128917, 0.01926159073302563, True),
    ("exponential", 1): (1, 0.0, 0.15844795632121106, 0.20485132891974814, 0.0, True),
    ("exponential", 7): (7, 0.008560081610550298, 0.3654368378391523, 0.3353149125611364, 0.008560081610550297, True),
    ("exponential", 32768): (32768, 1.4470480613923384, 2.109924915180748, 0.6936222576374325, 0.07637679187952083, True),
    ("exponential", 32769): (32769, 1.446998997273348, 2.109856623660212, 0.6936229383189584, 0.07637679187952083, True),
    ("hyper_atom", 1): (1, 0.0, 0.0, 0.0, 0.0, True),
    ("hyper_atom", 7): (7, 0.0, 0.05989537267227079, 0.05862951138263052, 0.0, True),
    ("hyper_atom", 32768): (32768, 47.40093055009395, 48.416575836402636, 0.8218183186207909, 8.921781642853738, True),
    ("hyper_atom", 32769): (32769, 47.39998906130313, 48.41559991078659, 0.8218183186207909, 8.921781642853738, True),
    ("mixed_0_2_11", 1): (1, 0.0, 0.0, 0.0, 0.0, True),
    ("mixed_0_2_11", 7): (7, 1.4821522725133798, 2.641863773296738, 0.24510994645623715, 0.7741943253029557, True),
    ("mixed_0_2_11", 32768): (32768, 4.819943875350526, 6.940746425246821, 0.6357056080019341, 0.21752442481448264, True),
    ("mixed_0_2_11", 32769): (32769, 4.819780448643329, 6.940524062577196, 0.6356736920277177, 0.21752442481448264, True),
    ("sauer_chandy", 1): (1, 0.0, 0.7811630542440061, 0.9099912940878655, 0.0, True),
    ("sauer_chandy", 7): (7, 0.08089568471096673, 0.7350661047892986, 0.26597041501341884, 0.08089568471096671, True),
    ("sauer_chandy", 32768): (32768, 21.27741358669374, 22.279891445302855, 0.893325647091457, 2.467473301360069, True),
    ("sauer_chandy", 32769): (32769, 21.27678234379612, 22.279238288341276, 0.8933266879098893, 2.467473301360069, True),
    ("unstable", 1): (1, 0.0, 0.4552427909722309, 0.8369869374186439, 0.0, False),
    ("unstable", 7): (7, 1.7797669992144622, 2.677199904193325, 0.9363805714155605, 0.524987589379349, False),
    ("unstable", 32768): (32768, 2999.684008397804, 3000.350173350595, 0.99998048502993, 313.1509102272656, False),
    ("unstable", 32769): (32769, 2999.7625221661297, 3000.4286873418687, 0.9999804856301805, 313.1509102272656, False),
}


@pytest.mark.parametrize("name,n", sorted(QUEUE_GOLDEN))
@pytest.mark.filterwarnings("ignore::phasefit.errors.UnstableSystemWarning")
def test_run_mph1_golden(name, n):
    model, lam, seed = QUEUE_CONFIGS[name]
    s = run_mph1(lam, QUEUE_MODELS[model], n_customers=n, seed=seed)
    n_served, mean_wait, mean_system_time, utilization, se_wait, stable = QUEUE_GOLDEN[name, n]
    assert (s.n_served, s.stable) == (n_served, stable)
    assert [s.mean_wait, s.mean_system_time, s.utilization, s.se_wait] == pytest.approx(
        [mean_wait, mean_system_time, utilization, se_wait], rel=1e-9)


@pytest.mark.parametrize("name", sorted(QUEUE_CONFIGS))
@pytest.mark.filterwarnings("ignore::phasefit.errors.UnstableSystemWarning")
def test_lindley_waits_match_scalar_fifo(name):
    # a scalar FIFO server on run_mph1's own draws: D_k = max(A_k, D_{k-1}) + S_k
    model, lam, seed = QUEUE_CONFIGS[name]
    n = 10_000
    arr_state, svc_state = split_seeds(seed, 2)
    arrivals = np.cumsum(_draws(exponential_model(lam), arr_state, n))
    services = _draws(QUEUE_MODELS[model], svc_state, n)
    oracle = np.empty(n)
    departure = 0.0
    for k in range(n):
        start = max(arrivals[k], departure)
        oracle[k] = start - arrivals[k]
        departure = start + services[k]
    waits = _fifo_waits(arrivals.copy(), services)
    assert np.max(np.abs(waits - oracle)) <= 1e-9 * departure
    cut = int(WARMUP_FRACTION * n)
    stats = run_mph1(lam, QUEUE_MODELS[model], n_customers=n, seed=seed)
    assert stats.mean_wait == pytest.approx(oracle[cut:].mean(), rel=1e-9)
    assert stats.utilization == pytest.approx(services.sum() / departure, rel=1e-12)
