import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phasefit import (
    Branch,
    ClassicalCoxSpec,
    cox_routing_feasible,
    exact_absorbing_ctmc,
    from_classical_cox,
    laplace,
    model_from_json,
    model_to_json,
    new_model,
    to_phase_type,
)
from phasefit.errors import (
    EmptyModel,
    MalformedModel,
    NonPositiveRate,
    ProbSumInvalid,
    UnsupportedShape,
)


def test_single_exponential_model_is_valid():
    m = new_model([Branch(1.0, (2.0,))])
    assert len(m.branches) == 1
    assert m.branches[0].rates == (2.0,)


def test_two_branch_hyperexponential_is_valid():
    m = new_model([Branch(0.5, (1.0,)), Branch(0.5, (2.0,))])
    assert m.n_transient == 2


def test_probability_deficit_rejected():
    with pytest.raises(ProbSumInvalid):
        new_model([Branch(0.7, (1.0,))])


def test_empty_model_rejected():
    with pytest.raises(EmptyModel):
        new_model([])


def test_nonpositive_rate_rejected():
    with pytest.raises(NonPositiveRate):
        Branch(1.0, (0.0,))
    with pytest.raises(NonPositiveRate):
        Branch(1.0, (-1.0,))
    with pytest.raises(NonPositiveRate):
        Branch(1.0, (math.inf,))


def test_small_drift_renormalized():
    m = new_model([Branch(0.5 + 2e-10, (1.0,)), Branch(0.5, (2.0,))])
    assert abs(sum(b.prob for b in m.branches) - 1.0) <= 1e-12


class TestFromClassicalCox:
    def test_single_stage_no_abandonment(self):
        m = from_classical_cox(ClassicalCoxSpec((0.0,), (3.0,)))
        assert len(m.branches) == 1
        assert m.branches[0].prob == 1.0
        assert m.branches[0].rates == (3.0,)

    def test_two_stage_with_abandonment(self):
        m = from_classical_cox(ClassicalCoxSpec((0.0, 0.5), (1.0, 2.0)))
        # q_0 = 0 dropped; q_1 = 0.5, q_2 = 0.5
        assert [b.prob for b in m.branches] == [0.5, 0.5]
        assert m.branches[0].rates == (1.0,)
        assert m.branches[1].rates == (1.0, 2.0)

    def test_all_zero_abandonment_gives_single_chain(self):
        rates = (1.0, 2.0, 3.0, 4.0)
        m = from_classical_cox(ClassicalCoxSpec((0.0,) * 4, rates))
        assert len(m.branches) == 1
        assert m.branches[0].rates == rates

    def test_initial_abandonment_becomes_atom(self):
        m = from_classical_cox(ClassicalCoxSpec((0.25,), (1.0,)))
        assert m.atom_weight == pytest.approx(0.25, abs=1e-15)

    @given(
        probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        rate=st.floats(0.1, 10.0),
    )
    def test_routing_probabilities_sum_to_one(self, probs, rate):
        spec = ClassicalCoxSpec(tuple(probs), (rate,) * len(probs))
        m = from_classical_cox(spec)
        assert math.fsum(b.prob for b in m.branches) == pytest.approx(1.0, abs=1e-12)


class TestToPhaseType:
    def test_single_exponential(self):
        m = new_model([Branch(1.0, (3.0,))])
        rep = to_phase_type(m)
        assert rep.atom0 == 0.0
        assert rep.alpha.tolist() == [1.0]
        assert exact_absorbing_ctmc(m).generator[:-1, :-1].tolist() == [[-3.0]]

    def test_simplest_hyper_atom(self):
        rep = to_phase_type(new_model([Branch(0.4, (0.4,)), Branch(0.6, ())]))
        assert rep.atom0 == pytest.approx(0.6)
        assert rep.alpha.tolist() == [0.4]

    def test_two_branch_block_bidiagonal(self):
        m = new_model([Branch(0.5, (1.0, 2.0)), Branch(0.5, (3.0,))])
        rep = to_phase_type(m)
        assert rep.n == 3
        assert rep.block_lengths == (2, 1)
        # absorption row sums equal the last-stage rates
        assert rep.exit_rates.tolist() == [0.0, 2.0, 3.0]
        transient = exact_absorbing_ctmc(m).generator[:-1, :-1]
        assert transient[0, 1] == 1.0
        assert transient[1, 0] == 0.0

    @given(
        probs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
        lengths=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    def test_total_probability_preserved(self, probs, lengths):
        k = min(len(probs), len(lengths))
        total = sum(probs[:k])
        branches = [
            Branch(p / total, (1.0,) * L)
            for p, L in zip(probs[:k], lengths[:k])
        ]
        rep = to_phase_type(new_model(branches))
        assert rep.atom0 + rep.alpha.sum() == pytest.approx(1.0, abs=1e-9)


class TestCoxRoutingFeasible:
    def test_counterexample_infeasible(self):
        m = new_model([Branch(0.5, (1.0,)), Branch(0.5, (2.0,))])
        rep = cox_routing_feasible(m)
        assert not rep.feasible
        assert rep.q1 == pytest.approx(1.5)

    def test_single_exponential_feasible(self):
        m = new_model([Branch(1.0, (2.0,)), Branch(0.0, (1.0,))])
        rep = cox_routing_feasible(m)
        assert rep.feasible
        assert rep.q1 == pytest.approx(1.0)

    def test_swapped_rates_feasible(self):
        m = new_model([Branch(0.5, (2.0,)), Branch(0.5, (1.0,))])
        rep = cox_routing_feasible(m)
        assert rep.feasible
        assert rep.q1 == pytest.approx(0.75)

    def test_transform_agreement_at_random_points(self):
        m = new_model([Branch(0.5, (2.0,)), Branch(0.5, (1.0,))])
        rep = cox_routing_feasible(m)
        l1, l2 = 2.0, 1.0
        rng = np.random.default_rng(1)
        for s in rng.uniform(0.05, 5.0, size=10):
            fg = laplace(m, s)
            # classical Cox chain: stage 1 rate l1 then stage 2 rate l2
            fc = rep.q1 * l1 / (s + l1) + rep.q2 * l1 * l2 / ((s + l1) * (s + l2))
            assert abs(fc - fg) <= 1e-12 * abs(fg)

    def test_unsupported_shapes_rejected(self):
        with pytest.raises(UnsupportedShape):
            cox_routing_feasible(new_model([Branch(1.0, (1.0, 2.0))]))
        with pytest.raises(UnsupportedShape):
            cox_routing_feasible(new_model([Branch(1.0, (1.0,))]))


def test_equal_rate_mixture_reduces_to_exponential():
    lam = 3.0
    m = new_model([Branch(0.3, (lam,)), Branch(0.7, (lam,))])
    for s in (0.1, 1.0, 5.0, 2 + 1j):
        assert laplace(m, s) == pytest.approx(lam / (s + lam), rel=1e-14)


def test_json_round_trip():
    m = new_model([Branch(0.4, (0.4,)), Branch(0.6, ())])
    assert model_from_json(model_to_json(m)) == m


@pytest.mark.parametrize("text", ["nope", "", '{"branches": [', None])
def test_model_text_not_json_is_malformed(text):
    with pytest.raises(MalformedModel):
        model_from_json(text)


@pytest.mark.parametrize("text", ['"text"', "[]", '{"branches": [1]}',
                                  '{"branches": [{"prob": "x"}]}', "[" * 100_000,
                                  '{"branches": [{"prob": 1, "rates": "12"}]}',
                                  '{"branches": [{"prob": true, "rates": [1.0]}]}',
                                  '{"branches": [{"prob": 1, "rates": [true]}]}',
                                  '{"branches": [{"prob": 1, "rates": [1%s]}]}' % ("0" * 400)],
                         ids=["string", "list", "number_branch", "text_prob", "deeply_nested",
                              "text_rates", "bool_prob", "bool_rate", "integer_past_float_range"])
def test_model_data_of_another_shape_is_malformed(text):
    with pytest.raises(MalformedModel, match="malformed model data: [A-Za-z]+Error"):
        model_from_json(text)


def test_json_round_trip_is_exact_over_atom_short_and_long_branches():
    m = new_model([Branch(0.1, ()), Branch(0.3, (0.7, 1.0 / 3.0)),
                   Branch(0.6, tuple(1.1 ** k for k in range(11)))])
    back = model_from_json(model_to_json(m))
    assert back == m
    assert [b.length for b in back.branches] == [0, 2, 11]
