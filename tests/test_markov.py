import dataclasses
import hashlib
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from phasefit import (
    Branch,
    absorption_time_moments,
    approx_ctmc,
    exact_absorbing_ctmc,
    erlang_approximation,
    exponential_model,
    export_dot,
    export_json,
    fit_two_moments,
    mean,
    moment_k,
    new_model,
    parse_ctmc_json,
    sauer_chandy,
)
from phasefit import markov
from phasefit.errors import DomainError, MalformedModel, MomentOverflow, NonPositiveRate, ReducibleChain
from phasefit.markov import MAX_STATES, CtmcExport
from tests.test_analysis import random_model


class TestExactExport:
    def test_exponential(self):
        c = exact_absorbing_ctmc(exponential_model(2.0))
        assert c.labels == ("B1.S1", "E")
        assert c.generator.tolist() == [[-2.0, 2.0], [0.0, 0.0]]
        assert c.initial.tolist() == [1.0, 0.0]
        assert c.absorbing_index == 1

    def test_erlang2_chain(self):
        c = exact_absorbing_ctmc(new_model([Branch(1.0, (2.0, 2.0))]))
        assert c.n_states == 3
        assert c.generator[0].tolist() == [-2.0, 2.0, 0.0]
        assert c.generator[1].tolist() == [0.0, -2.0, 2.0]

    def test_atom_mass_on_absorbing(self):
        c = exact_absorbing_ctmc(fit_two_moments(1.0, 4.0).model)
        assert c.initial.tolist() == [0.4, 0.6]
        assert c.absorbing_index == 1

    def test_state_count(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            m = random_model(rng, allow_instant=True)
            c = exact_absorbing_ctmc(m)
            assert c.n_states == m.n_transient + 1

    def test_generator_validity_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m = random_model(rng, allow_instant=True)
            c = exact_absorbing_ctmc(m)
            assert np.max(np.abs(c.generator.sum(axis=1))) <= 1e-12
            off = c.generator - np.diag(np.diag(c.generator))
            assert np.min(off) >= 0.0


class TestApproxExport:
    def test_exponential_with_routing_state(self):
        c = approx_ctmc(exponential_model(1.0), 1e4)
        assert c.labels == ("I", "B1.S1", "E")
        assert c.initial.tolist() == [1.0, 0.0, 0.0]
        assert absorption_time_moments(c, 1) == pytest.approx(1e-4 + 1.0, rel=1e-12)

    def test_convergence_to_exact_mean(self):
        m = fit_two_moments(1.0, 0.4).model
        target = mean(m)
        prev_err = np.inf
        for factor in (1e2, 1e3, 1e4):
            big = factor * m.max_rate
            err = abs(absorption_time_moments(approx_ctmc(m, big), 1) - target)
            assert err < prev_err
            prev_err = err
        assert prev_err <= 1e-4

    def test_two_branch_hand_value(self):
        m = new_model([Branch(0.5, (1.0,)), Branch(0.5, (2.0,))])
        big = 1e3 * 2.0
        got = absorption_time_moments(approx_ctmc(m, big), 1)
        assert got == pytest.approx(0.75 + 1 / big, rel=1e-12)
        assert abs(got - 0.75) / 0.75 <= 1e-3

    def test_mean_bias_is_exactly_one_over_big_lambda(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m = random_model(rng, allow_instant=True)
            big = 100.0 * max(m.max_rate, 1.0)
            bias = absorption_time_moments(approx_ctmc(m, big), 1) - mean(m)
            assert bias == pytest.approx(1.0 / big, rel=1e-8)

    def test_state_count(self):
        m = fit_two_moments(1.0, 0.4).model
        assert approx_ctmc(m).n_states == m.n_transient + 2

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(NonPositiveRate):
            approx_ctmc(exponential_model(1.0), 0.0)

    @pytest.mark.parametrize("big", [-1.0, float("nan"), float("inf")])
    def test_nonfinite_or_negative_rate_rejected(self, big):
        with pytest.raises(NonPositiveRate):
            approx_ctmc(exponential_model(1.0), big)

    def test_exact_chain_plus_routing_state(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = random_model(rng, allow_instant=True)
            exact, c = exact_absorbing_ctmc(m), approx_ctmc(m, 1e3)
            assert c.labels == ("I",) + exact.labels
            assert c.absorbing_index == exact.absorbing_index + 1
            assert np.array_equal(c.generator[1:, 1:], exact.generator)
            assert np.array_equal(c.generator[0, 1:], 1e3 * exact.initial)
            assert c.generator[0, 0] == -1e3

    def test_routed_chain_at_the_cap_is_built_in_linear_memory(self):
        # edges, exit rates and labels: about 0.7 MiB, where the dense generator is 128 MiB
        m = new_model([Branch(1.0, (1.0,) * MAX_STATES)])
        tracemalloc.start()
        try:
            c = approx_ctmc(m, 1e9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.n_states == MAX_STATES + 2
        assert peak < 2 * 2**20

    def test_default_routing_builds_where_probabilities_round(self):
        # the routing row sums to big_lambda (sum p - 1): about 1e-12 of
        # 1e4 * max rate, past an absolute 1e-12 on 883 of these models
        rng = np.random.default_rng(11)
        for _ in range(2000):
            approx_ctmc(random_model(rng, allow_instant=True))

    def test_huge_routing_rate_on_sauer_chandy(self):
        m = sauer_chandy(1e-3, 4e-6).model
        c = approx_ctmc(m, 1e8)
        assert absorption_time_moments(c, 1) == pytest.approx(1e-3 + 1e-8, rel=1e-9)


class TestAbsorptionMoments:
    def test_exponential_mean(self):
        c = exact_absorbing_ctmc(exponential_model(4.0))
        assert absorption_time_moments(c, 1) == pytest.approx(0.25)

    def test_matches_analysis_up_to_k4(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = random_model(rng, allow_instant=True)
            c = exact_absorbing_ctmc(m)
            for k in (1, 2, 3, 4):
                expected = moment_k(m, k)
                assert absorption_time_moments(c, k) == pytest.approx(
                    expected, rel=1e-10, abs=1e-14
                )

    def test_fitted_model_reproduces_targets(self):
        fit = fit_two_moments(1.0, 4.0)
        c = exact_absorbing_ctmc(fit.model)
        assert absorption_time_moments(c, 1) == pytest.approx(1.0, rel=1e-10)
        assert absorption_time_moments(c, 2) == pytest.approx(5.0, rel=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate, k", [(1e-200, 2), (1e-10, 171)])
    def test_moment_past_float_range_raises(self, rate, k):
        m = new_model([Branch(1.0, (rate,))])
        with pytest.raises(MomentOverflow):
            absorption_time_moments(exact_absorbing_ctmc(m), k)
        with pytest.raises(MomentOverflow):
            moment_k(m, k)

    @pytest.mark.filterwarnings("error")
    def test_moment_order_past_170(self):
        # 171! passes the float range; 171!/2^171 = 4.1e257 does not
        c = exact_absorbing_ctmc(exponential_model(2.0))
        want = math.factorial(171) / 2**171
        assert absorption_time_moments(c, 171) == pytest.approx(want, rel=1e-13)
        with pytest.raises(MomentOverflow):
            absorption_time_moments(c, 1100)  # 2^-1100 underflows on the way

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate, k", [(1000.0, 105), (1000.0, 150), (100.0, 171)])
    def test_moments_of_fast_stages_keep_their_digits(self, rate, k):
        # in seconds h_k = rate^-k is subnormal or 0; in the unit of the mean it is not
        m = exponential_model(rate)
        want = Fraction(math.factorial(k)) / Fraction(rate) ** k
        for got in (moment_k(m, k), absorption_time_moments(exact_absorbing_ctmc(m), k)):
            assert abs(Fraction(got) - want) <= 1e-13 * want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [171, 200])
    def test_moments_of_long_chains_past_order_170(self, k):
        # Erlang-200 of mean 2: in seconds the last state's E[T^k] / k! = 100^-k
        # underflows; in the time unit picked for the order it does not
        n, rate = 200, 100.0
        m = new_model([Branch(1.0, (rate,) * n)])
        want = Fraction(math.prod(range(n, n + k))) / Fraction(rate) ** k
        for got in (moment_k(m, k), absorption_time_moments(exact_absorbing_ctmc(m), k)):
            assert abs(Fraction(got) - want) <= 1e-13 * want

    @pytest.mark.filterwarnings("error")
    def test_moment_under_the_float_range_raises(self):
        m = exponential_model(1e200)  # E[T^2] = 2e-400
        with pytest.raises(MomentOverflow):
            moment_k(m, 2)
        with pytest.raises(MomentOverflow):
            absorption_time_moments(exact_absorbing_ctmc(m), 2)

    def test_chain_past_the_state_cap_is_refused(self, monkeypatch):
        # the chains are built; only their dense surfaces are refused, before any n^2 array
        m = erlang_approximation(1.0, MAX_STATES + 1).model
        exact, routed = exact_absorbing_ctmc(m), approx_ctmc(m)
        monkeypatch.setattr(markov.np, "zeros", None)
        for c in (exact, routed):
            with pytest.raises(DomainError):
                c.generator
            with pytest.raises(DomainError):
                export_json(c)

    @pytest.mark.parametrize("n", [4096, 100_000])
    def test_long_fits_match_moment_k(self, n):
        # one back-substitution per order, with no dense block and no state cap
        m = fit_two_moments(1.0, 1.0 / (n - 0.5)).model
        assert m.n_transient == n
        c = exact_absorbing_ctmc(m)
        for k in (1, 2, 3, 4):
            assert absorption_time_moments(c, k) == pytest.approx(moment_k(m, k), rel=1e-12, abs=0.0)

    @staticmethod
    def _routed_moment(m, big, k):
        # the routed chain's time is T plus an independent Exp(big) sojourn in I
        return sum(math.comb(k, j) * math.factorial(j) / big**j * (moment_k(m, k - j) if j < k else 1.0)
                   for j in range(k + 1))

    def test_routed_chains_match_moment_k(self):
        rng = np.random.default_rng(24)
        models = [random_model(rng, allow_instant=True) for _ in range(20)]
        models.append(fit_two_moments(1.0, 1.0 / 4095.5).model)
        for m in models:
            big = 1e3 * max(m.max_rate, 1.0)
            c = approx_ctmc(m, big)
            for k in (1, 2, 3, 4):
                assert absorption_time_moments(c, k) == pytest.approx(
                    self._routed_moment(m, big, k), rel=1e-12, abs=0.0)

    def test_fourth_moment_at_the_cap_is_fast(self):
        m = fit_two_moments(1.0, 1.0 / 4095.5).model
        start = time.perf_counter()
        absorption_time_moments(exact_absorbing_ctmc(m), 4)
        assert time.perf_counter() - start < 0.1

    def test_parsed_chain_with_a_cycle_keeps_its_dense_solve(self):
        # A and B feed each other and C feeds A, so the dense solve runs; its values, pinned
        gen = [[-3.0, 2.0, 0.7, 0.3], [1.0, -2.5, 0.5, 1.0], [0.2, 1.5, -2.0, 0.3], [0.0] * 4]
        c = parse_ctmc_json(json.dumps({"labels": ["A", "B", "C", "E"], "generator": gen,
                                        "initial": [0.6, 0.4, 0.0, 0.0], "absorbing": 3}))
        want = [1.5795804195804193, 4.961468629272824, 23.393630353528316, 147.1435010782775,
                6.022029590536762e+55]
        for k, w in zip((1, 2, 3, 4, 40), want):
            assert absorption_time_moments(c, k) == pytest.approx(w, rel=1e-12, abs=0.0)
        assert c._plan is None

    def test_acyclic_chain_in_any_state_order_is_back_substituted(self):
        # Kahn's algorithm orders a permuted chain; its moments are those of the chain in order
        m = new_model([Branch(0.25, ()), Branch(0.35, (1.0, 2.0, 3.0)), Branch(0.4, (0.5,) * 7)])
        c = approx_ctmc(m, 1e3)
        perm = np.random.default_rng(25).permutation(c.n_states)
        shuffled = CtmcExport.from_generator(tuple(c.labels[i] for i in perm),
                                             c.generator[np.ix_(perm, perm)], c.initial[perm],
                                             int(np.flatnonzero(perm == c.absorbing_index)[0]))
        assert shuffled._plan is not None
        for k in (1, 2, 3, 4):
            assert absorption_time_moments(shuffled, k) == pytest.approx(
                absorption_time_moments(c, k), rel=1e-12, abs=0.0)

    def test_reducible_chain_detected(self):
        # two transient states cycling between each other, E unreachable
        gen = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        c = CtmcExport.from_generator(("A", "B", "E"), gen, np.array([1.0, 0.0, 0.0]), 2)
        with pytest.raises(ReducibleChain):
            absorption_time_moments(c, 1)

    def test_reducible_chain_raises_on_every_call(self):
        # C feeds the cycle of A and B but reaches E itself: only A and B are named
        gen = np.array([[-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0],
                        [1.0, 0.0, -2.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        c = CtmcExport.from_generator(("A", "B", "C", "E"), gen, np.array([0.0, 0.0, 1.0, 0.0]), 3)
        for k in (1, 2, 1, 3):
            with pytest.raises(ReducibleChain, match=r"\['A', 'B'\]"):
                absorption_time_moments(c, k)

    def test_cached_verdict_is_not_a_field(self):
        assert "must not be changed in place" in CtmcExport.__doc__
        c = exact_absorbing_ctmc(erlang_approximation(1.0, 3).model)
        first = absorption_time_moments(c, 2)
        assert vars(c)["_absorbable"] is True  # the verdict alone is kept
        copy = dataclasses.replace(c)
        assert "_absorbable" not in vars(copy) and "_absorbable" not in repr(c)
        assert copy == c and absorption_time_moments(copy, 2) == first
        # a replaced generator gets its own verdict, not the one c keeps
        gen = c.generator.copy()
        gen[2] = [0.0, 1.0, -4.0, 3.0]  # S3 also feeds back into S2
        assert absorption_time_moments(dataclasses.replace(c, generator=gen), 1) > 1.0
        gen = gen.copy()
        gen[2] = [0.0, 3.0, -3.0, 0.0]  # S2 and S3 only cycle: E is unreachable
        with pytest.raises(ReducibleChain):
            absorption_time_moments(dataclasses.replace(c, generator=gen), 1)


class TestSerialization:
    def test_json_round_trip(self):
        c = exact_absorbing_ctmc(fit_two_moments(1.0, 0.4).model)
        c2 = parse_ctmc_json(export_json(c))
        assert c2.labels == c.labels
        assert c2.generator.tolist() == c.generator.tolist()
        assert c2.initial.tolist() == c.initial.tolist()
        assert c2.absorbing_index == c.absorbing_index

    @pytest.mark.parametrize("model, digest", [
        (new_model([Branch(1.0, ())]),
         "6a951de59cc359ac59bd864eb5eb36bd079bd5891c17ec873555870e48971e61"),
        (new_model([Branch(0.25, ()), Branch(0.35, tuple(1.0 + i / 7 for i in range(120))),
                    Branch(0.4, tuple(3.0 / (i + 1) for i in range(79)))]),
         "480295fc30c34de3336651720eb5b39270f98d2c5ccd6d78661092158ebfb445"),
        (new_model([Branch(1.0, tuple(float(i % 7 + 1) for i in range(4095)))]),
         "4647c9cbb9dc341c7ce5c0769758a1d55409cc395950c158047bf7b585047864"),
    ], ids=["1_state", "200_states", "4096_states"])
    def test_json_bytes_are_json_dumps_of_the_whole_chain(self, model, digest):
        # digests of json.dumps({"labels", "generator": tolist(), "initial", "absorbing"})
        c = exact_absorbing_ctmc(model)
        text = export_json(c)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        if c.n_states <= 200:  # parsing 4096 rows of 4096 rates takes about 2 s
            assert export_json(parse_ctmc_json(text)) == text

    def test_parse_reads_the_generator_a_row_at_a_time(self):
        # json.loads of the whole text held a Python float per rate: 8 times the text's bytes
        m = new_model([Branch(1.0, tuple(float(i % 7 + 1) for i in range(600)))])
        text = export_json(exact_absorbing_ctmc(m))
        tracemalloc.start()
        try:
            c = parse_ctmc_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.n_states == 601 and len(c.edges) == 600
        assert peak < len(text) / 2

    def test_chain_past_the_state_cap_exports_as_dot(self):
        m = new_model([Branch(1.0, (2.0,) * (MAX_STATES + 1))])
        dot = export_dot(exact_absorbing_ctmc(m))
        assert dot.count("->") == MAX_STATES + 1

    @staticmethod
    def _dumps(c):
        return json.dumps({"labels": list(c.labels), "generator": c.generator.tolist(),
                           "initial": c.initial.tolist(), "absorbing": c.absorbing_index})

    def test_json_keeps_negative_zero(self):
        # -0.0 is a nonnegative rate and a zero row's entry; json.dumps writes it as -0.0
        gen = np.array([[-2.0, -0.0, 2.0, 0.0], [0.0, -1.5, -0.0, 1.5],
                        [-0.0, 0.0, -1e-300, 1e-300], [0.0, -0.0, 0.0, -0.0]])
        c = CtmcExport.from_generator(("A", "B", "C", "E"), gen, np.array([0.5, 0.5, -0.0, 0.0]), 3)
        text = export_json(c)
        assert text == self._dumps(c) and text.count("-0.0") == 6  # one in initial
        assert export_json(parse_ctmc_json(text)) == text

    def test_json_of_a_dense_parsed_chain(self):
        # every off-diagonal rate positive, of every size and written form
        rng = np.random.default_rng(5)
        n = 12
        gen = rng.choice([5e-324, 1e-300, 0.1, 1.0, 3.0, 1e16, 1e300 / n], size=(n + 1, n + 1))
        gen[n] = 0.0
        np.fill_diagonal(gen, 0.0)
        np.fill_diagonal(gen, -gen.sum(axis=1))  # the absorbing row's is -0.0
        text = json.dumps({"labels": [f"s{i}" for i in range(n)] + ["E"], "generator": gen.tolist(),
                           "initial": [1.0] + [0] * n, "absorbing": n})
        c = parse_ctmc_json(text)
        assert export_json(c) == self._dumps(c)
        assert export_json(parse_ctmc_json(export_json(c))) == export_json(c)

    @pytest.mark.parametrize("model", [
        fit_two_moments(1.0, 16.0).model,
        new_model([Branch(0.25, ()), Branch(0.35, (1.0, 2.0, 3.0)), Branch(0.4, (0.5,) * 7)]),
    ], ids=["hyper_atom", "three_branches"])
    def test_json_of_the_routed_chain(self, model):
        c = approx_ctmc(model)
        assert export_json(c) == self._dumps(c)

    def test_dot_exponential(self):
        dot = export_dot(exact_absorbing_ctmc(exponential_model(1.0)))
        assert dot.startswith("digraph")
        assert "doublecircle" in dot
        assert dot.count("->") == 1

    def test_dot_erlang3_chain(self):
        m = new_model([Branch(1.0, (3.0, 3.0, 3.0))])
        dot = export_dot(exact_absorbing_ctmc(m))
        assert dot.count("->") == 3
        assert "B1.S3" in dot

    @pytest.mark.parametrize("model", [
        new_model([Branch(1.0, (2.0,) * 199)]),
        fit_two_moments(1.0, 16.0).model,
    ], ids=["erlang199", "hyper_atom"])
    @pytest.mark.parametrize("export", [exact_absorbing_ctmc, approx_ctmc])
    def test_dot_edges_are_every_positive_off_diagonal_rate_row_by_row(self, model, export):
        ctmc = export(model)
        gen = ctmc.generator
        edges = [f'  s{i} -> s{j} [label="{float(gen[i, j])!r}"];'
                 for i in range(ctmc.n_states) for j in range(ctmc.n_states)
                 if i != j and gen[i, j] > 0.0]
        lines = export_dot(ctmc).split("\n")
        assert lines[3 + ctmc.n_states:] == edges + ["}"]


@pytest.mark.parametrize("text", ['{}', '[1]', 'nope', '{"labels": ["A"]}',
                                  '{"labels": ["A", "E"], "generator": [[-1, 1], [0, 0]], '
                                  '"initial": [1, 0], "absorbing": "last"}',
                                  '{"labels": ["A"], "generator": [[0], [1, 2]], '
                                  '"initial": [1], "absorbing": 0}', "[" * 100_000],
                         ids=["empty_object", "list", "not_json", "missing_fields",
                              "absorbing_not_int", "ragged_generator", "deeply_nested"])
def test_unreadable_ctmc_json_is_malformed(text):
    with pytest.raises(MalformedModel):
        parse_ctmc_json(text)


_E2 = [[-2.0, 2.0, 0.0], [0.0, -2.0, 2.0], [0.0, 0.0, 0.0]]


@pytest.mark.parametrize("labels,gen,init,absorbing", [
    (("A", "E"), _E2, [1.0, 0.0, 0.0], 2),
    (("A", "B", "E"), [[-2.0, 1.0, 0.0]] + _E2[1:], [1.0, 0.0, 0.0], 2),
    (("A", "B", "E"), [[1.0, -1.0, 0.0]] + _E2[1:], [1.0, 0.0, 0.0], 2),
    (("A", "B", "E"), _E2, [1.0, 0.0, 0.0], 1),
    (("A", "B", "E"), _E2, [0.5, 0.0, 0.0], 2),
    (("A", "B", "E"), [[float("nan"), 2.0, 0.0]] + _E2[1:], [1.0, 0.0, 0.0], 2),
    (("A", "B", "E"), [[-float("inf"), 2.0, 0.0]] + _E2[1:], [1.0, 0.0, 0.0], 2),
    (("A", "B", "E"), _E2, [-1.0, 2.0, 0.0], 2),
], ids=["shape", "row_sum", "sign", "absorbing_row", "initial_sum", "nan_rate",
        "infinite_rate", "negative_initial"])
def test_invalid_ctmc_is_malformed(labels, gen, init, absorbing):
    with pytest.raises(MalformedModel):
        CtmcExport.from_generator(labels, np.array(gen), np.array(init), absorbing)
    text = json.dumps({"labels": list(labels), "generator": gen, "initial": init,
                       "absorbing": absorbing})
    with pytest.raises(MalformedModel):
        parse_ctmc_json(text)
