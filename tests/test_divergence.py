"""Tests for divergence generators, conjugates, and posterior maps.

Expected values were derived by hand from the closed forms and, where
marked, cross-checked against the independent grid oracle before being
frozen here.
"""

import dataclasses

import numpy as np
import pytest

from postmax import divergence
from postmax.divergence import (
    DIVERGENCE_IDS,
    brute_force_conjugate,
    conj_prime,
    conj_second,
    get_divergence,
    optimal_T_from_posterior,
    posterior_from_T,
)

ALL_SPECS = [get_divergence(i) for i in DIVERGENCE_IDS]
KL, GAN, SL = (get_divergence(i) for i in ("kl", "gan", "sl"))

# t ranges whose conj_prime stays within [0.01, 5]: the grid oracle
# resolves the maximizer to ~2e-5 relative, so derivative comparisons
# against it are only meaningful at moderate maximizer magnitudes.
ORACLE_T_RANGES = {
    "kl": (np.log(0.01) + 1.0, np.log(5.0) + 1.0),
    "gan": (np.log(0.0099 / 1.0099), np.log(5.0 / 6.0)),
    "sl": (-1.0 / 1.01, -1.0 / 6.0),
}


def sample_domain_t(spec, rng, n):
    lo, hi = ORACLE_T_RANGES[spec.id]
    return rng.uniform(lo, hi, n)


class TestGenerator:
    def test_value_at_one(self):
        # The implemented generators keep the un-normalized forms whose
        # conjugates match the closed formulas used everywhere else.  Only
        # the first one vanishes at u=1; the others take the constants
        # below, and shifting them away would shift every conjugate value.
        assert KL.f(1.0) == pytest.approx(0.0, abs=1e-12)
        assert GAN.f(1.0) == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)
        assert SL.f(1.0) == pytest.approx(-np.log(2.0), abs=1e-12)

    def test_kl_at_e(self):
        assert KL.f(np.e) == pytest.approx(np.e, rel=1e-15)

    def test_sl_at_half(self):
        # -log(1.5), checked against an independent high-precision evaluation
        assert SL.f(0.5) == pytest.approx(-0.4054651081081644, abs=1e-15)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(7)
        u1 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 1000))
        u2 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 1000))
        mid = 0.5 * (u1 + u2)
        for spec in ALL_SPECS:
            lhs = spec.f(mid)
            rhs = 0.5 * spec.f(u1) + 0.5 * spec.f(u2)
            assert np.all(lhs <= rhs + 1e-9), spec.id


class TestConjugate:
    def test_kl_values(self):
        assert KL.conj(1.0) == pytest.approx(1.0, abs=1e-15)
        assert KL.conj(0.0) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_gan_value_vs_grid_oracle(self):
        # grid maximization of u*t - f(u) at t = log 0.5 gives log 2
        t = np.log(0.5)
        assert GAN.conj(t) == pytest.approx(np.log(2.0), abs=1e-12)
        assert brute_force_conjugate("gan", t) == pytest.approx(np.log(2.0), abs=1e-4)

    def test_grid_oracle_matches_kl_gan(self):
        assert brute_force_conjugate("kl", 1.0) == pytest.approx(1.0, abs=1e-4)
        expected = GAN.conj(-1.0)
        assert brute_force_conjugate("gan", -1.0) == pytest.approx(expected, abs=1e-4)

    def test_sl_grid_oracle_offset_is_constant(self):
        # For this divergence the defining supremum sits exactly one unit
        # below the implemented formula; the gap must not depend on t, so
        # derivative-level comparisons remain valid.
        for t in (-0.8, -0.5, -0.2):
            gap = brute_force_conjugate("sl", t) - SL.conj(t)
            assert gap == pytest.approx(-1.0, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            conj_prime("gan", 0.0)
        with pytest.raises(ValueError):
            conj_prime("gan", 0.5)
        with pytest.raises(ValueError):
            conj_prime("sl", -1.0)
        with pytest.raises(ValueError):
            conj_prime("sl", 0.0)
        with pytest.raises(ValueError):
            conj_prime("sl", -1.5)
        with pytest.raises(ValueError):
            conj_second("gan", 1.0)

    def test_grid_oracle_rejects_small_grid(self):
        with pytest.raises(ValueError):
            brute_force_conjugate("kl", 0.0, n_grid=100)


def uncached_grid_max(spec, t, u_max, n_grid):
    u = np.logspace(-6.0, np.log10(u_max), n_grid)
    return float(np.max(u * t - spec.f(u)))


class TestGridOracleCache:
    def test_alternating_keys_match_uncached_grid(self):
        calls = [
            ("kl", 0.5, 1e3, 10**4),
            ("kl", -1.0, 1e3, 10**4),
            ("gan", -0.5, 1e3, 10**4),
            ("kl", 0.5, 1e3, 10**4),
            ("kl", 0.5, 50.0, 10**4),
            ("kl", 0.5, 50.0, 2 * 10**4),
            ("sl", -0.5, 50.0, 2 * 10**4),
            ("sl", -0.2, 50.0, 2 * 10**4),
        ]
        for div_id, t, u_max, n_grid in calls:
            got = brute_force_conjugate(div_id, t, u_max=u_max, n_grid=n_grid)
            want = uncached_grid_max(get_divergence(div_id), t, u_max, n_grid)
            assert got == want, (div_id, t, u_max, n_grid)

    def test_custom_spec_with_registry_id_gets_its_own_grid(self):
        kl = get_divergence("kl")
        custom = dataclasses.replace(kl, f=lambda u: 2.0 * u * np.log(u))
        assert custom.id == "kl"
        registry_value = brute_force_conjugate("kl", 0.5, n_grid=10**4)
        got = brute_force_conjugate(custom, 0.5, n_grid=10**4)
        assert got == uncached_grid_max(custom, 0.5, 1e3, 10**4)
        assert got != registry_value

    def test_at_most_one_grid_held(self):
        held_while_building = []

        def f(u):
            held_while_building.append(len(divergence._oracle_grid_slot))
            return u * np.log(u)

        custom = dataclasses.replace(get_divergence("kl"), f=f)
        brute_force_conjugate("gan", -0.5, n_grid=10**4)
        brute_force_conjugate(custom, 0.5, n_grid=10**4)
        brute_force_conjugate(custom, 0.7, n_grid=10**4)
        assert held_while_building == [0]
        assert len(divergence._oracle_grid_slot) == 1
        brute_force_conjugate("sl", -0.5, n_grid=10**4)
        assert len(divergence._oracle_grid_slot) == 1


class TestConjugateDerivatives:
    def test_frozen_values(self):
        assert conj_prime("kl", 1.0) == pytest.approx(1.0, abs=1e-15)
        # centered difference of the grid oracle at t=-0.5 confirms 1.0
        assert conj_prime("sl", -0.5) == pytest.approx(1.0, abs=1e-12)
        # (1/3) / (2/3) = 0.5, confirmed by the grid-oracle difference
        assert conj_prime("gan", np.log(1.0 / 3.0)) == pytest.approx(0.5, abs=1e-12)
        assert conj_second("kl", 1.0) == pytest.approx(1.0, abs=1e-15)
        assert conj_second("sl", -0.5) == pytest.approx(4.0, abs=1e-12)
        assert conj_second("gan", np.log(1.0 / 3.0)) == pytest.approx(0.75, abs=1e-12)

    def test_conj_prime_matches_grid_oracle_derivative(self):
        rng = np.random.default_rng(11)
        for spec in ALL_SPECS:
            for t in sample_domain_t(spec, rng, 20):
                h = 1e-5 * abs(t) + 1e-8
                fd = (
                    brute_force_conjugate(spec, t + h)
                    - brute_force_conjugate(spec, t - h)
                ) / (2.0 * h)
                assert abs(conj_prime(spec, t) - fd) <= 1e-4, (spec.id, t)

    def test_conj_second_matches_conj_prime_difference(self):
        rng = np.random.default_rng(13)
        for spec in ALL_SPECS:
            for t in sample_domain_t(spec, rng, 20):
                h = 1e-5 * abs(t) + 1e-8
                fd = (conj_prime(spec, t + h) - conj_prime(spec, t - h)) / (2.0 * h)
                assert abs(conj_second(spec, t) - fd) <= 1e-4, (spec.id, t)

    def test_conj_second_positive_on_interior(self):
        rng = np.random.default_rng(17)
        grids = {
            "kl": rng.uniform(-5.0, 5.0, 200),
            "gan": rng.uniform(-8.0, -1e-3, 200),
            "sl": rng.uniform(-1.0 + 1e-3, -1e-3, 200),
        }
        for spec in ALL_SPECS:
            assert np.all(conj_second(spec, grids[spec.id]) > 0.0), spec.id


class TestPosteriorMaps:
    def test_frozen_values(self):
        assert optimal_T_from_posterior("kl", 1.0) == pytest.approx(1.0, abs=1e-15)
        assert optimal_T_from_posterior("sl", 1.0) == pytest.approx(-0.5, abs=1e-15)
        assert optimal_T_from_posterior("gan", 0.5) == pytest.approx(
            np.log(1.0 / 3.0), abs=1e-12
        )
        assert posterior_from_T("gan", np.log(0.7 / 1.7)) == pytest.approx(0.7, abs=1e-12)
        assert posterior_from_T("kl", 1.0) == pytest.approx(1.0, abs=1e-15)
        assert posterior_from_T("sl", -0.5) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_on_posteriors(self):
        rng = np.random.default_rng(19)
        p = np.exp(rng.uniform(np.log(1e-3), 0.0, 10_000))
        for spec in ALL_SPECS:
            back = posterior_from_T(spec, optimal_T_from_posterior(spec, p))
            np.testing.assert_allclose(back, p, rtol=1e-9)

    def test_inverse_identity_on_wide_range(self):
        rng = np.random.default_rng(23)
        u = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 10_000))
        for spec in ALL_SPECS:
            back = conj_prime(spec, spec.f_prime(u))
            np.testing.assert_allclose(back, u, rtol=1e-9)

    def test_rejects_nonpositive_posterior(self):
        for spec in ALL_SPECS:
            with pytest.raises(ValueError):
                optimal_T_from_posterior(spec, 0.0)
            with pytest.raises(ValueError):
                optimal_T_from_posterior(spec, -0.2)


class TestLookup:
    def test_ids(self):
        assert set(DIVERGENCE_IDS) == {"kl", "gan", "sl"}
        for i in DIVERGENCE_IDS:
            assert get_divergence(i).id == i

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            get_divergence("pearson")

    def test_scalar_in_scalar_out(self):
        out = conj_prime("kl", 0.25)
        assert isinstance(out, float)

    def test_array_in_array_out(self):
        out = conj_prime("kl", np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [np.exp(-1.0), 1.0])
