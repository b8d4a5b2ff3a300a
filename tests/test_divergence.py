"""Tests for divergence generators, conjugates, and posterior maps.

Expected values were derived by hand from the closed forms and, where
marked, cross-checked against the independent grid oracle before being
frozen here.
"""

import dataclasses
import decimal
import math
import re
import tracemalloc

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
from postmax.model import MlpSpec
from postmax.objective import ObjectiveConfig

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

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=DIVERGENCE_IDS)
    def test_domain_check_rejects_ends_and_non_finite(self, spec):
        lo, hi = spec.conj_domain
        inside = -0.5
        message = (
            rf"value outside the open conjugate domain \({lo}, {hi}\) "
            rf"of divergence '{spec.id}'"
        )
        for bad in (lo, hi, math.nan, math.inf, -math.inf):
            for t in (np.array(bad), np.array([inside, bad]), np.array([[bad, inside]])):
                with pytest.raises(ValueError, match=message):
                    divergence._check_in_domain(spec, t)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=DIVERGENCE_IDS)
    def test_domain_check_accepts_inside_and_empty(self, spec):
        for t in (np.array(-0.5), np.array([-0.5, -0.25]), np.empty(0), np.empty((0, 3))):
            divergence._check_in_domain(spec, t)

    def test_grid_oracle_rejects_small_grid(self):
        with pytest.raises(ValueError):
            brute_force_conjugate("kl", 0.0, n_grid=100)

    @pytest.mark.parametrize("u_max", [1e-9, 1e-6, 0.0, -1.0, math.inf, math.nan])
    def test_grid_oracle_rejects_u_max_off_the_grid(self, u_max):
        # u_max = inf made a grid of NaN and inf, and u_max <= 1e-6 ran
        # the grid downward, below its documented (1e-6, u_max)
        with pytest.raises(ValueError, match="u_max"):
            brute_force_conjugate("kl", 0.5, u_max=u_max, n_grid=10**4)


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

    def test_maximum_in_a_last_partial_chunk(self):
        chunk = divergence._ORACLE_CHUNK
        n_grid = 40 * chunk + chunk // 3
        u = np.logspace(-6.0, np.log10(1e3), n_grid)
        # kl's maximizer u = exp(t - 1) lies near the top of the grid
        t = 1.0 + np.log(u[-chunk // 6])
        assert np.argmax(u * t - KL.f(u)) >= 40 * chunk
        got = brute_force_conjugate("kl", t, n_grid=n_grid)
        assert got == uncached_grid_max(KL, t, 1e3, n_grid)

    def test_nan_on_the_grid_propagates(self):
        chunk = divergence._ORACLE_CHUNK
        n_grid = 64 * chunk + 17
        u = np.logspace(-6.0, np.log10(1e3), n_grid)
        bad = u[chunk + 5]
        custom = dataclasses.replace(
            KL, f=lambda u: np.where(u == bad, np.nan, u * np.log(u))
        )
        assert math.isnan(brute_force_conjugate(custom, 0.5, n_grid=n_grid))

    def test_custom_spec_with_registry_id_gets_its_own_grid(self):
        kl = get_divergence("kl")
        custom = dataclasses.replace(kl, f=lambda u: 2.0 * u * np.log(u))
        assert custom.id == "kl"
        registry_value = brute_force_conjugate("kl", 0.5, n_grid=10**4)
        got = brute_force_conjugate(custom, 0.5, n_grid=10**4)
        assert got == uncached_grid_max(custom, 0.5, 1e3, 10**4)
        assert got != registry_value

    @pytest.mark.parametrize("div_id", DIVERGENCE_IDS)
    def test_blockwise_f_equals_one_call(self, monkeypatch, div_id):
        # bounds built _ORACLE_BUILD points at a time equal those built
        # from one f call on the whole grid
        spec = get_divergence(div_id)
        n_grid = 10**6
        blockwise = divergence._build_oracle_bounds(spec, 1e3, n_grid)
        monkeypatch.setattr(divergence, "_ORACLE_BUILD", 2**20)
        whole = divergence._build_oracle_bounds(spec, 1e3, n_grid)
        assert np.array_equal(blockwise, whole)
        u = np.logspace(-6.0, 3.0, n_grid)
        starts = np.arange(0, n_grid, divergence._ORACLE_CHUNK)
        assert np.array_equal(blockwise[0], np.minimum.reduceat(u, starts))
        assert np.array_equal(blockwise[1], np.maximum.reduceat(u, starts))

    @pytest.mark.parametrize("n_grid", [10**4, 10**6])
    def test_no_value_exceeds_its_block_ceiling(self, n_grid):
        chunk = divergence._ORACLE_CHUNK
        rng = np.random.default_rng(n_grid + 1)
        u = np.logspace(-6.0, np.log10(1e3), n_grid)
        starts = np.arange(0, n_grid, chunk)
        for spec in ALL_SPECS:
            fu = spec.f(u)
            bounds = divergence._build_oracle_bounds(spec, 1e3, n_grid)
            for t in rng.uniform(*SCAN_T_WINDOWS[spec.id], size=20):
                tops = np.maximum.reduceat(u * t - fu, starts)
                ceilings = divergence._oracle_ceilings(bounds, t)
                assert np.all(tops <= ceilings), (spec.id, t)
                # and they are tight: few blocks reach above the maximum
                assert np.count_nonzero(ceilings > tops.max()) <= 8, (spec.id, t)

    def test_f_sees_blocks_and_no_held_grid(self):
        seen = []

        def f(u):
            seen.append(u.shape[0])
            return u * np.log(u)

        block, chunk = divergence._ORACLE_BUILD, divergence._ORACLE_CHUNK
        n_grid = 2 * block + 17
        custom = dataclasses.replace(KL, f=f)
        got = brute_force_conjugate(custom, 0.5, n_grid=n_grid)
        assert got == uncached_grid_max(KL, 0.5, 1e3, n_grid)
        # the bounds are built in blocks, then the scan reads a few chunks
        assert seen[:3] == [block, block, 17]
        assert seen[3:] and sum(seen[3:]) <= 4 * chunk
        # what is held per key is four numbers per chunk, no grid
        held = divergence._oracle_bounds[(custom, 1e3, n_grid)]
        assert held.shape == (4, -(-n_grid // chunk))
        assert all(a.size < n_grid for a in divergence._oracle_bounds.values())

    def test_bounds_held_never_exceed_the_cap(self):
        cap = divergence._ORACLE_KEYS
        divergence._oracle_bounds.clear()
        keys = []
        for i in range(cap + 3):
            u_max = 100.0 + i
            brute_force_conjugate("gan", -0.5, u_max=u_max, n_grid=10**4)
            keys.append((GAN, u_max, 10**4))
            assert len(divergence._oracle_bounds) <= cap
        # the oldest keys went first
        assert list(divergence._oracle_bounds) == keys[-cap:]

    def test_alternating_specs_build_each_key_once(self, monkeypatch):
        built = []
        build = divergence._build_oracle_bounds

        def counted(spec, u_max, n_grid):
            built.append((spec.id, u_max, n_grid))
            return build(spec, u_max, n_grid)

        monkeypatch.setattr(divergence, "_build_oracle_bounds", counted)
        divergence._oracle_bounds.clear()
        for _ in range(3):
            for div_id, t in (("kl", 0.5), ("gan", -0.5), ("sl", -0.5)):
                brute_force_conjugate(div_id, t)
        assert built == [("kl", 1e3, 10**6), ("gan", 1e3, 10**6), ("sl", 1e3, 10**6)]

    @pytest.mark.parametrize("u_max", [50.0, 1e3])
    @pytest.mark.parametrize(
        "n_grid", [10**4, 3 * divergence._ORACLE_BUILD + 101, 10**6]
    )
    def test_oracle_u_is_logspace_bit_for_bit(self, n_grid, u_max):
        want = np.logspace(-6.0, np.log10(u_max), n_grid)
        whole = divergence._oracle_u(u_max, n_grid, np.arange(n_grid))
        assert whole.tobytes() == want.tobytes()
        # in build blocks and in gathered chunks, last partial one included
        for size in (divergence._ORACLE_BUILD, divergence._ORACLE_CHUNK):
            for first in range(0, n_grid, 7 * size):
                index = np.arange(first, min(first + size, n_grid))
                got = divergence._oracle_u(u_max, n_grid, index)
                assert got.tobytes() == want[index].tobytes()
            index = np.arange(n_grid - (n_grid % size or size), n_grid)
            got = divergence._oracle_u(u_max, n_grid, index)
            assert got.tobytes() == want[index].tobytes()
            assert got[-1] == want[-1]
        scattered = np.sort(np.random.default_rng(n_grid).choice(n_grid, 999))
        got = divergence._oracle_u(u_max, n_grid, scattered)
        assert got.tobytes() == want[scattered].tobytes()

    def test_one_call_holds_no_grid(self):
        # a fresh key at 10^6 points: a call allocates its bounds and the
        # chunks it reads, never an 8 MB array of the whole grid
        custom = dataclasses.replace(KL)
        tracemalloc.start()
        try:
            got = brute_force_conjugate(custom, 0.5, u_max=777.0, n_grid=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak
        assert got == uncached_grid_max(KL, 0.5, 777.0, 10**6)

    def test_t_must_be_one_number(self, monkeypatch):
        def no_bounds(*args):
            raise AssertionError("built bounds for a bad t")

        monkeypatch.setattr(divergence, "_build_oracle_bounds", no_bounds)
        for t in ([0.5, 0.6], np.array([0.5]), [[0.5]]):
            with pytest.raises(ValueError, match="t must be a single number"):
                brute_force_conjugate("kl", t, u_max=321.0, n_grid=10**4)


# t windows that put the grid maximizer anywhere from the bottom of the
# grid to its top, wider than ORACLE_T_RANGES
SCAN_T_WINDOWS = {"kl": (-8.0, 8.0), "gan": (-8.0, -1e-3), "sl": (-0.999, -1e-3)}


class TestBoundedScan:
    """brute_force_conjugate skips the blocks its bounds rule out, and must
    still return the full scan's value."""

    @pytest.mark.parametrize(
        "n_grid", [10**4, 32 * divergence._ORACLE_CHUNK + 17, 10**6]
    )
    def test_equals_full_scan(self, n_grid):
        rng = np.random.default_rng(n_grid)
        u = np.logspace(-6.0, np.log10(1e3), n_grid)
        for spec in ALL_SPECS:
            ts = list(rng.uniform(*SCAN_T_WINDOWS[spec.id], size=100))
            if spec.id == "kl":
                ts.append(0.0)
            # uncached_grid_max's values, with f(u) made once
            fu = spec.f(u)
            values = np.empty_like(u)
            for t in ts:
                np.multiply(u, t, out=values)
                want = float(np.subtract(values, fu, out=values).max())
                assert brute_force_conjugate(spec, t, n_grid=n_grid) == want, t

    def test_minus_inf_f_gives_plus_inf(self):
        u = np.logspace(-6.0, np.log10(1e3), 40 * divergence._ORACLE_CHUNK)
        bad = u[divergence._ORACLE_CHUNK + 7]
        custom = dataclasses.replace(
            KL, f=lambda u: np.where(u == bad, -np.inf, u * np.log(u))
        )
        for t in (-2.0, 0.0, 2.0):
            got = brute_force_conjugate(custom, t, n_grid=u.shape[0])
            assert got == np.inf == uncached_grid_max(custom, t, 1e3, u.shape[0])

    def test_plus_inf_f_over_a_block(self):
        chunk = divergence._ORACLE_CHUNK
        u = np.logspace(-6.0, np.log10(1e3), 40 * chunk)
        # kl's maximizer u = exp(t - 1) lies in the second block, where
        # f is +inf, so the maximum comes from a neighbouring block
        t = 1.0 + np.log(u[chunk + chunk // 2])
        lo, hi = u[chunk], u[2 * chunk - 1]
        custom = dataclasses.replace(
            KL, f=lambda u: np.where((u >= lo) & (u <= hi), np.inf, u * np.log(u))
        )
        got = brute_force_conjugate(custom, t, n_grid=u.shape[0])
        assert got == uncached_grid_max(custom, t, 1e3, u.shape[0])
        assert got < brute_force_conjugate("kl", t, n_grid=u.shape[0])
        everywhere = dataclasses.replace(KL, f=lambda u: np.full_like(u, np.inf))
        assert brute_force_conjugate(everywhere, t, n_grid=u.shape[0]) == -np.inf

    def test_nan_in_a_block_its_bound_would_skip(self):
        chunk = divergence._ORACLE_CHUNK
        n_grid = 64 * chunk + 17
        u = np.logspace(-6.0, np.log10(1e3), n_grid)
        bad = u[5]
        custom = dataclasses.replace(
            KL, f=lambda u: np.where(u == bad, np.nan, u * np.log(u))
        )
        # kl's maximizer at t = 0.5 is u = exp(-0.5), past the NaN's block
        assert np.argmax(u * 0.5 - KL.f(u)) >= chunk
        assert math.isnan(brute_force_conjugate(custom, 0.5, n_grid=n_grid))

    def test_nan_from_overflow_beside_an_infinite_value(self):
        # u*t overflows to +inf where f is +inf, so those values are NaN;
        # another block holds a +inf value, and the NaN must still win
        n_grid = 10**4
        u = np.logspace(-6.0, 300.0, n_grid)
        low = u[5]
        custom = dataclasses.replace(
            KL,
            f=lambda u: np.where(
                u == low, -np.inf, np.where(u > 1e299, np.inf, u * np.log(u))
            ),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(uncached_grid_max(custom, 1e10, 1e300, n_grid))
            got = brute_force_conjugate(custom, 1e10, u_max=1e300, n_grid=n_grid)
        assert math.isnan(got)


    def test_overflowing_u_t_gives_plus_inf(self):
        # u*t overflows at the top of the grid, where f stays finite
        with np.errstate(over="ignore"):
            want = uncached_grid_max(KL, 1e10, 1e300, 10**4)
            got = brute_force_conjugate("kl", 1e10, u_max=1e300, n_grid=10**4)
        assert got == want == np.inf


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

    @pytest.mark.parametrize("bad", [["kl"], {"kl"}, b"kl"], ids=repr)
    @pytest.mark.parametrize(
        "entry",
        [
            get_divergence,
            ObjectiveConfig,
            lambda d: MlpSpec((4, 3), head="raw_t", divergence=d),
        ],
        ids=["get_divergence", "ObjectiveConfig", "MlpSpec"],
    )
    def test_non_string_id_names_the_known_ids(self, entry, bad):
        want = f"unknown divergence id {bad!r}; expected one of ('gan', 'kl', 'sl')"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            entry(bad)

    def test_scalar_in_scalar_out(self):
        out = conj_prime("kl", 0.25)
        assert isinstance(out, float)

    def test_array_in_array_out(self):
        out = conj_prime("kl", np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [np.exp(-1.0), 1.0])


def _decimal_v_forms(v: float) -> dict:
    """The raw head's v-forms from the links' definitions, in decimal.

    Worked at 400 digits, so 1 + e^v keeps 50 significant digits of e^v
    even at v = -700; each result is exact to far below double rounding.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        d = decimal.Decimal(v)
        one = decimal.Decimal(1)
        s = (one + d.exp()).ln()  # softplus(v)
        sig = one / (one + (-d).exp())
        t_gan = -(one + (-d).exp()).ln()  # -softplus(-v)
        t_sl = -one / (one + s)
        forms = {
            # (f*)'(t), f*(t) and (f*)'(t) * link'(v), each in t = link(v)
            "kl": ((d - one).exp(), (d - one).exp(), (d - one).exp()),
            "gan": (
                one / ((-t_gan).exp() - one),
                -(one - t_gan.exp()).ln(),
                one / ((-t_gan).exp() - one) * (one - sig),
            ),
            "sl": (
                -one / t_sl - one,
                -((-t_sl).ln() + t_sl),
                (-one / t_sl - one) * sig / (one + s) ** 2,
            ),
        }
        return {k: tuple(float(x) for x in vals) for k, vals in forms.items()}


def _decimal_links(v: float) -> dict:
    """Each divergence's link(v) and link'(v) in decimal, as above."""
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        d = decimal.Decimal(v)
        one = decimal.Decimal(1)
        s = (one + d.exp()).ln()  # softplus(v)
        sig = one / (one + (-d).exp())
        links = {
            "kl": (d, one),
            "gan": (-(one + (-d).exp()).ln(), one / (one + d.exp())),
            "sl": (-one / (one + s), sig / (one + s) ** 2),
        }
        return {k: tuple(float(x) for x in vals) for k, vals in links.items()}


# |v| in {0, 1e-8, 1} straddles x = 0, where the exp(-|x|) forms of
# softplus and sigmoid switch branch
RAW_V = [-700.0, -100.0, -30.0, -1.0, -1e-8, 0.0, 1e-8, 1.0, 30.0, 100.0, 700.0]


class TestRawVForms:
    @pytest.mark.parametrize("v", RAW_V)
    def test_match_decimal_reference(self, v):
        ref = _decimal_v_forms(v)
        x = np.array(v)
        for spec in ALL_SPECS:
            _, score = spec.raw_slopes(x)
            got = [float(spec.raw_posterior(x)), float(spec.raw_conj(x)), float(score)]
            np.testing.assert_allclose(got, ref[spec.id], rtol=1e-14, err_msg=spec.id)
        ref_links = _decimal_links(v)
        for spec in ALL_SPECS:
            link_prime, _ = spec.raw_slopes(x)
            got = [float(spec.link(x)), float(link_prime)]
            np.testing.assert_allclose(
                got, ref_links[spec.id], rtol=1e-14, err_msg=spec.id
            )

    def test_raw_rank_orders_as_posterior_minus_rates(self):
        # where raw_posterior(v) - e is finite, raw_rank has the same row
        # argmax; rows with every v at or below the shift keep its bits
        rng = np.random.default_rng(71)
        v = rng.uniform(-30.0, 30.0, size=(500, 4))
        e = rng.uniform(0.0, 0.2, size=4)
        for spec in ALL_SPECS:
            want = spec.raw_posterior(v) - e
            got = spec.raw_rank(v, e)
            np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))
            low = v - v.max(axis=1, keepdims=True) - 1.0
            np.testing.assert_array_equal(
                spec.raw_rank(low, e), spec.raw_posterior(low) - e
            )

    @pytest.mark.parametrize("scale", [1.0, -1.0])
    def test_raw_rank_finite_at_large_outputs(self, scale):
        e = np.array([0.2, 0.1, 0.0])
        v = scale * np.array([[800.0, 790.0, 0.0], [790.0, 800.0, 700.0]])
        for spec in ALL_SPECS:
            got = spec.raw_rank(v, e)
            assert np.isfinite(got).all(), spec.id
            # at +800 the largest v wins whatever the rates; at -800 the
            # posteriors vanish beside the rates, so the smallest rate wins
            want = [0, 1] if scale > 0 else [2, 2]
            assert list(got.argmax(axis=1)) == want, spec.id
