import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupon_delay.limit_laws import FixedM, FixedN, StandardGumbel, target_cdf
from coupon_delay.moments import ProblemSize, exact_dist_small, mean_delay
from coupon_delay import simulate, special
from coupon_delay.simulate import (
    MODE_COUPLED,
    MODE_DISCRETE,
    MODE_POISSONIZED,
    SampleBatch,
    SimConfig,
    empirical_moments,
    ks_distance,
    ks_statistic,
    sample_coupled,
    sample_discrete,
    sample_poissonized,
    write_samples_csv,
)
from coupon_delay.special import delta_from_exponential


_SAMPLERS = {
    MODE_DISCRETE: sample_discrete,
    MODE_POISSONIZED: sample_poissonized,
    MODE_COUPLED: sample_coupled,
}


def _config(m, n, reps, seed, mode):
    return SimConfig(ps=ProblemSize(m, n), reps=reps, seed=seed, mode=mode)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _config(1, 1, 0, 0, MODE_DISCRETE)
        with pytest.raises(ValueError):
            _config(1, 1, 5, -1, MODE_DISCRETE)
        with pytest.raises(ValueError):
            _config(1, 1, 5, 0, "bogus")
        # truncating a float seed would silently reuse another seed's draws
        for reps, seed in [(5, 3.7), (5, True), (2.5, 0), (True, 0), (5, "7")]:
            with pytest.raises(ValueError):
                _config(1, 1, reps, seed, MODE_DISCRETE)
        cfg = _config(1, 1, np.int64(5), np.uint64(2**64 - 1), MODE_DISCRETE)
        assert cfg.reps == 5

    def test_mode_mismatch_is_rejected(self):
        cfg = _config(1, 2, 5, 0, MODE_DISCRETE)
        with pytest.raises(ValueError):
            sample_poissonized(cfg)
        with pytest.raises(ValueError):
            sample_coupled(cfg)


class TestDiscreteSampler:
    def test_degenerate_single_coupon(self):
        batch = sample_discrete(_config(1, 1, 20, 3, MODE_DISCRETE))
        assert (batch.d_values == 1).all()

    def test_single_user_is_deterministic(self):
        batch = sample_discrete(_config(5, 1, 10, 123, MODE_DISCRETE))
        assert (batch.d_values == 5).all()

    def test_two_coupon_mean(self):
        reps = 20000
        batch = sample_discrete(_config(1, 2, reps, 42, MODE_DISCRETE))
        d = batch.d_values.astype(float)
        se = d.std(ddof=1) / math.sqrt(reps)
        assert abs(d.mean() - 3.0) <= 3 * se

    def test_lower_bound_holds_surely(self):
        for m, n in [(2, 3), (3, 7), (4, 2)]:
            batch = sample_discrete(_config(m, n, 500, 7, MODE_DISCRETE))
            assert batch.d_values.min() >= m * n

    def test_block_extension_path(self):
        # smallest instance with a random overshoot: D - m n is 0 or 1 in
        # 5/8 of replications; the mean must match the exact value 11/2
        reps = 30000
        batch = sample_discrete(_config(2, 2, reps, 11, MODE_DISCRETE))
        d = batch.d_values.astype(float)
        se = d.std(ddof=1) / math.sqrt(reps)
        assert abs(d.mean() - 5.5) <= 3 * se

    @pytest.mark.parametrize("mode", [MODE_DISCRETE, MODE_COUPLED])
    def test_unallocatable_n_is_a_domain_error(self, mode):
        # no address space holds 1e18 doubles, so nothing is allocated
        with pytest.raises(ValueError, match=f"n = {10**18} .*poissonized"):
            _SAMPLERS[mode](_config(1, 10**18, 1, 0, mode))


class TestPoissonizedSampler:
    def test_exponential_mean(self):
        reps = 20000
        batch = sample_poissonized(_config(1, 1, reps, 5, MODE_POISSONIZED))
        x = batch.delta_values
        se = x.std(ddof=1) / math.sqrt(reps)
        assert abs(x.mean() - 1.0) <= 3 * se

    def test_erlang_moments(self):
        reps = 30000
        batch = sample_poissonized(_config(2, 1, reps, 6, MODE_POISSONIZED))
        x = batch.delta_values
        se = x.std(ddof=1) / math.sqrt(reps)
        assert abs(x.mean() - 2.0) <= 3 * se
        assert abs(x.var(ddof=1) - 2.0) <= 0.1

    def test_mean_matches_quadrature(self):
        reps = 20000
        batch = sample_poissonized(_config(1, 2, reps, 9, MODE_POISSONIZED))
        x = batch.delta_values
        se = x.std(ddof=1) / math.sqrt(reps)
        assert abs(x.mean() - mean_delay(ProblemSize(1, 2)).value) <= 3 * se

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(m=st.integers(min_value=1, max_value=50), n=st.integers(min_value=1, max_value=200))
    def test_mean_agrees_with_quadrature(self, m, n):
        reps = 4000
        batch = sample_poissonized(_config(m, n, reps, 1000 * m + n, MODE_POISSONIZED))
        x = batch.delta_values
        se = x.std(ddof=1) / math.sqrt(reps)
        assert abs(x.mean() - mean_delay(ProblemSize(m, n)).value) <= 5 * se


def _stream(seed, block, kind=0):
    """Stream (block, kind) built by NumPy itself: the oracle for the
    sampler's streams."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(block, kind))
    return np.random.Generator(np.random.Philox(seq))


def _block_exponentials(seed, reps):
    """The standard exponentials of a poissonized batch: block b's stream
    draws 256, and replication i takes draw i mod 256 of block i // 256."""
    blocks = range(-(-reps // 256))
    return np.concatenate([_stream(seed, b).standard_exponential(256) for b in blocks])[:reps]


def _block_pairs(seed, m, n, reps):
    """The (D, Delta) of a D-mode batch, one replication at a time: each
    replication of block b draws its n gammas from stream (b, 0), then its
    overshoot from stream (b, 1)."""
    d, delta = [], []
    for b in range(-(-reps // 256)):
        gammas, overshoots = _stream(seed, b, 0), _stream(seed, b, 1)
        for _ in range(min(256, reps - 256 * b)):
            g = gammas.standard_gamma(m, size=n)
            d.append(m * n + overshoots.poisson((g.max() - g).sum()))
            delta.append(n * g.max())
    return np.array(d), np.array(delta)


class TestStreams:
    @pytest.mark.parametrize("reps", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_d_modes_equal_numpy_streams(self, reps, seed):
        want_d, want_delta = _block_pairs(seed, 3, 10, reps)
        discrete = sample_discrete(_config(3, 10, reps, seed, MODE_DISCRETE))
        coupled = sample_coupled(_config(3, 10, reps, seed, MODE_COUPLED))
        assert discrete.d_values.dtype == coupled.d_values.dtype == np.int64
        assert discrete.d_values.shape == coupled.delta_values.shape == (reps,)
        assert np.array_equal(discrete.d_values, want_d)
        assert np.array_equal(coupled.d_values, want_d)
        assert np.array_equal(coupled.delta_values, want_delta)

    @pytest.mark.parametrize("mode", [MODE_DISCRETE, MODE_COUPLED])
    def test_d_replication_does_not_depend_on_the_batch(self, mode):
        full = _SAMPLERS[mode](_config(3, 6, 300, 47, mode))
        head = _SAMPLERS[mode](_config(3, 6, 7, 47, mode))
        longer = _SAMPLERS[mode](_config(3, 6, 600, 47, mode))
        for short, long in [(head, full), (full, longer)]:
            k = short.config.reps
            assert np.array_equal(long.d_values[:k], short.d_values)
            if mode == MODE_COUPLED:
                assert np.array_equal(long.delta_values[:k], short.delta_values)

    @pytest.mark.parametrize("m,n,rows", [(2, 8, 256), (3, 10, 256), (2, 10**4, 30)])
    def test_block_draws_vectorize(self, m, n, rows):
        # one (rows, n) gamma draw and one Poisson draw at an array of means
        # take the same values as the sampler's per-replication calls, so a
        # block may be drawn at once without changing any sample
        wide = _stream(5, 0).standard_gamma(m, size=(rows, n))
        gammas = _stream(5, 0)
        assert np.array_equal(wide, [gammas.standard_gamma(m, size=n) for _ in range(rows)])
        lam = (wide.max(axis=1, keepdims=True) - wide).sum(axis=1)
        overshoots = _stream(5, 0, 1)
        want = [overshoots.poisson(x) for x in lam]
        assert np.array_equal(_stream(5, 0, 1).poisson(lam), want)


class TestDeltaInversion:
    @pytest.mark.parametrize("n", [1, 3, 1000, 10**12])
    def test_single_coverage_closed_form(self, n):
        # m = 1: sf(x) = e^-x, so Delta = -n ln(1 - e^(-E/n)), where
        # 1 - e^(-E/n) is formed without cancellation on both sides of 1/2
        batch = sample_poissonized(_config(1, n, 300, 41, MODE_POISSONIZED))
        a = _block_exponentials(41, 300) / n
        with np.errstate(divide="ignore"):
            low, high = np.log(-np.expm1(-a)), np.log1p(-np.exp(-a))
        want = -n * np.where(a > math.log(2.0), high, low)
        np.testing.assert_allclose(batch.delta_values, want, rtol=1e-14)

    @pytest.mark.parametrize(
        "m,n", [(3, 4), (2, 10**5), (20, 22026), (10**4, 3), (10**6, 10)]
    )
    def test_inverts_the_law_of_delta(self, m, n):
        # F_m(Delta/n)^n = e^-E, with scipy's incomplete gamma as the oracle;
        # E up to 8 covers all but 3.4e-4 of the law
        gammaincc = pytest.importorskip("scipy.special").gammaincc
        e = np.geomspace(1e-6, 8.0, 300)
        delta = delta_from_exponential(m, n, e)
        log_cdf_n = n * np.log1p(-gammaincc(m, delta / n))
        np.testing.assert_allclose(np.exp(log_cdf_n), np.exp(-e), rtol=1e-12)

    def test_law_against_the_exact_cdf(self):
        gammaincc = pytest.importorskip("scipy.special").gammaincc
        m, n, reps = 3, 4, 5000
        batch = sample_poissonized(_config(m, n, reps, 43, MODE_POISSONIZED))
        delta = np.sort(batch.delta_values)
        cdf = np.exp(n * np.log1p(-gammaincc(m, delta / n)))
        assert ks_statistic(delta, cdf) <= 1.63 / math.sqrt(reps)

    def test_zero_exponential_stays_finite(self):
        # E = 0 puts Delta at infinity; the level is floored instead
        delta = delta_from_exponential(3, 10, np.array([0.0, 5e-324, 1e-300]))
        assert np.isfinite(delta).all()
        assert delta[0] == delta[1] >= delta[2] > 0.0
        empty = delta_from_exponential(3, 10, np.empty(0))
        assert empty.shape == (0,) and empty.dtype == np.float64

    def test_replication_does_not_depend_on_the_batch(self):
        full = sample_poissonized(_config(20, 22026, 300, 47, MODE_POISSONIZED))
        head = sample_poissonized(_config(20, 22026, 7, 47, MODE_POISSONIZED))
        assert np.array_equal(full.delta_values[:7], head.delta_values)
        longer = sample_poissonized(_config(20, 22026, 600, 47, MODE_POISSONIZED))
        assert np.array_equal(longer.delta_values[:300], full.delta_values)

    @pytest.mark.parametrize("reps", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_blocks_equal_numpy_streams(self, reps, seed):
        batch = sample_poissonized(_config(3, 100, reps, seed, MODE_POISSONIZED))
        want = delta_from_exponential(3, 100, _block_exponentials(seed, reps))
        assert batch.delta_values.shape == (reps,)
        assert np.array_equal(batch.delta_values, want)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 16, 20, 41, 200, 1000, 10**4, 3 * 10**4, 10**6])
    @pytest.mark.parametrize("n", [1, 3, 1000, 10**5, 10**12])
    def test_wide_batch_equals_its_slices(self, m, n):
        # one 4096-level inverse call gives the bits of sixteen 256-level
        # ones: 0 and 5e-324 are floored to the same level, and every E
        # with E/n below 2.2e-308 saturates there too
        tiny = [0.0, 5e-324, 1e-320, 1e-310 * n, 2e-308 * n, 3e-308 * n]
        e = np.random.default_rng(m + n).standard_exponential(4096)
        e[: len(tiny)] = tiny
        e[len(tiny) : 100] = np.geomspace(1e-300, 60.0, 100 - len(tiny))
        slices = [delta_from_exponential(m, n, e[i : i + 256]) for i in range(0, 4096, 256)]
        want = np.concatenate(slices)
        got = delta_from_exponential(m, n, e)
        assert np.array_equal(got, want)
        assert got[0] == got[1] == got[2] == got[3] >= got[4]

    @pytest.mark.parametrize("reps", [1, 1000, 4096, 4097, 10000])
    def test_one_inverse_call_per_4096_replications(self, monkeypatch, reps):
        calls = []
        inverse = special.erlang_log_sf_inverse

        def counted(m, level):
            calls.append(np.size(level))
            return inverse(m, level)

        monkeypatch.setattr(special, "erlang_log_sf_inverse", counted)
        monkeypatch.setenv("COUPON_DELAY_THREADS", "1")
        batch = sample_poissonized(_config(3, 100, reps, 71, MODE_POISSONIZED))
        assert len(calls) == -(-reps // 4096) and sum(calls) == reps
        want = delta_from_exponential(3, 100, _block_exponentials(71, reps))
        assert np.array_equal(batch.delta_values, want)

    def test_memory_per_replication_is_bounded(self):
        # one float64 result per replication, plus one block's temporaries
        reps = 200_000
        sample_poissonized(_config(3, 100, 300, 59, MODE_POISSONIZED))  # warm caches
        tracemalloc.start()
        try:
            sample_poissonized(_config(3, 100, reps, 59, MODE_POISSONIZED))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / reps < 24.0, f"{peak / reps:.1f} B per replication"

    def test_huge_n_is_constant_time(self):
        # n gammas per replication would take 8 TB here
        reps = 400
        t0 = time.perf_counter()
        batch = sample_poissonized(_config(2, 10**12, reps, 53, MODE_POISSONIZED))
        assert time.perf_counter() - t0 < 1.0
        x = batch.delta_values
        se = x.std(ddof=1) / math.sqrt(reps)
        assert abs(x.mean() - mean_delay(ProblemSize(2, 10**12)).value) <= 5 * se


class TestCoupledSampler:
    def test_degenerate(self):
        batch = sample_coupled(_config(1, 1, 4000, 8, MODE_COUPLED))
        assert (batch.d_values == 1).all()
        # Delta | D=1 is a unit exponential
        assert abs(batch.delta_values.mean() - 1.0) <= 3 * (
            batch.delta_values.std(ddof=1) / math.sqrt(4000)
        )

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 5)])
    def test_pairwise_identities(self, m, n):
        reps = 100000
        batch = sample_coupled(_config(m, n, reps, 13, MODE_COUPLED))
        d = batch.d_values.astype(float)
        delta = batch.delta_values
        # mean coupling
        w = delta - d
        assert abs(w.mean()) <= 3 * w.std(ddof=1) / math.sqrt(reps)
        # reciprocal coupling: E[1/Delta] = E[1/(D-1)]
        w = 1.0 / delta - 1.0 / (d - 1.0)
        assert abs(w.mean()) <= 3 * w.std(ddof=1) / math.sqrt(reps)
        # variance transfer: V[D] = V[Delta] - E[Delta]
        u = (d - d.mean()) ** 2 - (delta - delta.mean()) ** 2 + delta
        assert abs(u.mean()) <= 3 * u.std(ddof=1) / math.sqrt(reps)

    def test_memory_per_replication_is_bounded(self):
        # an int64 D and a float64 Delta per replication, plus one block's
        # temporaries
        reps = 200_000
        sample_coupled(_config(3, 6, 300, 61, MODE_COUPLED))  # warm caches
        tracemalloc.start()
        try:
            sample_coupled(_config(3, 6, reps, 61, MODE_COUPLED))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / reps < 24.0, f"{peak / reps:.1f} B per replication"


class TestDeterminism:
    def test_identical_config_identical_batch(self):
        a = sample_coupled(_config(2, 4, 300, 21, MODE_COUPLED))
        b = sample_coupled(_config(2, 4, 300, 21, MODE_COUPLED))
        assert np.array_equal(a.d_values, b.d_values)
        assert np.array_equal(a.delta_values, b.delta_values)

    @pytest.mark.parametrize("mode", [MODE_DISCRETE, MODE_POISSONIZED, MODE_COUPLED])
    def test_thread_count_does_not_change_results(self, monkeypatch, mode):
        for reps in [257, 4097]:  # 2 and 17 blocks, the last one partial
            cfg = _config(3, 6, reps, 77, mode)
            monkeypatch.setenv("COUPON_DELAY_THREADS", "1")
            a = _SAMPLERS[mode](cfg)
            for threads in ["2", "3", "6"]:
                monkeypatch.setenv("COUPON_DELAY_THREADS", threads)
                b = _SAMPLERS[mode](cfg)
                pairs = [(a.d_values, b.d_values), (a.delta_values, b.delta_values)]
                for x, y in pairs:
                    assert (x is None and y is None) or np.array_equal(x, y)

    def test_block_writes_survive_thread_switches(self, monkeypatch):
        # more workers than cores fill shared arrays, switching threads every
        # microsecond; a lost or misplaced block would break equality
        for mode in [MODE_DISCRETE, MODE_POISSONIZED, MODE_COUPLED]:
            cfg = _config(3, 6, 20 * 256 + 7, 79, mode)
            monkeypatch.setenv("COUPON_DELAY_THREADS", "1")
            want = _SAMPLERS[mode](cfg)
            monkeypatch.setenv("COUPON_DELAY_THREADS", "8")
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                t0 = time.perf_counter()
                got = _SAMPLERS[mode](cfg)
                elapsed = time.perf_counter() - t0
            finally:
                sys.setswitchinterval(interval)
            for x, y in [(want.d_values, got.d_values), (want.delta_values, got.delta_values)]:
                assert (x is None and y is None) or np.array_equal(x, y)
            assert elapsed < 30.0

    def test_bad_thread_env(self, monkeypatch):
        monkeypatch.setenv("COUPON_DELAY_THREADS", "many")
        with pytest.raises(ValueError):
            sample_discrete(_config(1, 2, 4, 0, MODE_DISCRETE))

    def test_worker_count_is_capped(self, monkeypatch):
        # a stand-in pool records its size and maps serially: no thread starts
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setenv("COUPON_DELAY_THREADS", "100000")
        ranges = []
        simulate._run_reps(lambda first, last: ranges.append((first, last)), 200 * 256)
        assert sizes == [64] and len(ranges) <= 64
        assert [b for first, last in ranges for b in range(first, last)] == list(range(200))


class TestKS:
    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty"):
            ks_statistic(np.array([]), np.array([]))

    def test_degenerate_batch(self):
        cfg = _config(2, 4, 3, 0, MODE_DISCRETE)
        batch = SampleBatch(config=cfg, d_values=np.array([40, 40, 40]))
        report = ks_distance(batch, FixedM(2))
        assert report.statistic >= 0.5
        assert report.reps == 3

    def test_empty_batch(self):
        cfg = _config(1, 2, 1, 0, MODE_DISCRETE)
        with pytest.raises(ValueError):
            ks_distance(SampleBatch(config=cfg), FixedM(1))

    def test_null_distribution_self_test(self):
        # inverse-transform draws from the standard Gumbel itself: the KS
        # statistic must sit below the asymptotic 99% quantile 1.63/sqrt(N)
        rng = np.random.default_rng(2026)
        y = np.sort(-np.log(-np.log(rng.random(5000))))
        model = target_cdf(StandardGumbel(), y)
        assert ks_statistic(y, model) <= 0.031

    def test_harness_control_single_coverage(self):
        # fixed-m law at m=1 converges quickly: desk-scale KS is pure noise
        batch = sample_poissonized(_config(1, 10**4, 2000, 17, MODE_POISSONIZED))
        report = ks_distance(batch, FixedM(1))
        assert report.statistic <= 0.05

    def test_fixed_n_limit(self):
        batch = sample_poissonized(_config(10**4, 3, 5000, 19, MODE_POISSONIZED))
        report = ks_distance(batch, FixedN(3))
        assert report.statistic <= 0.03


class TestSmallInstanceLaw:
    @pytest.mark.parametrize(
        "mode,m,n", [(MODE_DISCRETE, 2, 2), (MODE_COUPLED, 2, 3), (MODE_DISCRETE, 3, 4)]
    )
    def test_total_variation_against_exact_pmf(self, mode, m, n):
        reps = 100000
        batch = _SAMPLERS[mode](_config(m, n, reps, 23, mode))
        dist = exact_dist_small(ProblemSize(m, n))
        counts = np.bincount(batch.d_values, minlength=int(dist.support[-1]) + 1)
        empirical = counts / reps
        exact = np.zeros_like(empirical)
        exact[dist.support] = dist.pmf
        width = max(len(empirical), len(exact))
        tv = 0.5 * np.abs(
            np.pad(empirical, (0, width - len(empirical)))
            - np.pad(exact, (0, width - len(exact)))
        ).sum()
        assert tv <= 0.01

    def test_large_instance_mean(self):
        # (30000, 1000): a label-by-label sampler would need 3e7 draws per
        # replication; the mean of D still has to match quadrature
        reps = 400
        batch = sample_discrete(_config(30000, 1000, reps, 29, MODE_DISCRETE))
        d = batch.d_values.astype(float)
        se = d.std(ddof=1) / math.sqrt(reps)
        assert abs(d.mean() - mean_delay(ProblemSize(30000, 1000)).value) <= 4 * se


class TestEmpiricalMoments:
    def test_constant_batch(self):
        cfg = _config(1, 5, 3, 0, MODE_DISCRETE)
        batch = SampleBatch(config=cfg, d_values=np.array([5, 5, 5]))
        est, se = empirical_moments(batch.d_values, 1)
        assert est == 5.0
        assert se == 0.0
        with pytest.raises(ValueError):
            empirical_moments(np.array([]))

    def test_single_value_and_order_validation(self):
        assert empirical_moments([3.0], 2) == (9.0, 0.0)
        for r in (0, -1):
            with pytest.raises(ValueError, match="order"):
                empirical_moments([3.0, 4.0], r)

    def test_second_moment(self):
        cfg = _config(1, 5, 2, 0, MODE_DISCRETE)
        batch = SampleBatch(config=cfg, d_values=np.array([2, 4]))
        est, se = empirical_moments(batch.d_values, 2)
        assert est == 10.0
        assert se == pytest.approx(6.0, rel=1e-12)


class TestCsvExport:
    def test_coupled_pairs(self, tmp_path):
        batch = sample_coupled(_config(1, 2, 4, 31, MODE_COUPLED))
        path = tmp_path / "pairs.csv"
        write_samples_csv(batch, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "d,delta"
        assert len(lines) == 5
        d, delta = lines[1].split(",")
        assert int(d) >= 2
        float(delta)

    def test_empty_batch_writes_no_file(self, tmp_path):
        path = tmp_path / "none.csv"
        with pytest.raises(ValueError, match="no samples"):
            write_samples_csv(SampleBatch(config=_config(1, 2, 1, 0, MODE_DISCRETE)), path)
        assert not path.exists()

    def test_single_column(self, tmp_path):
        batch = sample_discrete(_config(1, 2, 3, 31, MODE_DISCRETE))
        path = tmp_path / "d.csv"
        write_samples_csv(batch, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "d"
        assert len(lines) == 4

    @pytest.mark.parametrize("columns", [("d",), ("delta",), ("d", "delta")])
    def test_bytes_equal_the_per_value_format(self, tmp_path, columns):
        # D as str(int) and Delta as format(x, ".10g"), over 4097 rows (one
        # full chunk and a partial one), extreme doubles and D up to 2^62
        rows = 4097
        rng = np.random.default_rng(83)
        d = rng.integers(1, 2**62, rows, endpoint=True)
        d[:4] = [1, 2**31, 2**53 + 1, 2**62]
        delta = rng.standard_exponential(rows) * 10.0 ** rng.integers(-300, 300, rows)
        delta[:7] = [5e-324, 1e-5, 0.1 + 0.2, 1e16, 1.7976931348623157e308, 1.0, 123456.789]
        values = {"d": d, "delta": delta}
        batch = SampleBatch(
            config=_config(1, 2, rows, 0, MODE_COUPLED),
            **{f"{name}_values": values[name] for name in columns},
        )
        cells = {
            "d": [str(x) for x in d.tolist()],
            "delta": [format(x, ".10g") for x in delta.tolist()],
        }
        want = ",".join(columns) + "\n" + "".join(
            ",".join(row) + "\n" for row in zip(*(cells[name] for name in columns))
        )
        path = tmp_path / "out.csv"
        write_samples_csv(batch, path)
        assert path.read_bytes() == want.encode()

    def test_rows_written_in_blocks(self, tmp_path, monkeypatch):
        # the file does not depend on how many rows are formatted per write
        batch = sample_coupled(_config(2, 3, 10, 37, MODE_COUPLED))
        want = "d,delta\n" + "".join(
            f"{d},{delta:.10g}\n" for d, delta in zip(batch.d_values, batch.delta_values)
        )
        for rows in (1, 3, 10, 4096):
            monkeypatch.setattr(simulate, "_CSV_ROWS", rows)
            path = tmp_path / f"rows{rows}.csv"
            write_samples_csv(batch, path)
            assert path.read_bytes() == want.encode()
