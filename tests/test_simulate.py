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
from coupon_delay import simulate
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


def _stream(seed, rep):
    """Replication rep's generator, built by NumPy itself: the oracle for the
    sampler's bulk-keyed streams."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(rep, 0))
    return np.random.Generator(np.random.Philox(seq))


def _block_exponentials(seed, reps):
    """The standard exponentials of a poissonized batch: block b's stream
    draws 256, and replication i takes draw i mod 256 of block i // 256."""
    blocks = range(-(-reps // 256))
    return np.concatenate([_stream(seed, b).standard_exponential(256) for b in blocks])[:reps]


class TestStreams:
    _SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + np.random.default_rng(
        2024
    ).integers(0, 2**64, size=20, dtype=np.uint64).tolist()

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_keys_equal_numpy_seed_sequence(self, seed):
        for rep in [0, 1, 4095, 4096, 4097, 2**32 - 1, 2**32, 2**32 + 5]:
            want = np.random.SeedSequence(entropy=seed, spawn_key=(rep, 0))
            got = simulate._stream_keys(seed, rep, 1)
            assert got.dtype == np.uint64 and got.shape == (1, 2)
            assert np.array_equal(got[0], want.generate_state(2, np.uint64))

    def test_keys_of_a_range_across_two_to_the_32(self):
        start, count = 2**32 - 3, 6  # the high word appears mid-range
        keys = simulate._stream_keys(77, start, count)
        for i in range(count):
            want = np.random.SeedSequence(entropy=77, spawn_key=(start + i, 0))
            assert np.array_equal(keys[i], want.generate_state(2, np.uint64))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: rng.standard_exponential(8),
            lambda rng: rng.standard_gamma(3.5, size=8),
            lambda rng: rng.poisson(2.5, size=8),
            lambda rng: rng.integers(0, 2**32, size=8, dtype=np.uint32),
        ],
    )
    def test_reset_generator_matches_a_fresh_one(self, monkeypatch, threads, draw):
        def worker(rng, rep):
            values = draw(rng)
            rng.integers(0, 7, dtype=np.uint32)  # leaves half a word buffered
            return rep, values

        monkeypatch.setenv("COUPON_DELAY_THREADS", threads)
        got = simulate._run_reps(worker, 2**64 - 1, 5)
        for rep, (index, values) in enumerate(got):
            assert index == rep
            assert np.array_equal(values, draw(_stream(2**64 - 1, rep)))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_stream_index_across_key_blocks(self, monkeypatch, threads):
        # a chunk of more than 4096 streams derives its keys in two passes
        monkeypatch.setenv("COUPON_DELAY_THREADS", threads)
        got = simulate._run_reps(lambda rng, k: k, 3, 3 * 4096 + 5)
        assert got == list(range(3 * 4096 + 5))


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


class TestDeterminism:
    def test_identical_config_identical_batch(self):
        a = sample_coupled(_config(2, 4, 300, 21, MODE_COUPLED))
        b = sample_coupled(_config(2, 4, 300, 21, MODE_COUPLED))
        assert np.array_equal(a.d_values, b.d_values)
        assert np.array_equal(a.delta_values, b.delta_values)

    @pytest.mark.parametrize("mode", [MODE_DISCRETE, MODE_POISSONIZED, MODE_COUPLED])
    def test_thread_count_does_not_change_results(self, monkeypatch, mode):
        for reps in [257, 4097]:  # 4097 reps take a second block of keys
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
        # more workers than cores fill one shared array, switching threads
        # every microsecond; a lost or misplaced block would break equality
        cfg = _config(3, 6, 20 * 256 + 7, 79, MODE_POISSONIZED)
        monkeypatch.setenv("COUPON_DELAY_THREADS", "1")
        want = sample_poissonized(cfg).delta_values
        monkeypatch.setenv("COUPON_DELAY_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            got = sample_poissonized(cfg).delta_values
            elapsed = time.perf_counter() - t0
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)
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
        draw = lambda rng, rep: rng.standard_exponential()
        got = simulate._run_reps(draw, 5, 200)
        assert sizes == [64]
        monkeypatch.setenv("COUPON_DELAY_THREADS", "1")
        assert got == simulate._run_reps(draw, 5, 200)


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
