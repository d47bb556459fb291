import math
import time
import warnings
from functools import reduce
from operator import add

import numpy as np
import pytest
from scipy.special import zeta

from madd import powerlaw
from madd.errors import DegenerateSamples, InsufficientData
from madd.powerlaw import (
    _COARSE_LAMBDAS,
    ALPHA_BOUNDS,
    LAMBDA_BOUNDS,
    PowerLawFit,
    _bounded_brent,
    _coarse_lambda,
    _cumulative,
    _hurwitz_zeta,
    _ks_distance,
    _nelder_mead,
    _norm_constant,
    _tail_likelihood,
    fit_truncated_power_law,
)


def full_table(alpha, lam, x_min, z):
    """The whole cumulative table (lam > 0), in one np.cumsum: P(X <= k) from
    x_min until e^(-lam k) has fallen by e^-40, at most 2**24 entries."""
    ks = np.arange(x_min, x_min + int(min(np.ceil(40.0 / lam), 1 << 24)) + 1, dtype=np.float64)
    return np.clip(np.cumsum(ks**-alpha * np.exp(-lam * ks)) / z, 0.0, 1.0)


def sample_truncated_power_law(alpha, lam, x_min, n, seed):
    """Generation oracle: explicit pmf over a wide support, then choice.

    Kept independent of the fitting code on purpose.
    """
    hi = x_min
    while True:
        ks = np.arange(x_min, hi + 1, dtype=np.float64)
        weights = ks**-alpha * np.exp(-lam * ks)
        tail = np.exp(-lam * (hi + 1)) * (hi + 1) ** -alpha / max(lam, 1e-12)
        if tail < 1e-12 * weights.sum() or hi > 10**7:
            break
        hi *= 4
    probs = weights / weights.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(ks.astype(np.int64), size=n, p=probs)


def test_recovers_known_parameters():
    samples = sample_truncated_power_law(1.5, 0.01, 10, 10_000, seed=20240817)
    fit = fit_truncated_power_law(samples)
    assert abs(fit.alpha - 1.5) <= 0.1
    assert fit.x_min == 10
    assert 0.001 <= fit.lam <= 0.1


def test_pure_power_law_gets_negligible_cutoff():
    rng = np.random.default_rng(3)
    samples = rng.zipf(2.5, size=4000)
    fit = fit_truncated_power_law(samples)
    assert abs(fit.alpha - 2.5) <= 0.15
    assert fit.lam < 0.005


def test_deterministic_for_fixed_input():
    samples = sample_truncated_power_law(1.8, 0.02, 5, 2_000, seed=99)
    a = fit_truncated_power_law(samples)
    b = fit_truncated_power_law(samples)
    assert (a.alpha, a.lam, a.x_min) == (b.alpha, b.lam, b.x_min)


def test_degenerate_samples_rejected():
    with pytest.raises(DegenerateSamples):
        fit_truncated_power_law([5] * 200)


def test_too_few_samples_rejected():
    with pytest.raises(InsufficientData):
        fit_truncated_power_law(list(range(1, 30)))


def test_too_few_distinct_values_rejected():
    with pytest.raises(InsufficientData):
        fit_truncated_power_law([1, 2, 3, 4, 5] * 40)


def test_non_positive_samples_rejected():
    with pytest.raises(ValueError):
        fit_truncated_power_law([0, 1, 2] * 40)


@pytest.mark.parametrize(
    "samples",
    [
        np.random.default_rng(3).zipf(2.5, size=400) + 0.5,
        [1.0, 2.0, float("nan")] * 40,
        [1.0, 2.0, 1e30] * 40,
    ],
    ids=["half-integers", "nan", "past-int64"],
)
def test_non_integer_samples_rejected(samples):
    with pytest.raises(ValueError, match="positive integers"):
        fit_truncated_power_law(samples)


def test_integral_float_samples_fit_like_ints():
    ints = np.random.default_rng(3).zipf(2.5, size=400)
    assert fit_truncated_power_law(ints.astype(np.float64)) == fit_truncated_power_law(ints)


# Fit reprs on pure and truncated draws: a change to the fit's arithmetic
# that moves any bit shows here.
PINNED_FITS = [
    ("zipf", (2.5, 4000, 3), "(2.485991645150628, 0.00047278356185593, 1)"),
    ("zipf", (1.8, 1500, 11), "(1.8231160436860034, 0.0, 1)"),
    ("zipf", (3.2, 2000, 5), "(3.1315722018178396, 0.013693224494643316, 1)"),
    ("zipf", (2.1, 800, 8), "(2.083169723186737, 0.000369751819009803, 1)"),
    ("truncated", (1.5, 0.01, 10, 3000, 1), "(3.457288457999419, 0.003671299136105476, 127)"),
    ("truncated", (1.8, 0.02, 5, 2000, 99), "(1.7363594529108766, 0.020444970426810722, 7)"),
    ("truncated", (2.2, 0.001, 1, 1500, 4), "(2.1502154706245626, 0.003975902895137706, 1)"),
    ("truncated", (1.3, 0.1, 3, 1000, 12), "(1.2371527529551845, 0.11412481476329354, 12)"),
]


@pytest.mark.parametrize(
    "kind,args,expected",
    PINNED_FITS,
    ids=["-".join(map(str, (kind, *args))) for kind, args, _ in PINNED_FITS],
)
def test_fit_pinned(kind, args, expected):
    if kind == "zipf":
        alpha, n, seed = args
        samples = np.random.default_rng(seed).zipf(alpha, size=n)
    else:
        alpha, lam, x_min, n, seed = args
        samples = sample_truncated_power_law(alpha, lam, x_min, n, seed=seed)
    fit = fit_truncated_power_law(samples)
    assert repr((fit.alpha, fit.lam, fit.x_min)) == expected


def ascending_coarse_lambda(ll_at):
    """The full coarse grid scanned upward, strict improvement only."""
    best_lam, best_ll = 0.0, -np.inf
    for lam in _COARSE_LAMBDAS:
        if ll_at[lam] > best_ll:
            best_ll, best_lam = ll_at[lam], lam
    return best_lam


def test_coarse_lambda_matches_ascending_oracle():
    rng = np.random.default_rng(2009)
    cases = []  # (samples, x_min)
    for i in range(20):
        samples = rng.zipf(rng.uniform(1.6, 3.5), size=600)
        if i % 2:  # thin the tail with an exponential cutoff
            keep = rng.random(samples.size) < np.exp(-rng.uniform(0.005, 0.2) * samples)
            samples = samples[keep]
        uniq = np.unique(samples)
        for x_min in sorted({int(uniq[0]), int(uniq[min(3, uniq.size - 1)])}):
            cases.append((samples, x_min))
    # every normalizer at lam = 1 underflows, so ll there is -inf
    cases.append((rng.integers(2_000, 2_400, size=200), 2_000))

    picks, underflows, scans = set(), 0, 0
    for samples, x_min in cases:
        x_sorted = np.sort(samples)
        loglik = _tail_likelihood(x_sorted, np.log(x_sorted.astype(np.float64)), x_min)
        alphas = [1.001, 8.0, *rng.uniform(1.05, 4.0, 6).tolist()]
        for a in alphas:
            ll_at = {lam: loglik(a, lam) for lam in _COARSE_LAMBDAS}
            lam = _coarse_lambda(lambda _a, l: ll_at[l], a)
            assert lam == ascending_coarse_lambda(ll_at)
            picks.add(lam)
            underflows += ll_at[1.0] == -np.inf
            scans += 1
    assert scans >= 300
    assert 0.0 in picks and len(picks) >= 5
    assert underflows >= len(alphas)
    # on a plateau the smallest lam wins
    plateau = {lam: min(lam, _COARSE_LAMBDAS[5]) for lam in _COARSE_LAMBDAS}
    assert _coarse_lambda(lambda _a, l: plateau[l], 2.0) == _COARSE_LAMBDAS[5]


class TestCdf:
    def test_zero_below_x_min(self):
        fit = PowerLawFit(alpha=1.5, lam=0.01, x_min=16)
        assert fit.cdf(1) == 0.0
        assert fit.cdf(15) == 0.0
        assert fit.cdf(15.999) == 0.0

    def test_monotone_and_bounded(self):
        fit = PowerLawFit(alpha=1.5, lam=0.01, x_min=10)
        values = np.array([fit.cdf(x) for x in range(1, 5000)])
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) >= -1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.3])
    def test_matches_brute_force_mass_summation(self, lam):
        fit = PowerLawFit(alpha=1.6, lam=lam, x_min=12)
        ks = np.arange(12, 100_001, dtype=np.float64)
        mass = ks**-1.6 * np.exp(-lam * ks)
        brute = np.cumsum(mass) / fit.normalization
        for probe in (12, 13, 20, 50, 100, 1_000, 10_000, 100_000):
            assert abs(fit.cdf(probe) - brute[probe - 12]) < 1e-3

    def test_approaches_one(self):
        fit = PowerLawFit(alpha=1.5, lam=0.02, x_min=10)
        assert fit.cdf(100_000) > 0.999

    @pytest.mark.parametrize("lam", [0.0, 0.02])
    def test_past_int64_reads_top(self, lam):
        fit = PowerLawFit(alpha=1.5, lam=lam, x_min=10)
        top = fit.cdf(10**15)
        assert top > 1.0 - 1e-7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for big in (np.inf, 1e30, 2.0**63, 10**25, np.float64(1e30)):
                assert fit.cdf(big) >= top
        assert fit.cdf(-np.inf) == 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.02])
    def test_nan_rejected(self, lam):
        fit = PowerLawFit(alpha=1.5, lam=lam, x_min=10)
        with pytest.raises(ValueError):
            fit.cdf(float("nan"))
        with pytest.raises(ValueError):
            fit.cdf(np.float64("nan"))

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.3])
    def test_scalar_path_bit_identical_to_array_path(self, lam):
        """Every kind of number reads the floor of its value, as a float, with
        the bits of the law's table (lam > 0) or of 1 - zeta(alpha, k + 1) / Z."""
        fit = PowerLawFit(alpha=1.6, lam=lam, x_min=12)
        table = full_table(1.6, lam, 12, fit.normalization) if lam > 0.0 else None
        past_table = 12 + 2 * len(table) if lam > 0.0 else 10**9
        values = [1, 11, 11.999, 12, 12.0, 12.5, 13, 57, 999.75, 10**5, past_table,
                  np.int64(40), np.float64(40.5), np.float32(12.25), -3.0, 1e300, np.inf]
        for v in values:
            got = fit.cdf(v)
            assert type(got) is float
            k = np.floor(np.float64(v))
            if k < 12:
                want = 0.0
            elif lam > 0.0:
                want = table[int(min(k - 12, len(table) - 1))]
            else:
                want = np.clip(1.0 - zeta(1.6, k + 1.0) / fit.normalization, 0.0, 1.0)
            assert got == want

    @pytest.mark.parametrize("lam", [0.0, 0.02])
    def test_array_rejected(self, lam):
        fit = PowerLawFit(alpha=1.5, lam=lam, x_min=10)
        for arg in (np.array([12.0, 13.0]), np.asarray(12.0), [12], "12"):
            with pytest.raises(TypeError):
                fit.cdf(arg)


@pytest.mark.parametrize("lam", [0.0, 1e-4, 0.01, 0.3])
def test_ks_distance_matches_scalar_cdf(lam):
    """The KS step's prefix of the cumulative table gives the law's own cdf
    bits: with a value past the table's end and one at 10**12, and on a
    narrow tail whose largest gap is at its largest value."""
    alpha, x_min = 1.7, 5
    past_table = x_min + 2 * len(full_table(alpha, lam, x_min, 1.0)) if lam > 0.0 else 10**7
    wide = np.concatenate([np.random.default_rng(18).zipf(alpha, 400) + 1, [past_table, 10**12]])
    narrow = np.arange(x_min, x_min + 6).repeat(20)
    for samples in (wide, narrow):
        x_sorted = np.sort(samples)
        for lo in sorted({1, x_min, int(x_sorted[-3])}):
            fit = PowerLawFit(alpha, lam, lo)
            tail = x_sorted[x_sorted >= lo]
            values, counts = np.unique(tail, return_counts=True)
            ecdf = np.cumsum(counts) / tail.size
            model = np.array([fit.cdf(v) for v in values.tolist()])
            assert _ks_distance(x_sorted, alpha, lam, lo) == float(np.max(np.abs(ecdf - model)))


def test_hurwitz_zeta_is_scipys():
    """The port returns scipy.special.zeta's bits on seeded (x, q): x in the fit's
    alpha bounds, just above 1, and up to 400, where the summed head stops early;
    q integer up to 10**6, non-integer, on both sides of the asymptotic branch at
    1e8 and infinite; and where every term underflows, as the normalizer of
    PowerLawFit(400, 0, 10**7) does."""
    rng = np.random.default_rng(36)
    n = 6_000
    x = np.concatenate([
        rng.uniform(*ALPHA_BOUNDS, 5 * n), np.full(n, 1.0000001), rng.uniform(8.0, 400.0, n)
    ])
    q = np.concatenate([
        rng.integers(1, 10, n), rng.integers(1, 10**6 + 1, n),  # integer q
        10 ** rng.uniform(0.0, 7.0, n),  # non-integer q
        10 ** rng.uniform(7.5, 8.5, n),  # either side of q = 1e8
        np.full(n, np.inf),
        rng.choice([1.0, 7.5, 1e8, 2e8, np.inf], n),  # x just above 1
        10 ** rng.uniform(0.0, 3.0, n),  # large x
    ]).astype(np.float64)
    x = np.concatenate([x, [400.0, 200.0, 400.0, 8.0]])
    q = np.concatenate([q, [1e7, 1e6, 1.0, 1e300]])
    ours = np.array([_hurwitz_zeta(a, b) for a, b in zip(x.tolist(), q.tolist())])
    assert ours.tobytes() == zeta(x, q).tobytes()
    assert ours[-4:-2].tolist() == [0.0, 0.0]
    assert _hurwitz_zeta(400.0, 1e7) == 0.0


def reference_norm_constant(alpha, lam, x_min):
    """The normalizer summed from a fixed first chunk of 65,536 terms, doubling after."""
    total, lo, chunk = 0.0, x_min, 1 << 16
    while True:
        k = np.arange(lo, lo + chunk, dtype=np.float64)
        total += float(np.sum(k**-alpha * np.exp(-lam * k)))
        lo += chunk
        if float(np.exp(-lam * lo) * zeta(alpha, lo)) <= 1e-12 * total:
            return total
        chunk = min(chunk * 2, 1 << 22)


def test_norm_constant_matches_fixed_chunk_reference():
    """Within 2e-12 of the chunked sum wherever that is a normal float, and 0
    exactly where either underflows; the reference's own tail truncation is
    1e-12 of Z."""
    rng = np.random.default_rng(2009)
    n = 2_000
    alphas = rng.uniform(1.001, 8.0, n)
    lams = 10.0 ** rng.uniform(-4.9, 0.0, n)
    x_mins = rng.integers(1, 20_001, n)
    mismatches, underflows = [], 0
    for a, lam, x in zip(alphas.tolist(), lams.tolist(), x_mins.tolist()):
        got, want = _norm_constant(a, lam, x), reference_norm_constant(a, lam, x)
        if got == 0.0 or want == 0.0:
            underflows += 1
            ok = got == want
        else:
            ok = want < np.finfo(float).tiny or abs(got - want) <= 2e-12 * want
        if not ok:
            mismatches.append((a, lam, x, got, want))
    assert mismatches == []
    assert 0 < underflows < n // 2


def test_norm_constant_matches_lerch_phi():
    """Z = e^(-lam x_min) Phi(e^-lam, alpha, x_min), Lerch's transcendent at
    30 digits, to 1e-14 relative; the cases take both the direct sum and the
    Euler-Maclaurin join."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    n = 40
    alphas = rng.uniform(1.001, 8.0, n)
    lams = 10.0 ** rng.uniform(-12.0, 0.0, n)
    x_mins = rng.integers(1, 101, n)
    worst = 0.0
    with mpmath.workdps(30):
        for a, lam, x in zip(alphas.tolist(), lams.tolist(), x_mins.tolist()):
            q = mpmath.exp(-mpmath.mpf(lam))
            want = q**x * mpmath.lerchphi(q, a, x)
            worst = max(worst, float(abs(_norm_constant(a, lam, x) / want - 1)))
    assert worst <= 1e-14


@pytest.mark.parametrize("lam", [1e-7, 1e-12, 2e-200, 1e-300, 5e-324])
def test_small_lambda_bounded_cost(lam):
    """A tiny or subnormal cutoff returns a finite normalizer at once, on the
    small-lam series zeta(3/2) - 2 sqrt(pi lam) - zeta(1/2) lam + O(lam^2),
    and the cumulative table clamps its length before taking it as an int."""
    start = time.perf_counter()
    z = _norm_constant(1.5, lam, 1)
    fit = PowerLawFit(1.5, lam, 1)
    assert fit.normalization == z
    assert time.perf_counter() - start < 1.0
    series = zeta(1.5, 1) - 2.0 * np.sqrt(np.pi * lam) - zeta(0.5) * lam
    assert abs(z - series) <= 1e-15 * z
    prefix = _cumulative(1.5, lam, 1, z, last=10)
    assert prefix.size == 10 and prefix[-1] < 1.0


def test_table_grown_in_chunks_equals_full_table():
    """However the queries arrive, each cdf reads the bits of the table built
    in one np.cumsum; queries past its end read its last entry."""
    rng = np.random.default_rng(26)
    for _ in range(60):
        alpha, lam = rng.uniform(1.05, 4.0), 10 ** rng.uniform(-5, 0)
        x_min = int(rng.integers(1, 30))
        fit = PowerLawFit(alpha, lam, x_min)
        table = full_table(alpha, lam, x_min, fit.normalization)
        ks = rng.integers(x_min, x_min + 3 * len(table), 25)
        for k in sorted(ks.tolist(), key=lambda _: rng.random()):
            assert fit.cdf(k) == table[min(k - x_min, len(table) - 1)]


def test_table_holds_only_the_entries_asked():
    """A small lam's table would hold 2**24 entries; a query at 5 builds five."""
    fit = PowerLawFit(1.5, 1e-7, 1)
    fit.cdf(5)
    assert fit.__dict__["_sums"].size == 5
    fit.cdf(6)
    assert fit.__dict__["_sums"].size == 10


def test_paper_world_fit_pinned(paper_world):
    fit = paper_world[-1]
    assert repr((fit.alpha, fit.lam, fit.x_min)) == "(1.8204604925732841, 0.005414012274470207, 10)"


def test_paper_world_fit_normalizer_calls_pinned(paper_world, monkeypatch):
    """The fit's work as a count: a change to the search moves it exactly. The
    last call is the returned law's own, made when it is constructed."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _norm_constant(*args)

    monkeypatch.setattr(powerlaw, "_norm_constant", counted)
    samples = [p.share_total for p in paper_world[1] if not p.is_bot and p.share_total >= 1]
    assert fit_truncated_power_law(samples) == paper_world[-1]
    assert len(calls) == 924


def test_paper_world_fit_zeta_calls_pinned(paper_world, monkeypatch):
    """The fit's zeta evaluations as a count: all are its normalizer's at lam = 0, since
    no candidate's KS step is at lam = 0, which would add one per distinct tail value."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _hurwitz_zeta(*args)

    monkeypatch.setattr(powerlaw, "_hurwitz_zeta", counted)
    samples = [p.share_total for p in paper_world[1] if not p.is_bot and p.share_total >= 1]
    assert fit_truncated_power_law(samples) == paper_world[-1]
    assert len(calls) == 426


def recorded(func):
    """``func`` with the bytes of every point it is called at, in call order.
    It overwrites each array it gets with NaN, so a minimizer that passed an
    array it still reads, instead of a copy, takes another path."""
    points = []

    def wrapper(x):
        points.append(np.asarray(x, dtype=np.float64).tobytes())
        fx = func(x)
        if isinstance(x, np.ndarray):
            x.fill(np.nan)
        return fx

    return wrapper, points


def bits(*values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_brent_is_scipys(func):
    """Returns the minimizing x."""
    from scipy.optimize import minimize_scalar

    theirs, their_points = recorded(func)
    res = minimize_scalar(theirs, bounds=ALPHA_BOUNDS, method="bounded", options={"xatol": 1e-6})
    ours, our_points = recorded(func)
    x, fun = _bounded_brent(ours, ALPHA_BOUNDS, xatol=1e-6)
    assert our_points == their_points
    assert bits(x, fun) == bits(res.x, res.fun)
    return x


def assert_nelder_mead_is_scipys(func, x0):
    """Returns scipy's result, whose nit and nfev tell which steps it took."""
    from scipy.optimize import minimize

    theirs, their_points = recorded(func)
    res = minimize(
        theirs, x0, method="Nelder-Mead", options={"xatol": 1e-7, "fatol": 1e-9, "maxiter": 500}
    )
    ours, our_points = recorded(func)
    x, fun = _nelder_mead(ours, x0, xatol=1e-7, fatol=1e-9, maxiter=500)
    assert our_points == their_points
    assert bits(*x, fun) == bits(*res.x, res.fun)
    return res


def test_minimizers_are_scipys_on_the_paper_world(paper_world, monkeypatch):
    """At every x_min candidate of the paper world's fit: Brent at lam = 0 and at
    the candidate's coarse lam, then the Nelder-Mead polish from its (alpha, lam)."""
    logliks = []

    def kept(*args):
        logliks.append(_tail_likelihood(*args))
        return logliks[-1]

    monkeypatch.setattr(powerlaw, "_tail_likelihood", kept)
    samples = [p.share_total for p in paper_world[1] if not p.is_bot and p.share_total >= 1]
    assert fit_truncated_power_law(samples) == paper_world[-1]
    assert len(logliks) > 20
    for loglik in logliks:
        alpha = assert_brent_is_scipys(lambda a: -loglik(a, 0.0))
        lam = _coarse_lambda(loglik, alpha)
        if lam > 0.0:
            alpha = assert_brent_is_scipys(lambda a: -loglik(a, lam))

        def neg_ll(p):  # the polish's objective
            a = float(np.clip(p[0], *ALPHA_BOUNDS))
            return -loglik(a, float(np.clip(p[1], *LAMBDA_BOUNDS)))

        assert_nelder_mead_is_scipys(neg_ll, [alpha, lam])


def test_nelder_mead_is_scipys_through_shrinks_and_the_iteration_cap():
    """Seeded quadratics read through a clip to the unit box, as the polish reads
    (alpha, lam), flatten outside it and make the simplex shrink; stiff
    Rosenbrock valleys run into the 500-iteration cap."""
    rng = np.random.default_rng(35)
    shrunk = capped = 0
    for i in range(6):
        c, w, s = rng.uniform(-1.0, 2.0, 2), rng.uniform(0.5, 5.0, 2), 10 ** rng.uniform(5.5, 7.0)
        start = rng.uniform(0.1, 0.9, 2)
        if i == 0:  # the first simplex steps a zero coordinate by a fixed 0.00025
            start[0] = 0.0

        def boxed(p, c=c, w=w):
            x = np.clip(p, 0.0, 1.0)
            return float(w @ (x - c) ** 2 + np.sin(3.0 * x[0] * x[1]))

        def valley(p, s=s):
            return s * (p[1] - p[0] ** 2) ** 2 + (1.0 - p[0]) ** 2

        for func, x0 in ((boxed, start), (valley, rng.uniform(-2.0, 2.0, 2))):
            res = assert_nelder_mead_is_scipys(func, x0.tolist())
            # an iteration makes 1 or 2 evaluations, or 2 + 2 when it shrinks
            shrunk += res.nfev - 3 > 2 * (res.nit - 1)
            capped += res.nit == 500
    assert shrunk >= 3 and capped >= 3


def old_join_norm_constant(alpha, lam, x_min):
    """_norm_constant's Euler-Maclaurin path with its join as first written:
    nested generators and ``math.prod``, each ``sum`` spelled as the left-to-right
    additions it made before Python 3.12."""
    n = powerlaw._HEAD
    assert math.ceil(powerlaw._DIRECT_SPAN / lam) > powerlaw._DIRECT_TERMS  # the join applies
    k = np.arange(x_min, x_min + n, dtype=np.float64)
    head = float(np.sum(k**-alpha * np.exp(-lam * k)))
    m = float(x_min + n)
    f = m**-alpha * math.exp(-lam * m)
    edges, end, width = [m], m + powerlaw._CUTOFF_SPAN / lam, 4.0 / lam
    while edges[-1] < end:
        edges.append(edges[-1] + min(edges[-1], width))
    a = np.array(edges)
    half = (a[1:] - a[:-1]) / 2.0
    nodes, weights = powerlaw._gauss_legendre()
    x = (a[:-1] + half)[:, None] + half[:, None] * nodes
    integral = float(half @ ((x**-alpha * np.exp(-lam * x)) @ weights))
    join, rising = 0.5, [math.prod(alpha + j for j in range(i)) for i in range(8)]  # alpha^(i)
    for c, o in zip(powerlaw._EM_COEFFS, (1, 3, 5, 7)):
        join += c * reduce(add, (math.comb(o, i) * rising[i] * m**-i * lam ** (o - i)
                                 for i in range(o + 1)), 0)
    return head + (integral + f * join)


def test_norm_constant_join_matches_old_formula():
    """Bit for bit on seeded cases that take the Euler-Maclaurin join."""
    rng = np.random.default_rng(28)
    n = 2_000
    alphas = rng.uniform(1.001, 8.0, n)
    lams = 10.0 ** rng.uniform(-12.0, np.log10(0.04), n)
    x_mins = rng.integers(1, 101, n)
    for a, lam, x in zip(alphas.tolist(), lams.tolist(), x_mins.tolist()):
        assert _norm_constant(a, lam, x) == old_join_norm_constant(a, lam, x), (a, lam, x)


def test_candidates_never_empty():
    """The smallest value keeps every sample in its tail: a fit that has
    MIN_SAMPLES samples always has one x_min candidate."""
    assert powerlaw.MIN_TAIL <= powerlaw.MIN_SAMPLES


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        PowerLawFit(alpha=0.9, lam=0.0, x_min=5)
    with pytest.raises(ValueError):
        PowerLawFit(alpha=1.5, lam=-0.1, x_min=5)
    with pytest.raises(ValueError):
        PowerLawFit(alpha=1.5, lam=0.1, x_min=0)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_law_that_cannot_be_normalised_rejected(lam):
    """Every term of x^-400 from 10**7 underflows, so the normalizer reads 0.0."""
    with pytest.raises(ValueError, match="cannot be normalised"):
        PowerLawFit(alpha=400, lam=lam, x_min=10**7)
