import numpy as np
import pytest

from rnp import (
    ErrorParams,
    MonteCarloResult,
    PumpSchedule,
    RestartMode,
    build_chain,
    expected_pairs,
    failure_probability,
    monte_carlo_pumping,
    run_two_level,
)
from rnp import backend

# Random123 known-answer vector: philox4x32-10 with all-zero counter and key
# produces (0x6627e8d5, 0xe169c58d, ...); our uniform is built from the
# first two output words.
KAT_ZERO_UNIFORM = (((0xE169C58D << 32) | 0x6627E8D5) >> 11) * 2.0**-53


def philox_reference(ctr, key, rounds=10):
    """Scalar Philox4x32 reference, independent of the NumPy kernel."""
    m0, m1 = 0xD2511F53, 0xCD9E8D57
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for _ in range(rounds):
        p0 = m0 * c0
        p1 = m1 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & 0xFFFFFFFF, (p0 >> 32) ^ c3 ^ k1, p0 & 0xFFFFFFFF
        k0 = (k0 + 0x9E3779B9) & 0xFFFFFFFF
        k1 = (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return c0, c1, c2, c3


def trace_for(n_b, n_p, f=0.95, eps_m=1.2e-5):
    p = ErrorParams(p_local=1e-6, p_init=0.05, p_meas=0.05, fidelity=f)
    return run_two_level(PumpSchedule(n_b, n_p), p, eps_m)


class TestPhilox:
    def test_known_answer_vectors(self):
        assert philox_reference((0, 0, 0, 0), (0, 0)) == (
            0x6627E8D5,
            0xE169C58D,
            0xBC57AC4C,
            0x9B00DBD8,
        )
        assert philox_reference((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2) == (
            0x408F276D,
            0x41C83B0E,
            0xA20BC7C6,
            0x6D5451FD,
        )
        assert philox_reference(
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0)
        ) == (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)

    def test_backends_match_reference(self):
        u = backend.philox_uniforms(0, np.array([0], dtype=np.uint32), np.array([0], dtype=np.uint32))
        assert u[0] == KAT_ZERO_UNIFORM
        # a couple of nonzero streams against the scalar reference
        for seed, trial, draw in [(7, 3, 11), (2**40 + 5, 1000, 0)]:
            x = philox_reference((draw, trial, 0, 0), (seed & 0xFFFFFFFF, seed >> 32))
            expect = (((x[1] << 32) | x[0]) >> 11) * 2.0**-53
            got = backend.philox_uniforms(
                seed, np.array([trial], dtype=np.uint32), np.array([draw], dtype=np.uint32)
            )[0]
            assert got == expect

    def test_uniforms_in_unit_interval(self):
        t = np.arange(2000, dtype=np.uint32)
        u = backend.philox_uniforms(123, t, t)
        assert (u >= 0.0).all() and (u < 1.0).all()
        assert 0.45 < u.mean() < 0.55


class TestMonteCarlo:
    def test_all_success_deterministic_consumption(self):
        p = ErrorParams(p_local=0.0, p_init=0.0, p_meas=0.0, fidelity=1.0)
        trace = run_two_level(PumpSchedule(2, 1), p, 0.0)
        res = monte_carlo_pumping(trace, RestartMode.FULL, budget=6, trials=500, seed=1)
        assert res.fail_fraction == 0.0
        assert res.mean_pairs == 6.0  # (n_b+1)(n_p+1)

    def test_fixed_seed_reproducible(self):
        trace = trace_for(2, 2)
        a = monte_carlo_pumping(trace, RestartMode.FULL, 20, 5000, seed=42)
        b = monte_carlo_pumping(trace, RestartMode.FULL, 20, 5000, seed=42)
        assert a == b
        c = monte_carlo_pumping(trace, RestartMode.FULL, 20, 5000, seed=43)
        assert c.mean_pairs != a.mean_pairs

    @pytest.mark.parametrize(
        "n_b,n_p,mode,fail_fraction,mean_pairs,fail_std_err,pairs_std_err",
        [
            (2, 2, RestartMode.FULL, 0.084, 12.1525, 0.0062025801083097675, 0.12294990937413314),
            (2, 2, RestartMode.LEVEL, 0.0005, 10.248, 0.0004998749843710925, 0.04391141202527),
            (0, 4, RestartMode.FULL, 0.0005, 5.6135, 0.0004998749843710925, 0.036355463617831),
            (0, 4, RestartMode.LEVEL, 0.0, 5.181, 0.0, 0.009780967930978683),
        ],
    )
    def test_pinned_philox_streams(
        self, n_b, n_p, mode, fail_fraction, mean_pairs, fail_std_err, pairs_std_err
    ):
        # Exact values of the seeded Philox streams; any change to the draw
        # order or the counter layout moves them.
        res = monte_carlo_pumping(trace_for(n_b, n_p), mode, budget=20, trials=2000, seed=5)
        assert res == MonteCarloResult(
            fail_fraction=fail_fraction,
            mean_pairs=mean_pairs,
            fail_std_err=fail_std_err,
            pairs_std_err=pairs_std_err,
            trials=2000,
            seed=5,
            budget=20,
        )

    @pytest.mark.parametrize("mode", list(RestartMode))
    @pytest.mark.parametrize("n_b,n_p", [(2, 2), (0, 4)])
    def test_against_chain_predictions(self, mode, n_b, n_p):
        trace = trace_for(n_b, n_p)
        chain = build_chain(trace, mode)
        expect = expected_pairs(chain)
        budget = max(chain.min_pairs, int(round(expect)))
        res = monte_carlo_pumping(trace, mode, budget, trials=40000, seed=11)
        predicted = failure_probability(chain, budget)
        assert abs(res.fail_fraction - predicted) <= 3.0 * res.fail_std_err
        assert abs(res.mean_pairs - expect) <= 3.0 * res.pairs_std_err
