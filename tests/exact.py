"""Exact rational references for the step maps and the chain's failure mass.

Every float is a rational number and converts to ``Fraction`` exactly.  The
step maps (a permutation, two XOR convolutions, a weighted marginal) and the
chain's evolution are rational in their inputs, so these helpers compute them
with no rounding at all.  They are transcribed from the flag rules in
``rnp.pumping``'s docstring and share no arithmetic with the package.
"""

import math
from fractions import Fraction

from rnp.model import NoiseKind, StepKind


def _flags_after_cnot(kind, j):
    x1, z1, x2, z2 = (j >> 3) & 1, (j >> 2) & 1, (j >> 1) & 1, j & 1
    if kind is StepKind.BIT:
        x2, z1 = x2 ^ x1, z1 ^ z2
    else:
        x1, z2 = x1 ^ x2, z2 ^ z1
    return 8 * x1 + 4 * z1 + 2 * x2 + z2


def _vector(populations):
    """Floats (or Fractions) as exact (integer numerators, common denominator)."""
    fracs = [Fraction(x) for x in populations]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _weights(keeper, fresh, kind, p_local, meas_flip):
    """Accepted weight of each keeper Bell component, not normalized.

    ``keeper``, ``fresh`` and the result are (numerators, denominator) pairs
    of integers.  One shared denominator spares the gcd that Fraction takes
    on every operation, which dominates once the numbers reach ~1e4 bits.
    The weights are linear in ``keeper`` and in ``fresh``.
    """
    (k_num, k_den), (f_num, f_den) = keeper, fresh
    dist = [0] * 16
    for j in range(16):
        dist[_flags_after_cnot(kind, j)] = k_num[j >> 2] * f_num[j & 3]
    den = k_den * f_den
    a, b = Fraction(p_local).as_integer_ratio()  # weight a/b
    for _ in range(2):  # one depolarizing hit per register's CNOT
        total = sum(dist)
        dist = [15 * (b - a) * d + a * (total - d) for d in dist]
        den *= 15 * b
    c, g = Fraction(meas_flip).as_integer_ratio()  # readout error c/g
    flip = 2 * c * (g - c)  # comparison flip probability, over g^2
    parity_bit = 2 if kind is StepKind.BIT else 1  # measured x2, or z2
    weighted = [d * (flip if j & parity_bit else g * g - flip) for j, d in enumerate(dist)]
    return [sum(weighted[4 * k : 4 * k + 4]) for k in range(4)], den * g * g


def _normalized(weights):
    """(total weight, populations) of a (numerators, denominator) pair."""
    num, den = weights
    total = sum(num)
    return Fraction(total, den), [Fraction(x, total) for x in num]


def pump_step(keeper, fresh, kind, p_local, meas_flip):
    """Exact (success probability, keeper populations after success).

    ``keeper`` and ``fresh`` are Bell populations (Phi+, Phi-, Psi+, Psi-);
    a population index is 2*x + z, a joint flag index 4*keeper + fresh.
    Raises ZeroDivisionError when the step never succeeds.
    """
    return _normalized(_weights(_vector(keeper), _vector(fresh), kind, p_local, meas_flip))


def raw_pair(fidelity, noise):
    f = Fraction(fidelity)
    if noise is NoiseKind.DEPOLARIZING:
        return [f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3]
    return [f, 1 - f, Fraction(0), Fraction(0)]


def run_two_level(schedule, params, meas_flip):
    """Exact [(kind, success, populations after success)] of two-level pumping.

    The keeper is carried unnormalized, and so is the bit-purified fresh pair
    of the phase steps; a step is linear in both, so a step's success is its
    total weight over the keeper's and the fresh pair's.
    """
    base = _vector(raw_pair(params.fidelity, params.noise))
    keeper, norm = base, Fraction(1)
    steps = []
    for kind, n in ((StepKind.BIT, schedule.n_b), (StepKind.PHASE, schedule.n_p)):
        fresh, fresh_norm = (base, 1) if kind is StepKind.BIT else (keeper, norm)
        for _ in range(n):
            keeper = _weights(keeper, fresh, kind, params.p_local, meas_flip)
            total, populations = _normalized(keeper)
            steps.append((kind, total / (norm * fresh_norm), populations))
            norm = total
    return steps


def infidelity(populations):
    return populations[1] + populations[2] + populations[3]


def failure_mass(chain, n):
    """Exact probability that the chain is not absorbed after ``n`` steps.

    Evolves the start distribution through the chain's own transition
    triplets, each converted exactly, and sums the transient states.  The
    distribution is kept as integers over den**step.
    """
    moves = [
        (int(s), int(d), Fraction(float(p)))
        for s, d, p in zip(chain.trans_src, chain.trans_dst, chain.trans_p)
        if s != chain.done
    ]
    den = math.lcm(*(p.denominator for *_, p in moves))
    moves = [(s, d, p.numerator * (den // p.denominator)) for s, d, p in moves]
    dist = [0] * chain.done
    dist[chain.start] = 1
    for _ in range(n):
        nxt = [0] * (chain.done + 1)
        for s, d, p in moves:
            nxt[d] += dist[s] * p
        dist = nxt[:-1]
    return Fraction(sum(dist), den**n)


def relative_error(value, exact):
    """|value - exact| / |exact| as a Fraction (it can exceed the float range).

    0 when both are 0, infinite when only the exact value is.
    """
    if not exact:
        return Fraction(0) if value == 0 else float("inf")
    return abs(Fraction(value) - exact) / abs(exact)
