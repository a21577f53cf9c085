"""Acceptance suite: every criterion at its stated tolerance, one per test.

All comparisons are exact (integer or Fraction equality); the runtime
budgets are asserted as part of each criterion.  Each test prints a
single PASS line with its elapsed time.
"""

import itertools
import random
import time
from fractions import Fraction

from cocycle_lab.dynamics import MarkerSequence, Odometer, periodic_approx
from cocycle_lab.involution_cocycles import (
    InvolutionCocycle,
    h_approximate,
    recover_generators,
    transport,
    transport_certificate,
    verify_identities,
)
from cocycle_lab.sampling import (
    bernoulli_measure,
    coboundary_generator,
    cylinder_function,
    invariant_family,
    rational,
    small_integer_function,
)
from cocycle_lab.space import (
    BernoulliMeasure,
    CylinderFunction,
    aut_distance,
    exceedance_prefixes,
    measure_of_cylinder_set,
    tau3_functional,
    tau4_functional,
)
from cocycle_lab.values import INTEGERS, RATIONALS, NeighborhoodChain, is_dyadic
from cocycle_lab.zcocycles import ZCocycle, coboundary_solve, density_sequence, gh_check


class budget:
    """Assert the block stays inside its runtime budget and report it."""

    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name}: {elapsed:.1f}s exceeds the {self.seconds}s budget"
            )
            print(f"PASS {self.name} ({elapsed:.2f}s < {self.seconds}s)")
        return False


def test_criterion_1_coboundary_decision_soundness_completeness():
    with budget("criterion 1: coboundary decision, exhaustive + 10000 random", 10):
        bases2 = (2, 2)
        model2 = Odometer.binary(2)
        for table in itertools.product((-1, 0, 1), repeat=4):
            a = ZCocycle(model2, CylinderFunction(bases2, INTEGERS, table))
            certificate = coboundary_solve(a)
            assert (certificate is not None) == (sum(table) == 0)
            if certificate is not None:
                assert certificate.verify()

        rng = random.Random(1001)
        models = {d: Odometer.binary(d) for d in range(1, 6)}
        for case in range(10_000):
            depth = rng.randint(1, 5)
            model = models[depth]
            if case % 5 == 0:
                f = CylinderFunction(
                    model.bases,
                    RATIONALS,
                    tuple(rational(rng, 4, 4) for _ in range(model.size)),
                )
                total = sum(f.table, Fraction(0))
            else:
                f = small_integer_function(rng, model.bases, -3, 3)
                total = sum(f.table)
            certificate = coboundary_solve(ZCocycle(model, f))
            assert (certificate is not None) == (total == 0)
            if certificate is not None:
                assert certificate.verify()


def test_criterion_2_density_with_certified_rate():
    with budget("criterion 2: density rate tau3(F_n, f) <= 2^-n at depth 8", 30):
        depth = 8
        model = Odometer.binary(depth)
        markers = MarkerSequence(model)
        fair = BernoulliMeasure.uniform(model.bases)
        rng = random.Random(1002)
        for _ in range(100):
            f = cylinder_function(rng, model.bases, RATIONALS, span=6)
            a = ZCocycle(model, f)
            f_full = f
            for n in range(1, depth):
                approximant = density_sequence(a, markers, n)
                assert tau3_functional(approximant, f_full, fair) <= Fraction(1, 2**n)
                certificate = coboundary_solve(ZCocycle(model, approximant))
                assert certificate is not None and certificate.verify()


SEEDED_FAMILIES = None


def _families_for_criteria_3_4():
    global SEEDED_FAMILIES
    if SEEDED_FAMILIES is None:
        rng = random.Random(1003)
        SEEDED_FAMILIES = [
            invariant_family(rng, 6, rng.randint(1, 5), RATIONALS) for _ in range(200)
        ]
    return SEEDED_FAMILIES


def test_criterion_3_generator_family_identities():
    with budget("criterion 3: defining identities on 200 families (N<=5, depth 6)", 20):
        for family in _families_for_criteria_3_4():
            check = verify_identities(InvolutionCocycle(family))
            assert check.ok, check.witness


def test_criterion_4_generator_family_roundtrip():
    with budget("criterion 4: recover after eval is the identity on 200 families", 20):
        for family in _families_for_criteria_3_4():
            recovered = recover_generators(
                InvolutionCocycle(family), family.count, family.bases, family.group
            )
            assert recovered.tables == family.tables
            assert recovered.bases == family.bases


def test_criterion_5_dyadic_cohomologous_cocycle():
    with budget("criterion 5: dyadic approximation at eps0=1/4 on 100 families", 30):
        chain = NeighborhoodChain(Fraction(1, 4))
        rng = random.Random(1005)
        for _ in range(100):
            family = invariant_family(rng, 6, rng.randint(1, 4), RATIONALS)
            report = h_approximate(family, chain)
            alpha = InvolutionCocycle(report.family)
            beta = report.beta
            g = report.transfer.table
            size = 1 << 6
            # max |g| <= eps0
            assert max(abs(v) for v in g) <= Fraction(1, 4)
            indices = range(1, family.count + 1)
            for bits in range(1 << family.count):
                word = [n for n in indices if (bits >> (n - 1)) & 1]
                for i in range(size):
                    beta_value = beta.eval_word_index(word, i)
                    assert is_dyadic(beta_value)
                    wi = i ^ bits  # the word flips the digits of bits
                    assert (
                        alpha.eval_word_index(word, i)
                        == g[wi] + beta_value - g[i]
                    )


def test_criterion_6_gh_cross_oracle():
    with budget("criterion 6: bounded-sums test vs exact solver, 1000 cases", 30):
        rng = random.Random(1006)
        cases = []
        m_max = Fraction(0)
        models = {d: Odometer.binary(d) for d in range(1, 6)}
        for _ in range(1000):
            depth = rng.randint(1, 5)
            model = models[depth]
            f = small_integer_function(rng, model.bases, -2, 2)
            a = ZCocycle(model, f)
            certificate = coboundary_solve(a)
            cases.append((a, certificate))
            if certificate is not None and certificate.spread_bound > m_max:
                m_max = Fraction(certificate.spread_bound)
        target = 2 * m_max
        for a, certificate in cases:
            if certificate is not None:
                report = gh_check(a, horizon=4 * a.model.size)
                assert report.decision
                assert report.empirical_sup <= certificate.spread_bound
            else:
                report = gh_check(a, horizon=4 * a.model.size, exceed_target=target)
                assert not report.decision
                assert a.group.norm(report.witness.value.payload) > target


def test_criterion_7_topology_constants():
    with budget("criterion 7: quantitative inclusion constants on 500 tuples", 10):
        rng = random.Random(1007)
        antecedents_a = antecedents_b = 0
        for _ in range(500):
            depth = rng.randint(1, 4)
            bases = (2,) * depth
            f = cylinder_function(rng, bases, RATIONALS, span=4)
            g = f + cylinder_function(rng, bases, RATIONALS, span=2)
            mu = bernoulli_measure(rng, bases)
            eps = Fraction(rng.randint(1, 12), 12)  # the tau3 constant needs eps <= 1
            delta = Fraction(rng.randint(1, 12), 12)
            exceed = measure_of_cylinder_set(mu, exceedance_prefixes(f, g, eps))
            if tau3_functional(f, g, mu) < eps * delta:
                antecedents_a += 1
                assert exceed < delta
            if tau4_functional(f, g, mu) < eps * delta / (1 + eps):
                antecedents_b += 1
                assert exceed < delta
        # the implications were exercised, not vacuously true
        assert antecedents_a > 50 and antecedents_b > 50


def test_criterion_8_uniform_topology_convergence():
    with budget("criterion 8: aut_distance(P_n, T) = 2^-n at depth 10", 10):
        model = Odometer.binary(10)
        markers = MarkerSequence(model)
        fair = BernoulliMeasure.uniform(model.bases)
        for n in range(1, 10):
            p = periodic_approx(model, markers.marker_indices(n))
            assert aut_distance(p, model, fair) == Fraction(1, 2**n)


def test_criterion_9_transport_invariance():
    with budget("criterion 9: transported coboundaries stay certified, 100 rotations", 10):
        rng = random.Random(1009)
        model = Odometer.binary(5)
        size = model.size
        for _ in range(100):
            r = rng.randrange(size)
            rotation = tuple((i + r) % size for i in range(size))
            f, _ = coboundary_generator(rng, model.bases, RATIONALS)
            a = ZCocycle(model, f)
            certificate = coboundary_solve(a)
            assert certificate is not None
            moved = transport(a, rotation)
            assert moved.cycle_sum.payload == a.cycle_sum.payload == 0
            moved_certificate = transport_certificate(certificate, rotation)
            assert moved_certificate.verify()
            # the transported cocycle solves on its own, with the same transfer
            direct = coboundary_solve(moved)
            assert direct is not None
            assert direct.transfer.table == moved_certificate.transfer.table
            # cycle sums are preserved for arbitrary generators too
            g = cylinder_function(rng, model.bases, RATIONALS)
            b = ZCocycle(model, g)
            assert transport(b, rotation).cycle_sum.payload == b.cycle_sum.payload
