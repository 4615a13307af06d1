"""Acceptance gate: one test per headline guarantee, at stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) summarizing the worst observed margin.
"""

import math

import numpy as np

from phaseineq.classical import (
    certified_rate_bound,
    death_entropy_rate,
    geometric_pmf,
)
from phaseineq.fisher import quantum_fisher
from phaseineq.fock_core import (
    StateFamily,
    entropy_power,
    fock_rearrangement,
    majorizes,
    mean_photon,
    random_state,
    relative_entropy,
    thermal_state,
)
from phaseineq.gaussian import (
    ClassicalOUParams,
    cou_step,
    g_entropy,
    h_function,
    relent_to_qou_fixed,
    thermal_fisher_closed,
    thermal_j_pm,
    thermal_mean,
    zeta_optimality_witness,
)
from phaseineq.semigroups import (
    QOU,
    Amplifier,
    Attenuator,
    Heat,
    entropy_rate,
    evolve,
    relent_decay_rate,
)
from phaseineq.verify import entropy_threshold, photon_threshold, run_suite

TWO_PI_E = 2.0 * math.pi * math.e
FOUR_PI_E = 4.0 * math.pi * math.e


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_fisher_entropy_power_tightness():
    n = 100.0
    prod = thermal_fisher_closed(n) * math.exp(g_entropy(n))
    closed_ok = abs(prod / FOUR_PI_E - 1.0) <= 1e-2
    worst = math.inf
    for seed in range(50):
        rho = random_state(128, seed, StateFamily.FULL_RANK)
        val = quantum_fisher(rho).value * entropy_power(rho)
        worst = min(worst, val - (FOUR_PI_E - 0.1))
    ok = closed_ok and worst >= 0.0
    _report(1, ok, f"J*N at n=100 = {prod:.4f} (target {FOUR_PI_E:.4f}); "
                   f"worst random slack above 4*pi*e - 0.1: {worst:.4f}")


def test_criterion_02_fisher_isoperimetric_ratio():
    n = 100.0
    ratio = 1.0 / (n * (n + 1.0) * math.log(1.0 + 1.0 / n) ** 2)
    closed_ok = abs(ratio - 1.0) <= 1e-4
    # Numeric forward-difference slope of 2/J along heat flow on omega_4.
    n4 = 4.0
    target = 1.0 / (n4 * (n4 + 1.0) * math.log(1.0 + 1.0 / n4) ** 2)
    h = 5e-3
    rho = thermal_state(n4, 128)
    j0 = quantum_fisher(rho).value
    jh = quantum_fisher(evolve(rho, Heat(), h)).value
    slope = (2.0 / jh - 2.0 / j0) / h
    numeric_ok = abs(slope / target - 1.0) <= 0.02
    _report(2, closed_ok and numeric_ok,
            f"ratio(100) = {ratio:.6f}; numeric slope on omega_4 = {slope:.5f} "
            f"vs closed {target:.5f}")


def test_criterion_03_stam_inequality():
    # The stam suite's random cases: 20 states x 3 times of f_Z at dim 128.
    report = run_suite("stam", cases=20)
    margins = [c.margin for c in report.cases if c.descriptor == "stam-random"]
    assert len(margins) == 60
    worst = min(margins)
    _report(3, worst >= -1e-3,
            f"worst Stam margin over 20 states x 3 times: {worst:.3e}")


def test_criterion_04_entropy_power_inequality():
    worst_closed = math.inf
    for n in (0.5, 1.0, 2.0):
        for t in (0.05, 0.1, 0.5):
            margin = (math.exp(g_entropy(n + 2.0 * math.pi * t))
                      - math.exp(g_entropy(n)) - TWO_PI_E * t)
            worst_closed = min(worst_closed, margin)
    worst_rand = math.inf
    for seed in range(10):
        rho = random_state(128, seed, StateFamily.FULL_RANK)
        n0 = entropy_power(rho)
        state, prev = rho, 0.0
        for t in (0.05, 0.1):
            state = evolve(state, Heat(), t - prev)
            prev = t
            worst_rand = min(worst_rand,
                             entropy_power(state) - n0 - TWO_PI_E * t)
    slope = (math.exp(g_entropy(1.0 + 8.0 * math.pi))
             - math.exp(g_entropy(1.0 + 4.0 * math.pi))) / 2.0
    slope_ok = abs(slope / TWO_PI_E - 1.0) <= 1e-2
    ok = worst_closed >= -1e-3 and worst_rand >= -1e-2 and slope_ok
    _report(4, ok, f"worst closed margin {worst_closed:.3e}, worst random "
                   f"margin {worst_rand:.3e}, asymptotic slope {slope:.4f} "
                   f"(target {TWO_PI_E:.4f})")


def test_criterion_05_de_bruijn_identity():
    worst = 0.0
    states = [thermal_state(n, 128) for n in (0.5, 1.0, 2.0, 4.0)]
    states += [random_state(128, seed, StateFamily.FULL_RANK)
               for seed in range(10)]
    for rho in states:
        j = quantum_fisher(rho).value
        rate = entropy_rate(rho, Heat())
        worst = max(worst, abs(rate - j) / j)
    _report(5, worst <= 1e-12,
            f"worst relative de Bruijn deviation: {worst:.3e}")


def test_criterion_06_entropy_power_concavity():
    h = 5e-3
    worst = -math.inf
    for n in (0.5, 1.0, 2.0, 4.0):
        vals = [math.exp(g_entropy(n + 2.0 * math.pi * k * h)) for k in range(3)]
        worst = max(worst, (vals[2] - 2.0 * vals[1] + vals[0]) / h**2)
    for seed in range(10):
        rho = random_state(128, seed, StateFamily.FULL_RANK)
        n0 = entropy_power(rho)
        r1 = evolve(rho, Heat(), h)
        n1 = entropy_power(r1)
        n2 = entropy_power(evolve(r1, Heat(), h))
        worst = max(worst, (n2 - 2.0 * n1 + n0) / h**2)
    _report(6, worst <= 1e-3,
            f"largest second difference of N along heat flow: {worst:.3e}")


def test_criterion_07_attenuator_fock_majorization():
    worst_major = math.inf
    worst_photon = -math.inf
    for seed in range(100):
        rho = random_state(12, seed, StateFamily.FULL_RANK)
        arranged = fock_rearrangement(rho)
        worst_photon = max(worst_photon,
                           mean_photon(arranged) - mean_photon(rho))
        ev, ev_arr, prev = rho, arranged, 0.0
        for t in (0.1, 0.5, 1.0):
            ev = evolve(ev, Attenuator(), t - prev)
            ev_arr = evolve(ev_arr, Attenuator(), t - prev)
            prev = t
            margins = majorizes(ev_arr, ev)
            worst_major = min(worst_major, float(margins.min()))
    ok = worst_major >= -1e-10 and worst_photon <= 1e-10
    _report(7, ok, f"worst majorization margin {worst_major:.3e}; largest "
                   f"rearrangement photon excess {worst_photon:.3e}")


def test_criterion_08_geometric_optimality():
    # J_-(geometric) and the certified lower bound bracket the constrained
    # minimum; the bracket must sit at the closed form.
    worst_bracket = 0.0
    worst_fock = 0.0
    ordered = True
    for n in (0.5, 1.0, 2.0):
        closed = -2.0 * n * math.log(1.0 + 1.0 / n)
        bound = certified_rate_bound(n, 64)
        j_geo = death_entropy_rate(geometric_pmf(n, 64))
        ordered = ordered and bound <= j_geo
        worst_bracket = max(worst_bracket, abs(bound - closed),
                            abs(j_geo - closed))
        rate = entropy_rate(thermal_state(n, 128), Attenuator())
        worst_fock = max(worst_fock, abs(0.5 * rate - 0.5 * closed))
    ok = ordered and worst_bracket <= 1e-8 and worst_fock <= 1e-3
    _report(8, ok, f"worst certified bracket {worst_bracket:.3e}; worst "
                   f"Fock-side rate gap {worst_fock:.3e}")


def test_criterion_09_thresholds():
    photon = photon_threshold()
    entropy = entropy_threshold()
    ok = 0.66 <= photon <= 0.68 and 2.0 <= entropy <= 2.2
    _report(9, ok, f"photon threshold {photon:.4f} (target 0.67), entropy "
                   f"threshold {entropy:.4f} (target 2.06; the 2.4 quoted "
                   f"elsewhere is recorded, not asserted)")


def test_criterion_10_rate_decay_identity():
    mu, lam = math.sqrt(2.0), 1.0
    zeta = mu**2 - lam**2
    sigma = thermal_state(lam**2 / zeta, 64)
    worst = 0.0
    states = [thermal_state(2.0, 64)]
    states += [random_state(64, seed, StateFamily.DIAGONAL) for seed in range(5)]
    for rho in states:
        lhs, rhs = relent_decay_rate(rho, QOU(mu, lam))
        target = -(zeta * relative_entropy(rho, sigma) + rhs)
        worst = max(worst, abs(lhs - target) / max(abs(target), 1e-12))
    _report(10, worst <= 1e-3,
            f"worst relative identity deviation: {worst:.3e}")


def test_criterion_11_qou_h_function_and_rate():
    mu, lam = math.sqrt(2.0), 1.0
    zeta = mu**2 - lam**2
    kind = QOU(mu, lam)
    h_min = h_function(kind.n_fixed, kind)
    min_ok = abs(h_min) <= 1e-12
    rng = np.random.default_rng(0)
    worst_h = math.inf
    for _ in range(20):
        m = 1.0 + rng.uniform(0.05, 3.0)
        l = rng.uniform(0.1, m - 0.05)
        for n in np.geomspace(1e-3, 1e3, 200):
            worst_h = min(worst_h, h_function(float(n), QOU(m, l)))
    # Gaussian decay rate along the qOU flow of thermal states (closed form).
    worst_rate = -math.inf
    dt = 1e-6
    for n in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        def d_of(t):
            nt = thermal_mean(n, kind, t)
            return relent_to_qou_fixed(nt - kind.n_fixed, kind)
        ddot = (d_of(dt) - d_of(0.0)) / dt
        worst_rate = max(worst_rate, ddot - (-zeta * d_of(0.0)))
    witness = zeta_optimality_witness(kind, 0.5)
    ok = (min_ok and worst_h >= -1e-12 and worst_rate <= 1e-6
          and witness is not None)
    _report(11, ok, f"h(n*) = {h_min:.2e}; min h on grids {worst_h:.2e}; "
                    f"worst rate slack {worst_rate:.2e}; witness n = {witness}")


def test_criterion_12_classical_ou_rate():
    worst = math.inf
    for theta in (0.1, 1.0, 3.0):
        for sigma2 in (0.5, 2.0):
            params = ClassicalOUParams(theta, sigma2)
            for var0 in (1e-3, 0.1, 1.0, 10.0, 1e3):
                for t in (0.0, 0.1, 1.0, 5.0):
                    _, _, margin = cou_step(params, var0, t)
                    worst = min(worst, margin)
    _, relent, margin = cou_step(ClassicalOUParams(1.0, 2.0), 1e6, 0.0)
    ratio = margin / relent
    ok = worst >= -1e-12 and ratio <= 1e-3
    _report(12, ok, f"worst OU margin {worst:.3e}; margin/D at var0=1e6: "
                    f"{ratio:.3e}")


def test_criterion_13_amplifier_rate_lower_bound():
    worst = math.inf
    for kappa in np.geomspace(1.001, 1e3, 50):
        for z in np.geomspace(1.0, 10.0, 50):
            _, j_plus = thermal_j_pm((float(kappa) - 1.0) / 2.0, float(z))
            worst = min(worst, j_plus)
    worst_num = math.inf
    states = [thermal_state(n, 128) for n in (0.5, 1.0, 2.0, 4.0)]
    states += [random_state(128, seed, StateFamily.FULL_RANK)
               for seed in range(5)]
    for rho in states:
        worst_num = min(worst_num, entropy_rate(rho, Amplifier()))
    ok = worst >= 2.0 - 1e-2 and worst_num >= 2.0 - 1e-2
    _report(13, ok, f"min closed-form J_+ on grid: {worst:.4f}; min numeric "
                    f"amplifier rate: {worst_num:.4f}")


def test_classical_correspondence_cross_check():
    # Supporting check tying the classical death process to the Fock-side
    # attenuator rate (shared by criteria 8 and 10 machinery).
    worst = 0.0
    for n in (0.5, 1.0, 2.0):
        closed = -2.0 * n * math.log(1.0 + 1.0 / n)
        j_class = death_entropy_rate(geometric_pmf(n, 256))
        worst = max(worst, abs(j_class - closed) / abs(closed))
    assert worst <= 1e-6
