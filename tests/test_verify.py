"""The ``pump-formula`` and ``mass-bound`` checks of ``verify`` run the
arithmetic the vertex stage of ``straighten`` runs, and the complex checks
run the oracles: a fault planted in either shows as failures."""

import numpy as np

from vkit import oracles, persistence, verify
from vkit.thickening import pump_rows


def test_pump_formula_checks_the_rows_straighten_pumps(monkeypatch):
    assert verify.check_pump_formula(np.random.default_rng(1), 20).failures == 0

    def nudged(weights, phi):
        out = pump_rows(weights, phi)
        r, x = np.argwhere(out > 0.0)[0]
        out[r, x] = np.nextafter(out[r, x], np.inf)
        return out

    monkeypatch.setattr(verify, "pump_rows", nudged)
    assert verify.check_pump_formula(np.random.default_rng(1), 20).failures > 0


def test_mass_bound_checks_the_sum_straighten_takes(monkeypatch):
    assert verify.check_mass_bound(np.random.default_rng(1), 20).failures == 0
    draw, instances = verify.mass_bound_instance, []

    def recorded(rng):
        instances.append(draw(rng))
        return instances[-1]

    def at_the_bound(rows, cols):
        _, sets, p = instances[-1]
        return np.full(len(rows), 1.0 - len(sets) * (1.0 - p))

    monkeypatch.setattr(verify, "mass_bound_instance", recorded)
    monkeypatch.setattr(verify, "_fsums", at_the_bound)
    assert verify.check_mass_bound(np.random.default_rng(1), 20).failures > 0


def test_persistence_oracle_catches_a_rank_that_skips_a_column(monkeypatch):
    assert verify.check_persistence_oracle(np.random.default_rng(1), 20).failures == 0
    rank = persistence._gf2_rank
    monkeypatch.setattr(persistence, "_gf2_rank", lambda columns: rank(columns[:-1]))
    assert verify.check_persistence_oracle(np.random.default_rng(1), 20).failures > 0


def test_vr_bruteforce_catches_a_scan_of_consecutive_pairs(monkeypatch):
    assert verify.check_vr_bruteforce(np.random.default_rng(1), 20).failures == 0
    monkeypatch.setattr(oracles, "vr_subset_scan", lambda space, r, k_max: oracles._subset_scan(
        space, r, k_max, lambda D, sub: max([D[i][j] for i, j in zip(sub, sub[1:])], default=0.0)))
    assert verify.check_vr_bruteforce(np.random.default_rng(1), 20).failures > 0


def test_cech_interleave_catches_witnesses_only_inside_the_subset(monkeypatch):
    assert verify.check_cech_interleaving(np.random.default_rng(1), 20).failures == 0
    monkeypatch.setattr(oracles, "cech_subset_scan", lambda space, r, k_max: oracles._subset_scan(
        space, r, k_max, lambda D, sub: min(max(D[z][x] for x in sub) for z in sub)))
    assert verify.check_cech_interleaving(np.random.default_rng(1), 20).failures > 0
