"""The ``pump-formula`` and ``mass-bound`` checks of ``verify`` run the
arithmetic the vertex stage of ``straighten`` runs: a fault planted in it
shows as failures."""

import numpy as np

from vkit import verify
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
