"""Every value the golden corpus pins, against its 50-digit reference.

Each full-precision run of ``golden_cli.json`` is read back and measured in
ulps against ``reference_mp``, which shares no code with bellsim.  One
budget holds per route: a closed form and an oracle evaluate a formula at
the printed settings, a search result sits below (or a rounding above) the
exact maximum.  A seeded sample of settings measures each public closed form
the same way, against a budget of its own.  ``PYTHONPATH=src:tests python
tests/test_reference.py [samples]`` prints both tables.

The budgets were set from these measurements before the closed forms became
correlation-tensor contractions, and are not widened to pass: a value that
leaves its budget calls for a more accurate form.
"""

import csv
import io
import json
import math
import pathlib
import sys

import numpy as np
import pytest

import reference_mp as ref
from bellsim import (chsh_coherent, chsh_gisin, chsh_phi0_phase, chsh_phi0_polar,
                     chsh_rstate, chsh_spin_j, chsh_squeezed, mermin3_ghz, mermin4_ghz)

CORPUS = pathlib.Path(__file__).with_name("golden_cli.json")
FULL = " --precision 17 --format json"
# largest |distance| in ulps of the double spacing at the reference, per
# route: the largest distance measured before the tensor forms, rounded up to
# a half ulp
BUDGET = {"closed": 5.5, "oracle": 2.0, "search": 6.5}
# settings per closed form in the Tier-1 sample; only |reference| >= 0.5 counts
SAMPLE = 100


def _two_qubit(amplitudes):
    return ref.correlation_matrix(amplitudes)


def _spin_groups(settings):
    k = len(settings) // 4
    return [settings[i * k:(i + 1) * k] for i in range(4)]


def exact_max(scenario, params):
    """The scenario's largest |value|, for a search report."""
    if scenario in ("chsh-phase", "chsh-polar"):
        return ref.horodecki_max(_two_qubit(ref.bell_amplitudes(0)))
    if scenario == "product-state":
        return ref.horodecki_max(_two_qubit(ref.r_amplitudes(0)))
    if scenario == "gisin":
        return ref.horodecki_max(_two_qubit(ref.gisin_amplitudes(params["n"])))
    if scenario == "r-state":
        return ref.horodecki_max(_two_qubit(ref.r_amplitudes(params["r"])))
    if scenario.startswith("spin-"):
        return ref.spin_max(params["j"])
    if scenario == "squeezed":
        return ref.squeezed_max(params["lam"])
    if scenario == "coherent":
        return ref.coherent_max(params["eta"], params["sigma"], params["phi"])
    return ref.mermin_max(int(scenario.removeprefix("mermin")))


def evaluated(scenario, params, s):
    """The value a closed form or oracle report names at its settings ``s``.
    An oracle at a Fock cutoff drops a tail far below one ulp at every
    corpus setting, so the untruncated formula is its reference too."""
    if scenario == "chsh-phase":
        return ref.phase_chsh(_two_qubit(ref.bell_amplitudes(0)), *s)
    if scenario == "chsh-oracle":
        return ref.phase_chsh(_two_qubit(ref.bell_amplitudes(params["bell_index"])), *s)
    if scenario == "chsh-polar":
        return ref.polar_chsh(_two_qubit(ref.bell_amplitudes(0)), *s)
    if scenario.startswith("spin-"):
        return ref.spin_chsh(params["j"], *_spin_groups(s))
    if scenario.startswith("coherent"):
        return ref.coherent_chsh(params["eta"], params["sigma"], params["phi"], *s)
    if scenario.startswith("squeezed"):
        return ref.squeezed_chsh(params["lam"], *s)
    if scenario == "mermin3":
        return ref.mermin3(*s)
    if scenario == "mermin3-oracle":  # (|+++> - |--->)/sqrt(2): minus the closed form
        return -ref.mermin3(*s)
    if scenario in ("mermin4", "mermin4-oracle"):
        return ref.mermin4(*s)
    raise KeyError(scenario)


def golden_distances():
    """(command, route, value, reference, ulps) for every pinned value."""
    corpus = json.loads(CORPUS.read_text())
    rows = []
    for command, record in sorted(corpus.items()):
        if not command.endswith(FULL) or record["code"] != 0 or command.startswith("lhv"):
            continue
        text = record.get("file", record["stdout"])
        if command.startswith("gisin"):
            table = (json.loads(text)["rows"] if text.lstrip().startswith("{")
                     else list(csv.DictReader(io.StringIO(text))))
            for row in table:
                n = int(row["n"])
                value, exact = float(row["value"]), exact_max("gisin", {"n": n})
                rows.append((f"{command} [n={n}]", "search", value, exact,
                             ref.ulps(value, exact)))
            continue
        report = json.loads(text)
        if "--optimize" in command or command.startswith("optimize"):
            route = "search"
            expected = exact_max(report["scenario"], report["params"])
            value = abs(report["value"])
        else:
            # --bell-index 1 to 3 takes the matrix route without --oracle
            route = "oracle" if report["scenario"].endswith("-oracle") else "closed"
            expected = evaluated(report["scenario"], report["params"], report["settings"])
            value = report["value"]
        rows.append((command, route, value, expected, ref.ulps(value, expected)))
    return rows


def _table(rows):
    return "\n".join(f"{d:+8.2f}  {route:<6}  {float(expected):.17g}  {name}"
                     for name, route, _, expected, d in rows)


def test_golden_values_within_their_ulp_budgets():
    rows = golden_distances()
    # every full-precision run but lhv's exact mean and the guard failure,
    # a gisin table row by row
    assert len(rows) == 38
    print("\nulps   route   reference  run\n" + _table(rows))
    over = [row for row in rows if not abs(row[4]) <= BUDGET[row[1]]]
    assert not over, "outside the budget:\n" + _table(over)


def _polar_reference(amplitudes):
    t = _two_qubit(amplitudes)
    return lambda *p: ref.polar_chsh(t, *p)


def _spin(j):
    """chsh_spin_j and its reference on 4 k phases, k = the (m, -m) pairs."""
    k = (int(2 * j) + 1) // 2
    return (lambda *p: chsh_spin_j(j, *(np.array(p[i * k:(i + 1) * k]) for i in range(4))),
            lambda *p: ref.spin_chsh(j, *_spin_groups(p)), [PHASE] * (4 * k))


PHASE, POLAR = (0.0, 2 * math.pi), [(0.0, math.pi)] * 4 + [(0.0, 2 * math.pi)] * 4
BELL0 = _two_qubit(ref.bell_amplitudes(0))
# each public closed form: (form of angles, reference, angle ranges)
SAMPLED_FORMS = {
    "chsh-phase": (chsh_phi0_phase, lambda *p: ref.phase_chsh(BELL0, *p), [PHASE] * 4),
    "chsh-polar": (chsh_phi0_polar, lambda *p: ref.polar_chsh(BELL0, *p), POLAR),
    "gisin-3": (lambda *p: chsh_gisin(3, *p), _polar_reference(ref.gisin_amplitudes(3)),
                POLAR),
    "gisin-5": (lambda *p: chsh_gisin(5, *p), _polar_reference(ref.gisin_amplitudes(5)),
                POLAR),
    "r-state-0.5": (lambda *p: chsh_rstate(0.5, *p), _polar_reference(ref.r_amplitudes(0.5)),
                    POLAR),
    "spin-1.5": _spin(1.5),
    "spin-2": _spin(2),
    "squeezed-0.6": (lambda *p: chsh_squeezed(0.6, *p),
                     lambda *p: ref.squeezed_chsh(0.6, *p), [PHASE] * 4),
    "coherent": (lambda *p: chsh_coherent(0.4, 0.7, 2.0, *p),
                 lambda *p: ref.coherent_chsh(0.4, 0.7, 2.0, *p), [PHASE] * 4),
    "mermin3": (mermin3_ghz, ref.mermin3, [PHASE] * 6),
    "mermin4": (mermin4_ghz, ref.mermin4, [PHASE] * 8),
}
# largest |distance| in ulps per form: the largest of the angle forms over
# 1000 seeded settings, rounded up to a half ulp
SAMPLE_BUDGET = {"chsh-phase": 19.5, "chsh-polar": 10.0, "gisin-3": 4.5, "gisin-5": 7.0,
                 "r-state-0.5": 5.0, "spin-1.5": 6.0, "spin-2": 5.5, "squeezed-0.6": 18.5,
                 "coherent": 5.0, "mermin3": 27.0, "mermin4": 41.0}


def sampled_distances(name, count, seed=13):
    """ulps of the form ``name`` at the first ``count`` seeded settings whose
    reference is at least 0.5 in magnitude."""
    form, reference, ranges = SAMPLED_FORMS[name]
    rng = np.random.default_rng(seed)
    lo, hi = np.array(ranges).T
    out = []
    while len(out) < count:
        p = rng.uniform(lo, hi).tolist()
        expected = reference(*p)
        if abs(expected) >= 0.5:
            out.append(ref.ulps(float(form(*p)), expected))
    return np.array(out)


def test_sampled_forms_have_budgets():
    assert set(SAMPLE_BUDGET) == set(SAMPLED_FORMS)


@pytest.mark.parametrize("name", SAMPLED_FORMS)
def test_closed_form_sample_within_its_budget(name):
    distances = sampled_distances(name, SAMPLE)
    assert np.abs(distances).max() <= SAMPLE_BUDGET[name]


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    print("ulps   route   reference  run\n" + _table(golden_distances()))
    print(f"\nclosed forms at {count} seeded settings with |reference| >= 0.5:")
    for name in SAMPLED_FORMS:
        d = np.abs(sampled_distances(name, count))
        print(f"{name:>14}  max |ulps| {d.max():6.2f}  mean {d.mean():5.2f}  "
              f"budget {SAMPLE_BUDGET[name]}")
