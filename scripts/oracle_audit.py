#!/usr/bin/env python3
"""Cross-validate the sideband solver against time-domain integration.

For each selected preset: seed the integrator on the stable branch, drive it
with a weak signal, demodulate the settled tail and compare the extracted
upper-sideband amplitudes a+, sigma+, w+ and q+ against the linear-solve
backend; w+ and q+ are the mechanical channel behind the induced absorption.
The lower sidebands a- and sigma- are compared from the same demodulation
where the linear solve puts them at or above 1e-8 |a+|; below that floor the
demodulated value is integration and projection noise, and the line says
``below floor`` instead.  Also reports the linearity defect of a+ when the
signal amplitude is doubled.

Usage: python scripts/oracle_audit.py [preset ...]
(default: every preset with a pump, ep0 != 0)

Exits 0 when every deviation is below 1e-3, 2 when one is not, and 1 with an
``error:`` line for an unknown preset or one without a pump (its default
signal es0 = 1e-3*ep0 is then zero; use ``qdr oracle-check --param es0=...``).
"""
import sys
import time

from qdresponse.errors import BadConfig, UnknownFigure
from qdresponse.model import default_signal_amplitude
from qdresponse.oracle import (
    demodulate_sidebands,
    integrate_mean_field,
    max_step,
    relative_deviation,
    steady_state_vector,
)
from qdresponse.presets import figure_ids, get_preset
from qdresponse.response import solve_sidebands
from qdresponse.steady import Stability, solve_steady_branches

#: A lower sideband is gated where the linear solve gives it at least this
#: fraction of |a+|.
LOWER_FLOOR = 1e-8


def audit(figure_id: str) -> float:
    preset = get_preset(figure_id)
    p = preset.params.replace(delta0=preset.oracle_delta0)
    p = p.replace(es0=default_signal_amplitude(p))
    if p.es0 == 0.0:
        raise BadConfig(f"preset {figure_id} has no pump, so its signal "
                        "es0 = 1e-3*ep0 is 0; use qdr oracle-check --preset "
                        f"{figure_id} --param es0=VALUE")
    stable = [b for b in solve_steady_branches(p)
              if b.stability is Stability.STABLE]
    branch = min(stable, key=lambda b: b.w0)
    dt = min(0.01, max_step(p))
    init = steady_state_vector(branch)
    t0 = time.perf_counter()
    one = demodulate_sidebands(
        integrate_mean_field(p, init, 260.0, dt, es0=p.es0), p.delta0)
    two = demodulate_sidebands(
        integrate_mean_field(p, init, 260.0, dt, es0=2.0 * p.es0), p.delta0)
    elapsed = time.perf_counter() - t0
    bands = solve_sidebands(p, branch)
    floor = LOWER_FLOOR * abs(bands.a_plus)
    devs = {name: relative_deviation(got, want)
            if name[-1] == "+" or abs(want) >= floor else None
            for name, got, want in (
                ("a+", one.a_plus, bands.a_plus),
                ("sigma+", one.sigma_plus, bands.sigma_plus),
                ("w+", one.w_plus, bands.sigmaz_plus),
                ("q+", one.q_plus, bands.q_plus),
                ("a-", one.a_minus, bands.a_minus),
                ("sigma-", one.sigma_minus, bands.sigma_minus))}
    lin = abs(two.a_plus / one.a_plus - 2.0)
    print(f"{figure_id:>4}  delta0={p.delta0:6.2f}  "
          + "  ".join(f"{name} below floor" if dev is None else f"{name} dev={dev:.3e}"
                      for name, dev in devs.items())
          + f"  linearity defect={lin:.3e}  ({elapsed:.1f}s)")
    return max(dev for dev in (*devs.values(), lin) if dev is not None)


def main() -> int:
    ids = sys.argv[1:] or [fid for fid in figure_ids()
                           if get_preset(fid).params.ep0 != 0.0]
    try:
        worst = max(audit(fid) for fid in ids)
    except (BadConfig, UnknownFigure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"worst deviation: {worst:.3e}")
    return 0 if worst < 1e-3 else 2


if __name__ == "__main__":
    sys.exit(main())
