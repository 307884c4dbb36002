"""Level-ground tracking: one tuning trial, start to finish.

A prosthetic knee starts with a randomly detuned impedance set.  Four
actor-critic blocks, one per gait phase, adjust the per-phase stiffness,
damping and equilibrium angle once per gait cycle until the knee's phase
durations and peak angles track the intact knee's within the published
tolerance bounds (8 of 10 consecutive cycles per phase).
"""

import numpy as np

from kneetrack import TrialConfig, run_trial

cfg = TrialConfig()
record = run_trial(cfg, seed=7)

print(f"outcome: {record.outcome}")
print(f"tuning steps (gait cycles to convergence): {record.tuning_steps}")
print(f"safety resets along the way: {record.resets}")
print(f"learning-rate ceiling violations: {record.monitor_violations}")
print(f"weight growth vs initialization: {record.max_weight_ratio:.1f}x")
print()
print(f"peak-angle RMS error: {record.rms_initial['peak_rad']:.4f} rad "
      f"-> {record.rms_final['peak_rad']:.4f} rad")
print(f"duration RMS error:   {record.rms_initial['duration_pct']:.2f}% "
      f"-> {record.rms_final['duration_pct']:.2f}% of gait cycle")
print()

print("per-phase convergence cycle:", record.converged_at)
print()

print("peak-angle tracking error by phase (every 20th cycle, radians):")
# the log holds one row per phase and cycle: (cycles, 4) after a reshape
d_peak = record.column("d_peak_rad").reshape(-1, 4)
in_tolerance = record.column("in_tolerance").reshape(-1, 4)
print(f"{'cycle':>6} {'STF':>8} {'STE':>8} {'SWF':>8} {'SWE':>8}  in-tolerance")
for k in range(0, record.cycles_run, 20):
    tol = "".join("y" if flag else "." for flag in in_tolerance[k])
    print(f"{k:>6} " + " ".join(f"{err:+.4f}" for err in d_peak[k]) + f"  {tol}")
