"""The torque-law knee: gait features emerging from joint dynamics.

The second plant integrates the impedance torque law through a full
four-phase cycle of a single-joint knee: each phase's stiffness pulls the
joint toward that phase's equilibrium angle, damping shapes the speed,
and per-phase load biases stand in for body weight and gravity.  Phase
durations and peak angles are then read off the trajectory, exactly the
features the tuner consumes.
"""

import numpy as np

from kneetrack import OdeKneeConfig, OdeKneePlant
from kneetrack.fsm import joint_torque

# one row per phase: stiffness (N*m/rad), damping (N*m*s/rad), equilibrium (rad)
imp = np.array([
    [20.0, 1.0, 0.60],   # stance flexion: yield under load
    [20.0, 1.0, 0.15],   # stance extension: straighten
    [20.0, 1.0, 1.00],   # swing flexion: clear the ground
    [20.0, 1.0, 0.12],   # swing extension: prepare heel strike
])

print("the torque law at a few operating points (stance flexion triple):")
stf = imp[0]
for angle, velocity in ((0.60, 0.0), (0.30, 0.0), (0.30, 1.5), (0.80, -1.0)):
    torque = joint_torque(stf, angle, velocity)
    print(f"  angle={angle:.2f} rad, velocity={velocity:+.1f} rad/s "
          f"-> torque {torque:+.2f} N*m")

plant = OdeKneePlant(OdeKneeConfig())
print("\nper-phase gait features over three integrated cycles:")
for cycle in range(3):
    out = plant.step(imp)
    line = " | ".join(f"{n}: {f.duration:.2f}s peak {f.peak_angle:.3f} rad"
                      for n, f in zip(("STF", "STE", "SWF", "SWE"), out))
    print(f"  cycle {cycle}: {line}")

softer = imp.copy()
softer[:, 1] = 3.0
heavy = OdeKneePlant(OdeKneeConfig()).step(softer)
base = OdeKneePlant(OdeKneeConfig()).step(imp)
print("\ntripling the damping lengthens the cycle: "
      f"{sum(f.duration for f in base):.2f}s -> "
      f"{sum(f.duration for f in heavy):.2f}s")
