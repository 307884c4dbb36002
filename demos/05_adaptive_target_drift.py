"""A target that moves with the wearer: intact-knee adaptation drift.

People adapt their intact-side gait while the prosthesis is being tuned.
With a positive drift gain, the trial loop low-pass filters the
prosthetic tracking error into a slow shift of the intact-knee targets,
so the controller chases a target that responds to its own progress.
"""

from kneetrack import TrialConfig, run_trial

for gain in (0.0, 0.1):
    cfg = TrialConfig(drift_gain=gain)
    record = run_trial(cfg, seed=6)
    label = f"drift gain {gain}"
    steps = record.tuning_steps if record.success else "did not converge"
    print(f"{label}: outcome={record.outcome}, steps={steps}, "
          f"resets={record.resets}")
    swing_flexion = record.column("d_peak_rad")[2::4]  # phase 3 of every cycle
    print(f"  swing-flexion peak error: {swing_flexion[0]:+.4f} rad at start, "
          f"{swing_flexion[-1]:+.4f} rad at end")
print()
print("with drift on, the intact profile shifts a little toward the")
print("prosthesis while the prosthesis converges toward the profile;")
print("the tuner still closes the loop on the moving target")
