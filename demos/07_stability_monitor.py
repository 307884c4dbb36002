"""Learning-rate ceilings: the stability monitor at work.

Each cycle, the monitor evaluates closed-form ceilings on the two
learning rates out of the current network activations; staying below them
keeps the weight errors ultimately bounded.  By default the monitor only
logs violations.  Strict mode halts the trial instead, which is what you
want while hunting for a safe configuration.
"""

import numpy as np

from kneetrack import DhdpConfig, TrialConfig, run_trial

record = run_trial(TrialConfig(), seed=7)
# safety-reset cycles do not learn, so their rows carry no ceilings
bounds_c = record.column("critic_bound")[~record.missing("critic_bound")]
bounds_a = record.column("actor_bound")[~record.missing("actor_bound")]
cfg = TrialConfig()
print("default rates vs observed ceilings over one successful trial:")
print(f"  critic rate {cfg.dhdp.critic_lr} vs ceiling min {min(bounds_c):.2f} "
      f"/ median {np.median(bounds_c):.1f}")
print(f"  actor rate {cfg.dhdp.actor_lr} vs ceiling min {min(bounds_a):.2f} "
      f"/ median {np.median(bounds_a):.1f}")
print(f"  violations: {record.monitor_violations}, "
      f"weight growth {record.max_weight_ratio:.1f}x")

hot = TrialConfig(strict_monitor=True,
                  dhdp=DhdpConfig(critic_lr=1e9, actor_lr=1e9))
halted = run_trial(hot, seed=7)
print("\nabsurd rates under --strict-monitor:")
print(f"  outcome: {halted.outcome} ({halted.failure_reason}) "
      f"after {halted.cycles_run} cycle(s)")
