"""Closed-loop cruise control on 17 cells, with a mid-run fault.

The driver ramps the target up to 63, the vehicle settles at 60, and
pressing Set latches that speed.  A permanent fault then lands in the
throttle-scaling cell while cruising; healing completes inside one
control period, so the speed trajectory never deviates from the
fault-free run.  With matplotlib installed the trajectories are saved
as a PNG next to this script.
"""

from pathlib import Path

from cellfab.report import metrics
from cellfab.scenarios import load_scenario
from cellfab.sim import run_raw

golden = run_raw(load_scenario("ccs_step"))
faulted = run_raw(load_scenario("ccs_fc16_permanent"))


def speeds(run):
    """(time, speed) at each clock after 0: the clock's last sample of the plant input."""
    signal = f"in.{run.scenario.plant.input_name}"
    return list({r.time: r.value for r in run.trace.records
                 if r.signal == signal and r.time > 0}.items())


golden_speed, faulted_speed = speeds(golden), speeds(faulted)
speed = dict(golden_speed)
target = {r.time // 1000: r.value for r in golden.trace.records
          if r.signal == "active" and r.annotation == "data"}
print("period   target   speed")
for k in (10, 40, 63, 100, 170, 172, 220, 299):
    print(f"{k:6d}   {target.get(k, 0):6d}   {speed.get(k * 1000, 0):5d}")

syndrome = metrics(faulted.trace).syndromes[0]
print(f"\nfault in cell {syndrome.cell} detected {syndrome.detect_time} ns, "
      f"restored {syndrome.restore_time} ns (within one 1000 ns period)")

diverged = [t for t, v in golden_speed if dict(faulted_speed).get(t) != v]
print(f"speed samples differing from the fault-free run: {len(diverged)}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ts = [t / 1000 for t, _ in golden_speed]
    plt.figure(figsize=(9, 4))
    plt.plot(ts, [v for _, v in golden_speed], label="speed (fault-free)")
    plt.plot(ts, [v for _, v in faulted_speed], ":", label="speed (fault healed)")
    plt.plot(sorted(target), [target[k] for k in sorted(target)], label="target")
    plt.axvline(syndrome.detect_time / 1000, color="red", alpha=0.4, label="fault")
    plt.xlabel("control period")
    plt.ylabel("speed units")
    plt.legend()
    out = Path(__file__).parent / "cruise_control.png"
    plt.savefig(out, dpi=120, bbox_inches="tight")
    print(f"plot saved to {out}")
except ImportError:
    print("matplotlib not installed; skipping the plot")
