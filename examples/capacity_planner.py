"""Capacity planning with the analytic model (no simulation required).

Given a dataset size and a batch window, the closed-form bottleneck
model (`repro.analysis`) answers "how many disks do I need, on which
architecture, and what does it cost?" in microseconds per configuration
— then a single discrete-event simulation verifies the chosen design
point. This is the workflow the paper's Section 2 guidelines imply,
automated.

Run:  python examples/capacity_planner.py
"""

from repro.analysis import analyze, configuration_price
from repro.experiments import config_for, run_task

TASK = "sort"            # the hardest task in the suite
WINDOW_SECONDS = 600.0   # finish a full-dataset sort within 10 minutes
SIZES = (16, 32, 48, 64, 96, 128)
SCALE = 1 / 16           # of the verifying simulation
#: The closed form assumes perfect pipeline overlap, so it is
#: optimistic; plan with headroom and let the simulator confirm.
SAFETY_MARGIN = 0.70


def plan(arch):
    """Smallest configuration meeting the window, per the closed form."""
    for disks in SIZES:
        estimate = analyze(config_for(arch, disks), TASK, scale=1.0)
        if estimate.seconds <= WINDOW_SECONDS * SAFETY_MARGIN:
            return disks, estimate
    return None, None


def main():
    print(f"goal: full-scale {TASK} (16 GB) within {WINDOW_SECONDS:.0f}s\n")
    print(f"{'arch':8s} {'disks':>5s} {'est. time':>10s} "
          f"{'bottleneck':>14s} {'price':>12s}")
    chosen = {}
    for arch in ("active", "cluster", "smp"):
        disks, estimate = plan(arch)
        if disks is None:
            print(f"{arch:8s}  does not meet the window at any size")
            continue
        config = config_for(arch, disks)
        price = configuration_price(config)
        chosen[arch] = (disks, estimate)
        print(f"{arch:8s} {disks:5d} {estimate.seconds:9.1f}s "
              f"{estimate.phases[0].bottleneck:>14s} ${price:>11,.0f}")

    arch, (disks, estimate) = min(
        chosen.items(),
        key=lambda kv: configuration_price(config_for(kv[0], kv[1][0])))
    print(f"\ncheapest plan: {arch} with {disks} disks — verifying by "
          f"simulation at scale {SCALE:g}...")
    result = run_task(config_for(arch, disks), TASK, scale=SCALE)
    simulated_full = result.elapsed / SCALE
    print(f"simulated: {simulated_full:.1f}s full-scale-equivalent "
          f"(analytic said {estimate.seconds:.1f}s)")
    verdict = "fits" if simulated_full <= WINDOW_SECONDS else "misses"
    print(f"the plan {verdict} the {WINDOW_SECONDS:.0f}s window.")


if __name__ == "__main__":
    main()
