"""A deployment-style campaign: tune one kernel for a whole device fleet.

`PortabilityCampaign` runs the auto-tuner on every device, records every
measurement in a persistent store, and prints the matrix a deployment
engineer wants: per-device tuned times plus the cost of shipping any
single configuration fleet-wide (the Fig. 1 story, for your kernel).

Run:  python examples/portability_campaign.py
"""

import tempfile
from pathlib import Path

from repro.core.campaign import PortabilityCampaign
from repro.core.results import MeasurementDB
from repro.kernels import ConvolutionKernel


def main() -> None:
    spec = ConvolutionKernel()
    db_path = Path(tempfile.gettempdir()) / "repro_campaign.json"
    db = MeasurementDB(db_path)

    campaign = PortabilityCampaign(
        spec,
        devices=("intel", "nvidia", "amd"),
        n_train=600, m_candidates=60,
        db=db,
    )
    print(f"tuning {spec.name} across 3 devices "
          f"({spec.space.size} configurations each) ...\n")
    result = campaign.run(seed=8)
    print(result.report())
    print(f"\n{len(db)} measurements persisted to {db_path}")

    # The single-config compromise: if you had to ship ONE configuration,
    # the best choice minimizes the worst transplant penalty -- and is
    # still far worse than per-device tuning.
    devices = list(result.results)
    best_compromise, best_worst = None, float("inf")
    for source in devices:
        worst = max(
            (result.slowdown(t, source) for t in devices),
            key=lambda v: (v != v, v),  # NaN sorts worst
        )
        if worst == worst and worst < best_worst:
            best_compromise, best_worst = source, worst
    if best_compromise is not None:
        print(
            f"\nshipping one config fleet-wide: best compromise is the "
            f"{best_compromise}-tuned one, still {best_worst:.1f}x slower "
            "somewhere - the paper's case for automatic per-device re-tuning."
        )


if __name__ == "__main__":
    main()
