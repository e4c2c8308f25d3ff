"""Experiment: proactive scrub period sensitivity.

The studied systems verify all disks hourly (§2.5), so failures are
detected within about an hour of occurring — that lag is why the Fig. 9
CDFs "do not start from the zero point."  This sweep varies the scrub
period and checks two consequences: the detection-lag floor moves with
it, and slower detection raises the RAID data-loss rate (rebuilds start
later, widening the multi-failure overlap window).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.base import ExperimentContext, ExperimentResult, register
from repro.failures.injector import InjectorConfig
from repro.raid.dataloss import estimate_dataloss
from repro.units import SECONDS_PER_HOUR


@register("sweep-scrub", "Sensitivity: proactive scrub (detection) period")
def run(context: ExperimentContext) -> ExperimentResult:
    """Sweep the scrub period: 1 h (paper) vs 8 h vs 48 h."""
    lag_mean: Dict[float, float] = {}
    loss_rate: Dict[float, float] = {}
    for hours in (1.0, 8.0, 48.0):
        dataset = context.simulate(
            InjectorConfig(detection_lag_max_seconds=hours * SECONDS_PER_HOUR)
        )
        table = dataset.table
        lags = table.detect_time - table.occur_time
        lag_mean[hours] = float(lags.mean())
        loss_rate[hours] = estimate_dataloss(
            dataset
        ).loss_rate_per_1000_group_years()

    ordered_lags = [lag_mean[key] for key in sorted(lag_mean)]
    ordered_loss = [loss_rate[key] for key in sorted(loss_rate)]
    checks = {
        # Uniform detection lag means ~period/2 on average.
        "hourly_scrub_lag_half_hour": abs(lag_mean[1.0] - 1800.0) < 300.0,
        "lag_scales_with_period": ordered_lags == sorted(ordered_lags),
        # Slower detection widens overlap windows -> more data loss.
        "loss_rate_grows_with_period": ordered_loss[-1] >= ordered_loss[0],
    }
    text = "Scrub-period sensitivity\n" + "\n".join(
        "  period %4.0f h -> mean detection lag %6.0f s, data loss %.2f "
        "per 1000 group-years" % (key, lag_mean[key], loss_rate[key])
        for key in sorted(lag_mean)
    )
    return ExperimentResult(
        experiment_id="sweep-scrub",
        title="Sensitivity: proactive scrub (detection) period",
        text=text,
        data={"lag_mean": lag_mean, "loss_rate": loss_rate},
        checks=checks,
    )
