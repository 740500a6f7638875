"""Shared helpers: streaming replay of a simulated dataset through a smoother."""

import numpy as np

from raloc import io as rio
from raloc.factors import RangeMeasurement
from raloc.ufls import Ufls


def record_to_measurement(rec: rio.RangeRecord) -> RangeMeasurement:
    return RangeMeasurement(rec.stamp, rec.anchor_id, rec.range_m, rec.sigma_m)


def replay_ufls(dataset, ufls: Ufls, tick_rate: float | None = None):
    """Feed records in stamp order, firing update ticks between records.

    A tick at stamp t runs only after every record with stamp <= t has been
    ingested, mirroring a real-time pipeline where the update at t happens
    once the sensor streams have advanced past t.
    """
    rate = tick_rate if tick_rate is not None else ufls._config.update_rate
    estimates = []
    accepted = {}
    next_tick = None
    last_odom = None

    def fire(limit):
        nonlocal next_tick
        while next_tick is not None and next_tick <= limit + 1e-9:
            est = ufls.update(next_tick)
            if est is not None:
                estimates.append(est)
            next_tick += 1.0 / rate

    for rec in dataset.merged_records():
        if isinstance(rec, rio.OdomRecord):
            if next_tick is None:
                next_tick = rec.stamp
            fire(min(rec.stamp - 1e-6, last_odom if last_odom is not None else -np.inf))
            ufls.ingest_odometry(next(rio.odometry_samples([rec])))
            last_odom = rec.stamp
        else:
            fire(min(rec.stamp - 1e-6, last_odom if last_odom is not None else -np.inf))
            accepted[(rec.stamp, rec.anchor_id)] = ufls.ingest_range(
                record_to_measurement(rec)
            )
    fire(last_odom)
    return estimates, accepted
