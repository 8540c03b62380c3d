"""Readers and writers of the package's CSV files that only the tests use.

Built on the package's one CSV reader and writer (`data.read_csv`,
`data.exact_header`, `data.write_csv`), so they follow the same rules as
every reader the package ships.
"""
from datetime import datetime, timezone

import numpy as np

from dgcrn.data import exact_header, read_csv, write_csv

REPORT_HEADER = ["model", "horizon", "mae", "rmse", "mape", "n_observed"]
LOG_HEADER = ["epoch", "train_mae", "val_mae", "val_rmse", "val_mape",
              "seconds", "horizon_i", "ss_prob"]


def _typed(*kinds):
    return lambda row: tuple(kind(v) for kind, v in zip(kinds, row))


def load_report_csv(path):
    """`report.csv` rows as (model, horizon, mae, rmse, mape, n) tuples."""
    return read_csv(path, exact_header(REPORT_HEADER),
                    _typed(str, int, float, float, float, int))


def load_training_log(path):
    """`training_log.csv` rows as tuples in the header's order."""
    return read_csv(path, exact_header(LOG_HEADER),
                    _typed(int, float, float, float, float, float, int, float))


def write_speed_csv(series, path):
    """`timestamp,<node...>` rows with ISO-8601 UTC stamps; missing entries
    are left empty."""
    def stamp(ts):
        return datetime.fromtimestamp(int(ts), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")

    write_csv(path, ["timestamp"] + [str(i) for i in range(series.n_nodes)],
              ([stamp(ts)] + ["" if not np.isfinite(v) else repr(float(v)) for v in row]
               for ts, row in zip(series.timestamps(), series.values)))
