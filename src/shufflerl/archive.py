"""Dataset archives: a directory holding the two normalized CSVs plus JSON
metadata (tickers, date range, content fingerprint).

The on-disk form is deliberately plain text so archives stay inspectable
and diff-able. ``prices.csv`` has one row per (day, ticker). Fundamentals
are written as change rows, the sparse form ``ingest`` accepts: a row for
every ticker on the first day, then a row only where a ticker's ratio
vector changes. Loading re-runs the CSV parsers and the forward-fill
alignment, which rebuilds the dense grid, so a round trip reproduces the
dataset exactly. Archives written with a row for every (day, ticker) load
the same way, and their recorded fingerprints still verify.

``market_csvs`` gives those two CSVs' bytes without writing them, so a
synthetic market built from a run config and the archive ``synth`` writes
with the same parameters have one fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from shufflerl.data import (
    RATIO_COLUMNS,
    MarketDataset,
    align_forward_fill,
    load_fundamentals,
    load_prices,
    render_csv,
)
from shufflerl.errors import DataError

PRICES_NAME = "prices.csv"
FUNDAMENTALS_NAME = "fundamentals.csv"
METADATA_NAME = "metadata.json"


def dataset_fingerprint(prices_bytes: bytes, fundamentals_bytes: bytes) -> str:
    digest = hashlib.sha256()
    digest.update(prices_bytes)
    digest.update(fundamentals_bytes)
    return f"sha256:{digest.hexdigest()}"


def market_csvs(dataset: MarketDataset) -> tuple[bytes, bytes]:
    """The ``prices.csv`` and ``fundamentals.csv`` bytes an archive of
    ``dataset`` holds; their fingerprint is the market's identity."""
    days = [day.isoformat() for day in dataset.days]
    tickers = dataset.tickers
    prices = render_csv(
        ["date", "ticker", "close"],
        ([day, ticker, price]
         for day, row in zip(days, dataset.close.tolist())
         for ticker, price in zip(tickers, row)),
    )
    # A ticker's ratios get a row on the first day and on each day they
    # change. Bit patterns are compared so that 0.0 -> -0.0 counts as a change.
    bits = dataset.ratios.view(np.int64)
    changed = np.ones((dataset.n_days, len(tickers)), dtype=bool)
    changed[1:] = np.any(bits[1:] != bits[:-1], axis=1)
    fundamentals = render_csv(
        ["date", "ticker", *RATIO_COLUMNS],
        ([days[di], tickers[ti], *dataset.ratios[di, :, ti].tolist()]
         for di, ti in zip(*np.nonzero(changed))),
    )
    return prices, fundamentals


def save_archive(dataset: MarketDataset, directory) -> dict:
    """Write the archive and return its metadata dict."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    prices, fundamentals = market_csvs(dataset)
    (directory / PRICES_NAME).write_bytes(prices)
    (directory / FUNDAMENTALS_NAME).write_bytes(fundamentals)
    fingerprint = dataset_fingerprint(prices, fundamentals)
    metadata = {
        "tickers": list(dataset.tickers),
        "n_days": dataset.n_days,
        "first_day": dataset.days[0].isoformat(),
        "last_day": dataset.days[-1].isoformat(),
        "fingerprint": fingerprint,
    }
    (directory / METADATA_NAME).write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    return metadata


def load_archive(directory) -> tuple[MarketDataset, dict]:
    """Re-ingest an archive, verifying its recorded fingerprint. A missing
    or unreadable file, and a metadata file that is not a JSON object, are
    data errors."""
    directory = Path(directory)
    prices_path = directory / PRICES_NAME
    fundamentals_path = directory / FUNDAMENTALS_NAME
    try:
        metadata = json.loads((directory / METADATA_NAME).read_bytes())
        fingerprint = dataset_fingerprint(prices_path.read_bytes(), fundamentals_path.read_bytes())
    except OSError as exc:
        raise DataError(f"cannot read archive file: {exc.strerror}", source=exc.filename) from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataError(f"{METADATA_NAME} is not valid JSON ({exc})", source=str(directory)) from None
    if not isinstance(metadata, dict):
        raise DataError(f"{METADATA_NAME} is not a JSON object", source=str(directory))
    if fingerprint != metadata.get("fingerprint"):
        raise DataError(
            f"archive content does not match its fingerprint "
            f"(recorded {metadata.get('fingerprint')}, actual {fingerprint})",
            source=str(directory),
        )
    dataset = align_forward_fill(load_prices(prices_path), load_fundamentals(fundamentals_path))
    return dataset, metadata
