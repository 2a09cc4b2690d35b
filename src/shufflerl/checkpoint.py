"""Checkpoint serialization.

A checkpoint is a directory holding ``manifest.json`` (architecture,
tensor shapes, seed, code version, a hash of the package sources, the
network's dtype, free-form metadata) and ``params.bin``, a flat
little-endian blob of every tensor in manifest order, in that dtype.
Trainable parameters and batch-norm running statistics are both stored, so
a loaded network is bit-for-bit the saved one. A manifest without a dtype
is read as float64. The architecture is read back through the run
config's typed reader over every ``ArchSpec`` field, so a mistyped or
unknown entry is a ``ConfigError``; a missing ``head_gain`` takes its
default. The seed, observation shape, action count, tensor list and
metadata object are typed the same way, and a missing one, like a manifest
that is not a JSON object or a ``blob`` other than ``params.bin``, is a
``ConfigError`` too. A missing or unreadable manifest or blob is a
``ShuffleRlError``.

Saving streams each tensor to the blob in turn, with no joined copy.
Loading checks the manifest against the rebuilt network and the blob's
exact size before it reads anything, builds the network without drawing
initial weights, and reads each tensor straight into the array that holds
it. Neither changes the format, so every format-1 checkpoint loads.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from shufflerl import __version__
from shufflerl.errors import ConfigError, ShuffleRlError
from shufflerl.nn import ActorCritic, ArchSpec
from shufflerl.runconfig import read_section, read_value

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
FORMAT_VERSION = 1

_DTYPES = ("<f8", "<f4")  # the first is the default of a manifest without one


def source_hash() -> str:
    """sha256 over the names and bytes of this package's ``*.py`` sources."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _dtype(manifest: dict) -> np.dtype:
    name = manifest.get("dtype", _DTYPES[0])
    if name not in _DTYPES:
        raise ShuffleRlError(f"unsupported checkpoint dtype {name!r}")
    return np.dtype(name)


def _all_tensors(net: ActorCritic) -> list[tuple[str, np.ndarray, bool]]:
    tensors = [(name, arr, True) for name, arr in net.named_parameters()]
    tensors += [(name, arr, False) for name, arr in net.named_buffers()]
    return tensors


def save_checkpoint(directory, net: ActorCritic, metadata: dict | None = None) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = _all_tensors(net)
    dtype = net.dtype.newbyteorder("<")
    manifest = {
        "format_version": FORMAT_VERSION,
        "code_version": __version__,
        "source_hash": source_hash(),
        "dtype": dtype.str,
        "seed": net.seed,
        "architecture": net.arch.to_dict(),
        "observation_shape": list(net.obs_shape),
        "action_dim": net.action_dim,
        "tensors": [
            {"name": name, "shape": list(arr.shape), "trainable": trainable}
            for name, arr, trainable in tensors
        ],
        "blob": BLOB_NAME,
        "metadata": metadata or {},
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with open(directory / BLOB_NAME, "wb") as handle:
        for _, arr, _ in tensors:
            handle.write(np.ascontiguousarray(arr, dtype=dtype))  # copies only to convert
    return directory


def _required(record: dict, where: str, key: str, hint):
    """``record[key]`` read as type ``hint``; missing or mistyped is a config error."""
    if key not in record:
        raise ConfigError(f"{where} has no {key!r}")
    return read_value(f"{where}.{key}", record[key], hint)


def _open(directory: Path, name: str):
    """``directory / name`` opened for reading; a missing or unreadable file
    is a ``ShuffleRlError``."""
    try:
        return open(directory / name, "rb")
    except OSError as exc:
        raise ShuffleRlError(f"no readable {name} in {directory} ({exc.strerror})") from None


def load_checkpoint(directory) -> tuple[ActorCritic, dict]:
    """Rebuild the network and return it with the full manifest."""
    directory = Path(directory)
    with _open(directory, MANIFEST_NAME) as handle:
        try:
            manifest = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"checkpoint {MANIFEST_NAME} is not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"checkpoint {MANIFEST_NAME} is not a JSON object")
    version = _required(manifest, "checkpoint", "format_version", int)
    if version != FORMAT_VERSION:
        raise ShuffleRlError(f"unsupported checkpoint format {version}")
    arch = read_section("checkpoint architecture", ArchSpec, manifest.get("architecture"))
    dtype = _dtype(manifest)
    obs_shape = _required(manifest, "checkpoint", "observation_shape", tuple[int, ...])
    action_dim = _required(manifest, "checkpoint", "action_dim", int)
    if min((*obs_shape, action_dim)) < 1:
        raise ConfigError("checkpoint observation_shape and action_dim entries must be >= 1")
    seed = _required(manifest, "checkpoint", "seed", int)
    names, shapes = [], []
    for i, entry in enumerate(_required(manifest, "checkpoint", "tensors", tuple[dict, ...])):
        names.append(_required(entry, f"checkpoint.tensors[{i}]", "name", str))
        shapes.append(_required(entry, f"checkpoint.tensors[{i}]", "shape", tuple[int, ...]))
    _required(manifest, "checkpoint", "metadata", dict)
    blob = _required(manifest, "checkpoint", "blob", str)
    if blob != BLOB_NAME:  # never a file outside the checkpoint directory
        raise ConfigError(f"checkpoint blob must be {BLOB_NAME!r}, got {blob!r}")
    net = ActorCritic(arch, obs_shape, action_dim, seed=seed, dtype=dtype.newbyteorder("="), _draw=False)
    tensors = _all_tensors(net)
    if names != [name for name, _, _ in tensors]:
        raise ShuffleRlError("checkpoint tensor list does not match the rebuilt architecture")
    for name, shape, (_, arr, _) in zip(names, shapes, tensors):
        if shape != arr.shape:
            raise ShuffleRlError(f"tensor {name}: manifest shape {shape} != model shape {arr.shape}")
    with _open(directory, BLOB_NAME) as handle:
        size = os.fstat(handle.fileno()).st_size
        expected = sum(arr.nbytes for _, arr, _ in tensors)
        if size != expected:
            raise ShuffleRlError(f"blob size {size} != expected {expected}")
        for _, arr, _ in tensors:
            if handle.readinto(arr) != arr.nbytes:
                raise ShuffleRlError(f"blob {handle.name} ended early")
            if not dtype.isnative:
                arr.byteswap(inplace=True)
    return net, manifest
