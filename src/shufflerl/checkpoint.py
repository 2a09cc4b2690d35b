"""Checkpoint serialization.

A checkpoint is a directory holding ``manifest.json`` (architecture,
tensor shapes, seed, code version, free-form metadata) and ``params.bin``,
a flat little-endian float64 blob of every tensor in manifest order.
Trainable parameters and batch-norm running statistics are both stored, so
a loaded network evaluates identically to the saved one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from shufflerl import __version__
from shufflerl.errors import ShuffleRlError
from shufflerl.nn import ActorCritic, ArchSpec

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
FORMAT_VERSION = 1

_DTYPE = np.dtype("<f8")


def _all_tensors(net: ActorCritic) -> list[tuple[str, np.ndarray, bool]]:
    tensors = [(name, arr, True) for name, arr in net.named_parameters()]
    tensors += [(name, arr, False) for name, arr in net.named_buffers()]
    return tensors


def blob_size(manifest: dict) -> int:
    """Bytes of the blob that the manifest's tensor shapes imply."""
    return sum(int(np.prod(e["shape"])) for e in manifest["tensors"]) * _DTYPE.itemsize


def save_checkpoint(directory, net: ActorCritic, metadata: dict | None = None) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = _all_tensors(net)
    manifest = {
        "format_version": FORMAT_VERSION,
        "code_version": __version__,
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
    blob = b"".join(np.ascontiguousarray(arr, dtype=_DTYPE).tobytes() for _, arr, _ in tensors)
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (directory / BLOB_NAME).write_bytes(blob)
    return directory


def load_checkpoint(directory) -> tuple[ActorCritic, dict]:
    """Rebuild the network and return it with the full manifest."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise ShuffleRlError(f"no {MANIFEST_NAME} in {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ShuffleRlError(f"unsupported checkpoint format {manifest.get('format_version')}")
    arch = ArchSpec.from_dict(manifest["architecture"])
    net = ActorCritic(
        arch,
        tuple(manifest["observation_shape"]),
        manifest["action_dim"],
        seed=manifest["seed"],
    )
    tensors = _all_tensors(net)
    entries = manifest["tensors"]
    if [e["name"] for e in entries] != [name for name, _, _ in tensors]:
        raise ShuffleRlError("checkpoint tensor list does not match the rebuilt architecture")
    raw = (directory / manifest["blob"]).read_bytes()
    expected = blob_size(manifest)
    if len(raw) != expected:
        raise ShuffleRlError(f"blob size {len(raw)} != expected {expected}")
    offset = 0
    for entry, (name, arr, _) in zip(entries, tensors):
        shape = tuple(entry["shape"])
        if shape != arr.shape:
            raise ShuffleRlError(f"tensor {name}: manifest shape {shape} != model shape {arr.shape}")
        count = int(np.prod(shape))
        values = np.frombuffer(raw, dtype=_DTYPE, count=count, offset=offset).reshape(shape)
        arr[...] = values
        offset += count * _DTYPE.itemsize
    return net, manifest
