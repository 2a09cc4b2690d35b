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
default.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from shufflerl import __version__
from shufflerl.errors import ShuffleRlError
from shufflerl.nn import ActorCritic, ArchSpec
from shufflerl.runconfig import read_section

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


def blob_size(manifest: dict) -> int:
    """Bytes of the blob that the manifest's tensor shapes imply."""
    return sum(int(np.prod(e["shape"])) for e in manifest["tensors"]) * _dtype(manifest).itemsize


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
    blob = b"".join(np.ascontiguousarray(arr, dtype=dtype).tobytes() for _, arr, _ in tensors)
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
    arch = read_section("checkpoint architecture", ArchSpec, manifest.get("architecture"))
    dtype = _dtype(manifest)
    net = ActorCritic(
        arch,
        tuple(manifest["observation_shape"]),
        manifest["action_dim"],
        seed=manifest["seed"],
        dtype=dtype,
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
        values = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape)
        arr[...] = values
        offset += count * dtype.itemsize
    return net, manifest
