"""Run configuration: strict JSON schema with explicit defaults.

The keys and value types of the env, ppo and arch sections are the fields
of ``EnvConfig``, ``PpoConfig`` and ``ArchSpec``. Unknown keys are rejected
(with a did-you-mean hint) rather than ignored, and the fully resolved
configuration is dumped into every run manifest so a manifest alone
reproduces a run.
"""

from __future__ import annotations

import difflib
import json
import types
import typing
from dataclasses import dataclass, fields as dataclass_fields
from datetime import date
from pathlib import Path

from shufflerl.archive import dataset_fingerprint, load_archive
from shufflerl.data import SYNTH_DRIFT, SYNTH_VOLATILITY, MarketDataset, generate_synthetic_market, split_by_date
from shufflerl.env import EnvConfig
from shufflerl.errors import ConfigError, DataError, ShuffleRlError
from shufflerl.nn import ArchSpec
from shufflerl.ppo import AGENT_KINDS, AgentSpec, PpoConfig


def _fields(cls, *excluded: str) -> dict:
    """A config dataclass's fields, minus ``excluded``, mapped to their type hints."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclass_fields(cls) if f.name not in excluded}


# The permutation is derived from the agent, the seed comes from `seeds`, the
# kind from the agent, and head_gain is fixed.
_ENV_KEYS = _fields(EnvConfig, "permutation")
_PPO_KEYS = _fields(PpoConfig, "seed")
_ARCH_KEYS = _fields(ArchSpec, "kind", "head_gain")

_SYNTH_KEYS = {"source": str, "seed": int, "tickers": int, "days": int, "drift": float, "volatility": float}
_ARCHIVE_KEYS = {"source": str, "path": str}
_SPLIT_KEYS = {"boundary": str, "train_fraction": float}
_TOP_KEYS = ("dataset", "env", "ppo", "agent", "agents", "seeds", "split", "out")


def _reject_unknown(section: str, data: dict, allowed) -> None:
    for key in data:
        if key not in allowed:
            hints = difflib.get_close_matches(key, list(allowed), n=1)
            suffix = f"; did you mean {hints[0]!r}?" if hints else ""
            raise ConfigError(f"unknown key {key!r} in {section}{suffix}")


def _value(where: str, value, hint):
    """``value`` read as type ``hint``: an int passes as a float but a bool
    never as an int, ``X | None`` also takes null, and a ``tuple[...]`` takes
    a list of the right length, checked entry by entry and returned as a tuple."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return _value(where, value, hint)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} entries, got {len(value)}")
        return tuple(_value(f"{where}[{i}]", v, arg) for i, (v, arg) in enumerate(zip(value, args)))
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, bool) and hint is not bool or not isinstance(value, hint):
        raise ConfigError(f"{where}: expected {hint.__name__}, got {type(value).__name__}")
    return value


def _typed(section: str, data: dict, schema: dict) -> dict:
    _reject_unknown(section, data, schema)
    return {key: _value(f"{section}.{key}", value, schema[key]) for key, value in data.items()}


def _build(section: str, cls, data, schema: dict, **fixed):
    """``cls`` built from a JSON object typed by ``schema``; a value its own
    checks reject is a config error."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be an object")
    values = _typed(section, data, schema)
    try:
        return cls(**fixed, **values)
    except ShuffleRlError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def parse_env_config(section: str, data) -> EnvConfig:
    """An env section, such as a checkpoint's, checked as in a run config."""
    return _build(section, EnvConfig, data, _ENV_KEYS)


@dataclass(frozen=True)
class DatasetSpec:
    source: str  # "synthetic" | "archive"
    params: dict

    def to_dict(self) -> dict:
        return {"source": self.source, **self.params}


@dataclass(frozen=True)
class SplitSpec:
    boundary: str | None = None
    train_fraction: float | None = None

    def to_dict(self) -> dict:
        if self.boundary is not None:
            return {"boundary": self.boundary}
        return {"train_fraction": self.train_fraction}


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSpec
    env: EnvConfig
    ppo: PpoConfig  # seed field is a placeholder; per-run seeds come from `seeds`
    agents: tuple[AgentSpec, ...]
    seeds: tuple[int, ...]
    split: SplitSpec | None
    out: str | None

    def resolved_dict(self) -> dict:
        """Full configuration with every default made explicit."""
        return {
            "dataset": self.dataset.to_dict(),
            "env": {key: getattr(self.env, key) for key in _ENV_KEYS},
            "ppo": {key: getattr(self.ppo, key) for key in _PPO_KEYS},
            "agents": [
                {"kind": agent.kind, "arch": agent.resolve_arch().to_dict()} for agent in self.agents
            ],
            "seeds": list(self.seeds),
            "split": self.split.to_dict() if self.split else None,
            "out": self.out,
        }


def _parse_dataset(data) -> DatasetSpec:
    if not isinstance(data, dict):
        raise ConfigError("dataset section must be an object")
    source = data.get("source")
    if source == "synthetic":
        params = _typed("dataset", data, _SYNTH_KEYS)
        params.pop("source")
        params.setdefault("seed", 0)
        params.setdefault("tickers", 30)
        params.setdefault("days", 500)
        params.setdefault("drift", SYNTH_DRIFT)
        params.setdefault("volatility", SYNTH_VOLATILITY)
        return DatasetSpec("synthetic", params)
    if source == "archive":
        params = _typed("dataset", data, _ARCHIVE_KEYS)
        params.pop("source")
        if "path" not in params:
            raise ConfigError("dataset.path is required for source 'archive'")
        return DatasetSpec("archive", params)
    raise ConfigError(f"dataset.source must be 'synthetic' or 'archive', got {source!r}")


def _parse_agent(section: str, data) -> AgentSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be an object")
    _reject_unknown(section, data, ("kind", "arch"))
    kind = data.get("kind")
    if kind not in AGENT_KINDS:
        raise ConfigError(f"{section}.kind must be one of {AGENT_KINDS}, got {kind!r}")
    extractor_kind = AgentSpec(kind=kind).extractor_kind
    arch = None
    if "arch" in data:
        arch = _build(f"{section}.arch", ArchSpec, data["arch"], _ARCH_KEYS, kind=extractor_kind)
    return AgentSpec(kind=kind, arch=arch)


def _parse_split(data) -> SplitSpec:
    if not isinstance(data, dict):
        raise ConfigError("split section must be an object")
    fields = _typed("split", data, _SPLIT_KEYS)
    if ("boundary" in fields) == ("train_fraction" in fields):
        raise ConfigError("split needs exactly one of 'boundary' or 'train_fraction'")
    if "boundary" in fields:
        try:
            date.fromisoformat(fields["boundary"])
        except ValueError:
            raise ConfigError(f"split.boundary is not an ISO-8601 date: {fields['boundary']!r}") from None
        return SplitSpec(boundary=fields["boundary"])
    fraction = fields["train_fraction"]
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"split.train_fraction must be in (0, 1), got {fraction}")
    return SplitSpec(train_fraction=fraction)


def parse_run_config(data: dict, require_comparison: bool = False) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("run config must be a JSON object")
    _reject_unknown("run config", data, _TOP_KEYS)
    if "dataset" not in data:
        raise ConfigError("run config needs a 'dataset' section")
    dataset = _parse_dataset(data["dataset"])

    env = parse_env_config("env", data.get("env", {}))
    ppo = _build("ppo", PpoConfig, data.get("ppo", {}), _PPO_KEYS)

    if "agent" in data and "agents" in data:
        raise ConfigError("give either 'agent' or 'agents', not both")
    if "agents" in data:
        if not isinstance(data["agents"], list):
            raise ConfigError("agents must be a list")
        agents = tuple(_parse_agent(f"agents[{i}]", a) for i, a in enumerate(data["agents"]))
    elif "agent" in data:
        agents = (_parse_agent("agent", data["agent"]),)
    else:
        raise ConfigError("run config needs an 'agent' (or 'agents') section")
    if require_comparison and len(agents) < 2:
        raise ConfigError(f"comparison needs at least 2 agents, got {len(agents)}")
    names = [a.kind for a in agents]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate agent kinds in 'agents': {names}")

    seeds = data.get("seeds", [0, 1, 2])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError("seeds must be a non-empty list of ints")

    split = _parse_split(data["split"]) if data.get("split") is not None else None

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")

    return RunConfig(
        dataset=dataset,
        env=env,
        ppo=ppo,
        agents=agents,
        seeds=tuple(seeds),
        split=split,
        out=out,
    )


def load_run_config(path, require_comparison: bool = False) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_run_config(data, require_comparison=require_comparison)


def materialize_dataset(spec: DatasetSpec) -> tuple[MarketDataset, str]:
    """Build or load the dataset and return it with its fingerprint."""
    if spec.source == "archive":
        dataset, metadata = load_archive(spec.params["path"])
        return dataset, metadata["fingerprint"]
    dataset = generate_synthetic_market(**spec.params)
    # Synthetic data is fully determined by its parameters.
    blob = json.dumps(spec.to_dict(), sort_keys=True).encode()
    return dataset, dataset_fingerprint(blob, b"")


def resolve_split(dataset: MarketDataset, split: SplitSpec | None) -> tuple[MarketDataset, MarketDataset | None]:
    """Apply a split spec; (full dataset, None) when no split is configured."""
    if split is None:
        return dataset, None
    if split.boundary is not None:
        boundary = date.fromisoformat(split.boundary)
        return split_by_date(dataset, boundary)
    cut = round(split.train_fraction * dataset.n_days)
    if not 1 <= cut < dataset.n_days:
        raise DataError(
            f"train_fraction {split.train_fraction} leaves an empty side on {dataset.n_days} days"
        )
    return split_by_date(dataset, dataset.days[cut])
