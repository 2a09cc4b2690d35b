"""Run configuration: strict JSON schema with explicit defaults.

The keys and value types of the dataset, env, ppo, arch and split sections
are the fields of ``SyntheticMarket`` or ``ArchiveSource``, ``EnvConfig``,
``PpoConfig``, ``ArchSpec`` and ``SplitSpec``, and the dataclasses check
their own values. Unknown keys are rejected (with a did-you-mean hint)
rather than ignored. ``read_section`` is the one typed reader: the run
config, a checkpoint's architecture and the metadata that ``evaluate``
reads back all go through it. The fully resolved configuration is dumped
into every run manifest, and that ``config`` re-parses to the same
``RunConfig``, so a manifest alone reproduces a run.
"""

from __future__ import annotations

import difflib
import json
import types
import typing
from dataclasses import asdict, dataclass, fields as dataclass_fields
from datetime import date
from pathlib import Path

from shufflerl.archive import dataset_fingerprint, load_archive, market_csvs
from shufflerl.data import MarketDataset, SyntheticMarket, generate_synthetic_market, split_by_date
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

_TOP_KEYS = ("dataset", "env", "ppo", "agent", "agents", "seeds", "split", "out")


def _reject_unknown(section: str, data: dict, allowed) -> None:
    for key in data:
        if key not in allowed:
            hints = difflib.get_close_matches(key, list(allowed), n=1)
            suffix = f"; did you mean {hints[0]!r}?" if hints else ""
            raise ConfigError(f"unknown key {key!r} in {section}{suffix}")


def read_value(where: str, value, hint):
    """``value`` read as type ``hint``: an int passes as a float but a bool
    never as an int, ``X | None`` also takes null, and a ``tuple[...]`` takes
    a list of the right length, checked entry by entry and returned as a tuple."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return read_value(where, value, hint)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} entries, got {len(value)}")
        return tuple(read_value(f"{where}[{i}]", v, arg) for i, (v, arg) in enumerate(zip(value, args)))
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, bool) and hint is not bool or not isinstance(value, hint):
        raise ConfigError(f"{where}: expected {hint.__name__}, got {type(value).__name__}")
    return value


def _dumped(config, schema: dict) -> dict:
    return {key: getattr(config, key) for key in schema}


def read_section(section: str, cls, data, schema: dict | None = None, **fixed):
    """``cls`` built from the JSON object ``data`` and the ``fixed`` fields.
    ``schema`` (by default every field of ``cls`` not in ``fixed``) types
    the keys of ``data``; a value that ``cls``'s own checks reject is a
    config error."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be an object")
    schema = _fields(cls, *fixed) if schema is None else schema
    _reject_unknown(section, data, schema)
    values = {key: read_value(f"{section}.{key}", value, schema[key]) for key, value in data.items()}
    try:
        return cls(**fixed, **values)
    except ShuffleRlError as exc:
        raise ConfigError(f"{section}: {exc}") from None


@dataclass(frozen=True)
class ArchiveSource:
    path: str


@dataclass(frozen=True)
class SplitSpec:
    boundary: str | None = None
    train_fraction: float | None = None

    def __post_init__(self):
        if (self.boundary is None) == (self.train_fraction is None):
            raise ShuffleRlError("exactly one of 'boundary' and 'train_fraction' must be set")
        if self.boundary is not None:
            try:
                date.fromisoformat(self.boundary)
            except ValueError:
                raise ShuffleRlError(f"boundary is not an ISO-8601 date: {self.boundary!r}") from None
        elif not 0.0 < self.train_fraction < 1.0:
            raise ShuffleRlError(f"train_fraction must be in (0, 1), got {self.train_fraction}")

    def to_dict(self) -> dict:
        if self.boundary is not None:
            return {"boundary": self.boundary}
        return {"train_fraction": self.train_fraction}


@dataclass(frozen=True)
class RunConfig:
    dataset: SyntheticMarket | ArchiveSource
    env: EnvConfig
    ppo: PpoConfig  # seed field is a placeholder; per-run seeds come from `seeds`
    agents: tuple[AgentSpec, ...]
    seeds: tuple[int, ...]
    split: SplitSpec | None
    out: str | None

    def __post_init__(self):
        # Here rather than in the parser, so that `replace(config, seeds=...)`
        # checks a command-line seed too.
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list of ints")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError(f"seeds must be >= 0, got {list(self.seeds)}")
        if not self.agents:
            raise ConfigError("agents must be a non-empty list")
        names = [a.kind for a in self.agents]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate agent kinds in 'agents': {names}")

    def resolved_dict(self) -> dict:
        """Full configuration with every default made explicit."""
        source = "archive" if isinstance(self.dataset, ArchiveSource) else "synthetic"
        return {
            "dataset": {"source": source, **asdict(self.dataset)},
            "env": _dumped(self.env, _ENV_KEYS),
            "ppo": _dumped(self.ppo, _PPO_KEYS),
            "agents": [
                {"kind": agent.kind, "arch": _dumped(agent.resolve_arch(), _ARCH_KEYS)}
                for agent in self.agents
            ],
            "seeds": list(self.seeds),
            "split": self.split.to_dict() if self.split else None,
            "out": self.out,
        }


def _parse_dataset(data) -> SyntheticMarket | ArchiveSource:
    if not isinstance(data, dict):
        raise ConfigError("dataset section must be an object")
    source = data.get("source")
    fields = {key: value for key, value in data.items() if key != "source"}
    if source == "synthetic":
        return read_section("dataset", SyntheticMarket, fields)
    if source == "archive":
        if "path" not in fields:
            raise ConfigError("dataset.path is required for source 'archive'")
        return read_section("dataset", ArchiveSource, fields)
    raise ConfigError(f"dataset.source must be 'synthetic' or 'archive', got {source!r}")


def _parse_agent(section: str, data) -> AgentSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be an object")
    _reject_unknown(section, data, ("kind", "arch"))
    kind = data.get("kind")
    if kind not in AGENT_KINDS:
        raise ConfigError(f"{section}.kind must be one of {AGENT_KINDS}, got {kind!r}")
    extractor_kind = AgentSpec(kind=kind).extractor_kind
    arch = read_section(f"{section}.arch", ArchSpec, data.get("arch", {}), _ARCH_KEYS, kind=extractor_kind)
    return AgentSpec(kind=kind, arch=arch)


def parse_run_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("run config must be a JSON object")
    _reject_unknown("run config", data, _TOP_KEYS)
    if "dataset" not in data:
        raise ConfigError("run config needs a 'dataset' section")
    dataset = _parse_dataset(data["dataset"])

    env = read_section("env", EnvConfig, data.get("env", {}), _ENV_KEYS)
    ppo = read_section("ppo", PpoConfig, data.get("ppo", {}), _PPO_KEYS)

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

    split = read_section("split", SplitSpec, data["split"]) if data.get("split") is not None else None

    return RunConfig(
        dataset=dataset,
        env=env,
        ppo=ppo,
        agents=agents,
        seeds=read_value("seeds", data.get("seeds", [0, 1, 2]), tuple[int, ...]),
        split=split,
        out=read_value("out", data.get("out"), str | None),
    )


def load_run_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_run_config(data)


def materialize_dataset(spec: SyntheticMarket | ArchiveSource) -> tuple[MarketDataset, str]:
    """Build or load the dataset and return it with its fingerprint."""
    if isinstance(spec, ArchiveSource):
        dataset, metadata = load_archive(spec.path)
        return dataset, metadata["fingerprint"]
    try:
        dataset = generate_synthetic_market(**asdict(spec))
    except DataError as exc:  # a walk that leaves the finite positive range
        raise ConfigError(f"dataset: {exc}") from None
    # The fingerprint an archive of the same market records.
    return dataset, dataset_fingerprint(*market_csvs(dataset))


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
