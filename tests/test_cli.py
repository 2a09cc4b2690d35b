import csv
import dataclasses
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import make_dataset
from shufflerl import cli
from shufflerl.archive import load_archive, save_archive
from shufflerl.checkpoint import save_checkpoint
from shufflerl.cli import main
from shufflerl.data import RATIO_COLUMNS, RATIO_COUNT, generate_synthetic_market
from shufflerl.env import EnvConfig
from shufflerl.errors import ConfigError, DataError
from shufflerl.ppo import PpoConfig
from shufflerl.runconfig import parse_run_config, resolve_split


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2))


def base_config(archive_path, out=None, agent=None, agents=None, seeds=(0,)):
    config = {
        "dataset": {"source": "archive", "path": str(archive_path)},
        "env": {"window_length": 4, "turbulence_lookback": None, "initial_balance": 10000.0},
        "ppo": {
            "total_timesteps": 32,
            "rollout_length": 16,
            "minibatch_size": 8,
            "epochs_per_update": 2,
        },
        "seeds": list(seeds),
    }
    if agent is not None:
        config["agent"] = agent
    if agents is not None:
        config["agents"] = agents
    if out is not None:
        config["out"] = str(out)
    return config


MLP_AGENT = {"kind": "mlp", "arch": {"mlp_hidden": [4, 4]}}
CNN_AGENT = {
    "kind": "cnn",
    "arch": {"conv_channels": [2, 2], "conv_kernels": [[2, 4], [2, 4]],
             "conv_strides": [[1, 2], [1, 2]], "embed_dim": 4},
}
SHUFFLED_AGENT = {**CNN_AGENT, "kind": "cnn-shuffled"}


@pytest.fixture
def archive(tmp_path):
    dataset = generate_synthetic_market(seed=5, tickers=2, days=24, drift=0.001, volatility=0.01)
    save_archive(dataset, tmp_path / "arch")
    return tmp_path / "arch"


class TestArchive:
    def test_round_trip_exact(self, tmp_path):
        dataset = generate_synthetic_market(seed=7, tickers=3, days=70)
        metadata = save_archive(dataset, tmp_path / "a")
        loaded, loaded_meta = load_archive(tmp_path / "a")
        assert loaded.tickers == dataset.tickers
        assert loaded.days == dataset.days
        np.testing.assert_array_equal(loaded.close, dataset.close)
        np.testing.assert_array_equal(loaded.ratios, dataset.ratios)
        assert loaded_meta["fingerprint"] == metadata["fingerprint"]

    def test_round_trip_keeps_order_past_100_tickers(self, tmp_path):
        # Loading sorts ticker names, so they must sort in index order.
        dataset = generate_synthetic_market(seed=7, tickers=101, days=5)
        save_archive(dataset, tmp_path / "a")
        loaded, _ = load_archive(tmp_path / "a")
        assert loaded.tickers == dataset.tickers
        assert loaded.close.tobytes() == dataset.close.tobytes()
        assert loaded.ratios.tobytes() == dataset.ratios.tobytes()
        # Markets of up to 100 tickers keep their two-digit names.
        assert (dataset.tickers[0], dataset.tickers[-1]) == ("SYN000", "SYN100")
        assert generate_synthetic_market(seed=7, tickers=100, days=2).tickers[-1] == "SYN99"

    def test_change_rows_round_trip_bytes(self, tmp_path):
        ratios = np.ones((8, RATIO_COUNT, 3))
        ratios[3:6, :, 0] = 2.0  # T00 changes on day 3 and returns to 1.0 on day 6
        ratios[:, :, 1] = 0.0
        ratios[4:, 5, 1] = -0.0  # T01: 0.0 -> -0.0 on day 4, equal under ==
        ratios[7, 0, 2] = 0.5  # T02 changes on the last day only
        dataset = make_dataset(np.full((8, 3), 10.0), ratios)
        save_archive(dataset, tmp_path / "a")
        loaded, _ = load_archive(tmp_path / "a")
        assert loaded.ratios.tobytes() == dataset.ratios.tobytes()
        assert loaded.close.tobytes() == dataset.close.tobytes()
        with open(tmp_path / "a" / "fundamentals.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        written = [(row[0], row[1]) for row in rows]
        days = [day.isoformat() for day in dataset.days]
        assert written == [
            (days[0], "T00"), (days[0], "T01"), (days[0], "T02"),
            (days[3], "T00"), (days[4], "T01"), (days[6], "T00"), (days[7], "T02"),
        ]

    def test_dense_archive_still_loads(self, tmp_path):
        """An archive written with one fundamentals row per (day, ticker)
        verifies its recorded fingerprint and loads to the same dataset."""
        dataset = generate_synthetic_market(seed=7, tickers=3, days=70)
        dense = tmp_path / "dense"
        dense.mkdir()
        with open(dense / "prices.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["date", "ticker", "close"])
            for di, day in enumerate(dataset.days):
                for ti, ticker in enumerate(dataset.tickers):
                    writer.writerow([day.isoformat(), ticker, repr(float(dataset.close[di, ti]))])
        with open(dense / "fundamentals.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["date", "ticker", *RATIO_COLUMNS])
            for di, day in enumerate(dataset.days):
                for ti, ticker in enumerate(dataset.tickers):
                    writer.writerow([day.isoformat(), ticker, *(repr(float(v)) for v in dataset.ratios[di, :, ti])])
        digest = hashlib.sha256((dense / "prices.csv").read_bytes() + (dense / "fundamentals.csv").read_bytes())
        write_json(dense / "metadata.json", {"fingerprint": f"sha256:{digest.hexdigest()}"})
        from_dense, _ = load_archive(dense)
        save_archive(dataset, tmp_path / "sparse")
        from_sparse, _ = load_archive(tmp_path / "sparse")
        assert (dense / "prices.csv").read_bytes() == (tmp_path / "sparse" / "prices.csv").read_bytes()
        assert from_dense.days == from_sparse.days
        assert from_dense.close.tobytes() == from_sparse.close.tobytes()
        assert from_dense.ratios.tobytes() == from_sparse.ratios.tobytes()

    def test_synthetic_fundamentals_one_row_per_quarter(self, tmp_path):
        # 130 days of 63-day quarters: quarters start on days 0, 63 and 126.
        save_archive(generate_synthetic_market(seed=7, tickers=3, days=130), tmp_path / "a")
        lines = (tmp_path / "a" / "fundamentals.csv").read_text().splitlines()
        assert len(lines) - 1 == 3 * 3

    def test_fingerprint_reproducible(self, tmp_path):
        dataset = generate_synthetic_market(seed=7, tickers=2, days=30)
        meta_a = save_archive(dataset, tmp_path / "a")
        meta_b = save_archive(dataset, tmp_path / "b")
        assert meta_a["fingerprint"] == meta_b["fingerprint"]

    def test_tamper_detected(self, tmp_path):
        dataset = generate_synthetic_market(seed=7, tickers=2, days=30)
        save_archive(dataset, tmp_path / "a")
        prices = tmp_path / "a" / "prices.csv"
        prices.write_text(prices.read_text().replace("100.0", "100.5", 1))
        with pytest.raises(DataError, match="fingerprint"):
            load_archive(tmp_path / "a")

    def test_not_an_archive(self, tmp_path):
        with pytest.raises(DataError):
            load_archive(tmp_path)


class TestRunConfig:
    def test_defaults_filled(self, archive):
        config = parse_run_config(base_config(archive, agent=MLP_AGENT))
        resolved = config.resolved_dict()
        assert resolved["ppo"]["gamma"] == 0.99
        assert resolved["env"]["hmax"] == 100
        assert resolved["seeds"] == [0]
        assert config.agents[0].kind == "mlp"

    def test_resolved_keys_are_the_dataclass_fields(self, archive):
        resolved = parse_run_config(base_config(archive, agent=MLP_AGENT)).resolved_dict()
        env_fields = {f.name for f in dataclasses.fields(EnvConfig)} - {"permutation"}
        ppo_fields = {f.name for f in dataclasses.fields(PpoConfig)} - {"seed"}
        assert set(resolved["env"]) == env_fields
        assert set(resolved["ppo"]) == ppo_fields

    def test_list_entries_read_as_their_types(self, archive):
        agent = {**CNN_AGENT, "arch": {**CNN_AGENT["arch"], "log_std_bounds": [-3, 1]}}
        arch = parse_run_config(base_config(archive, agent=agent)).agents[0].arch
        assert arch.conv_kernels == ((2, 4), (2, 4))
        assert [type(b) for b in arch.log_std_bounds] == [float, float]
        hash(arch)

    @pytest.mark.parametrize("section, key, value, message", [
        ("env", "hmax", True, r"^env\.hmax: expected int, got bool"),
        ("env", "turbulence_lookback", True, r"^env\.turbulence_lookback: expected int, got bool"),
        ("env", "turbulence_lookback", 0, r"^env: turbulence_lookback must be None or >= 1"),
        ("env", "window_length", 4.0, r"^env\.window_length: expected int, got float"),
        ("env", "reward_scale", math.nan, r"^env: reward_scale must be > 0"),
        ("env", "initial_balance", math.nan, r"^env: initial_balance must be > 0"),
        ("env", "balance_scale", math.nan, r"^env: balance_scale must be > 0"),
        ("ppo", "minibatch_size", False, r"^ppo\.minibatch_size: expected int, got bool"),
        ("arch", "conv_kernels", [[8], [4, 4]], r"^agent\.arch\.conv_kernels\[0\]: expected 2 entries, got 1"),
        ("arch", "conv_channels", [4.5, 8], r"^agent\.arch\.conv_channels\[0\]: expected int, got float"),
        ("arch", "conv_strides", [4, 2], r"^agent\.arch\.conv_strides\[0\]: expected list, got int"),
        ("arch", "mlp_hidden", 256, r"^agent\.arch\.mlp_hidden: expected list, got int"),
        ("arch", "log_std_bounds", [-5.0, 2.0, 3.0], r"^agent\.arch\.log_std_bounds: expected 2 entries"),
        ("arch", "log_std_bounds", [2.0, -5.0], r"^agent\.arch: log_std_bounds must have low < high"),
        ("arch", "embed_dim", 0, r"^agent\.arch: conv_channels, embed_dim and mlp_hidden entries must be >= 1"),
        ("arch", "mlp_hidden", [-4], r"^agent\.arch: conv_channels, embed_dim and mlp_hidden entries"),
        ("arch", "log_std_init", math.nan, r"^agent\.arch: log_std_init must be finite"),
    ])
    def test_bad_value_rejected(self, archive, section, key, value, message):
        data = base_config(archive, agent={"kind": "cnn", "arch": {}})
        (data["agent"] if section == "arch" else data)[section][key] = value
        with pytest.raises(ConfigError, match=message):
            parse_run_config(json.loads(json.dumps(data)))

    def test_unknown_key_suggestion(self, archive):
        data = base_config(archive, agent=MLP_AGENT)
        data["ppo"]["gama"] = 0.5
        with pytest.raises(ConfigError, match="did you mean 'gamma'"):
            parse_run_config(data)

    def test_unknown_env_key(self, archive):
        data = base_config(archive, agent=MLP_AGENT)
        data["env"]["windw_length"] = 9
        with pytest.raises(ConfigError, match="window_length"):
            parse_run_config(data)

    def test_unknown_top_level_key(self, archive):
        data = base_config(archive, agent=MLP_AGENT)
        data["outt"] = "x"
        with pytest.raises(ConfigError, match="did you mean 'out'"):
            parse_run_config(data)

    def test_agent_kind_validated(self, archive):
        with pytest.raises(ConfigError, match="kind"):
            parse_run_config(base_config(archive, agent={"kind": "transformer"}))

    def test_missing_agent(self, archive):
        with pytest.raises(ConfigError, match="agent"):
            parse_run_config(base_config(archive))

    @pytest.mark.parametrize("key, value, message", [
        ("dataset", {"source": "yahoo"}, r"^dataset\.source must be 'synthetic' or 'archive', got 'yahoo'$"),
        ("dataset", {"source": "archive"}, r"^dataset\.path is required for source 'archive'$"),
        ("dataset", {"source": "synthetic", "tickrs": 2},
         r"^unknown key 'tickrs' in dataset; did you mean 'tickers'\?$"),
        ("dataset", {"source": "synthetic", "tickers": 2.5}, r"^dataset\.tickers: expected int, got float$"),
        ("seeds", [0, -1], r"^seeds must be >= 0, got \[0, -1\]$"),
        ("dataset", {"source": "synthetic", "drift": -2}, r"^dataset: drift must be finite and > -1, got -2\.0$"),
        ("dataset", {"source": "synthetic", "tickers": 0}, r"^dataset: tickers and days must be >= 1, got 0, 500$"),
        ("dataset", {"source": "synthetic", "seed": -1}, r"^dataset: seed must be >= 0, got -1$"),
        ("dataset", {"source": "synthetic", "volatility": math.nan},
         r"^dataset: volatility must be finite and >= 0, got nan$"),
    ])
    def test_bad_dataset_or_seeds(self, archive, key, value, message):
        data = base_config(archive, agent=MLP_AGENT)
        data[key] = value
        with pytest.raises(ConfigError, match=message):
            parse_run_config(data)

    def test_resolved_dataset(self, archive):
        data = base_config(archive, agent=MLP_AGENT)
        assert parse_run_config(data).resolved_dict()["dataset"] == {"source": "archive", "path": str(archive)}
        data["dataset"] = {"source": "synthetic", "days": 40, "drift": 0}
        assert parse_run_config(data).resolved_dict()["dataset"] == {
            "source": "synthetic", "seed": 0, "tickers": 30, "days": 40, "drift": 0.0, "volatility": 0.01,
        }

    def test_no_agents(self, archive):
        with pytest.raises(ConfigError, match=r"^agents must be a non-empty list$"):
            parse_run_config(base_config(archive, agents=[]))

    def test_comparison_needs_two(self, tmp_path, archive):
        cfg = base_config(archive, out=tmp_path / "cmp", agents=[MLP_AGENT])
        assert len(parse_run_config(cfg).agents) == 1  # a valid run config for train
        path = tmp_path / "cmp.json"
        write_json(path, cfg)
        args = cli.build_parser().parse_args(["compare", "--config", str(path)])
        with pytest.raises(ConfigError, match="at least 2"):
            args.func(args)

    def test_bad_seeds(self, archive):
        data = base_config(archive, agent=MLP_AGENT)
        data["seeds"] = []
        with pytest.raises(ConfigError, match="seeds"):
            parse_run_config(data)
        data["seeds"] = [0, "one"]
        with pytest.raises(ConfigError, match="seeds"):
            parse_run_config(data)

    def test_split_validation(self, archive):
        data = base_config(archive, agent=MLP_AGENT)
        data["split"] = {"boundary": "2020-01-10", "train_fraction": 0.5}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_run_config(data)
        data["split"] = {"train_fraction": 1.5}
        with pytest.raises(ConfigError, match="train_fraction"):
            parse_run_config(data)
        data["split"] = {"boundary": "Jan 2020"}
        with pytest.raises(ConfigError, match="ISO-8601"):
            parse_run_config(data)

    def test_resolve_split_fraction(self, archive):
        dataset, _ = load_archive(archive)
        data = base_config(archive, agent=MLP_AGENT)
        data["split"] = {"train_fraction": 0.75}
        config = parse_run_config(data)
        train_part, test_part = resolve_split(dataset, config.split)
        assert train_part.n_days == 18
        assert test_part.n_days == 6


class TestCliIngest:
    def _write_inputs(self, tmp_path):
        prices = tmp_path / "p.csv"
        lines = ["date,ticker,close"]
        for day in ("2020-01-06", "2020-01-07", "2020-01-08", "2020-01-09", "2020-01-10"):
            lines += [f"{day},AAA,10.0", f"{day},BBB,20.0"]
        prices.write_text("\n".join(lines) + "\n")
        fundamentals = tmp_path / "f.csv"
        from shufflerl.data import RATIO_COLUMNS

        header = "date,ticker," + ",".join(RATIO_COLUMNS)
        cells = ",".join(["1.0"] * 15)
        fundamentals.write_text(
            "\n".join([header, f"2020-01-06,AAA,{cells}", f"2020-01-06,BBB,{cells}"]) + "\n"
        )
        return prices, fundamentals

    def test_ingest_success(self, tmp_path, capsys):
        prices, fundamentals = self._write_inputs(tmp_path)
        rc = main(["ingest", "--prices", str(prices), "--fundamentals", str(fundamentals),
                   "--out", str(tmp_path / "arch")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 tickers x 5 days" in out
        assert "fingerprint sha256:" in out

    def test_ingest_missing_fundamentals_ticker(self, tmp_path, capsys):
        prices, fundamentals = self._write_inputs(tmp_path)
        lines = fundamentals.read_text().splitlines()
        fundamentals.write_text("\n".join(lines[:2]) + "\n")  # drop BBB
        rc = main(["ingest", "--prices", str(prices), "--fundamentals", str(fundamentals),
                   "--out", str(tmp_path / "arch")])
        assert rc == 2
        assert "BBB" in capsys.readouterr().err

    def test_rerun_identical_fingerprint(self, tmp_path, capsys):
        prices, fundamentals = self._write_inputs(tmp_path)
        main(["ingest", "--prices", str(prices), "--fundamentals", str(fundamentals),
              "--out", str(tmp_path / "a")])
        first = capsys.readouterr().out
        main(["ingest", "--prices", str(prices), "--fundamentals", str(fundamentals),
              "--out", str(tmp_path / "b")])
        second = capsys.readouterr().out
        fp = [line for line in first.splitlines() if line.startswith("fingerprint")]
        assert fp == [line for line in second.splitlines() if line.startswith("fingerprint")]


class TestCliSynth:
    def test_reproducible_fingerprint(self, tmp_path, capsys):
        main(["synth", "--seed", "7", "--tickers", "4", "--days", "300", "--out", str(tmp_path / "a")])
        first = capsys.readouterr().out
        main(["synth", "--seed", "7", "--tickers", "4", "--days", "300", "--out", str(tmp_path / "b")])
        second = capsys.readouterr().out
        assert first.splitlines()[1] == second.splitlines()[1]  # fingerprint line

    def test_short_dataset_warns(self, tmp_path, capsys):
        rc = main(["synth", "--seed", "1", "--tickers", "1", "--days", "30", "--out", str(tmp_path / "a")])
        assert rc == 0
        assert "warning" in capsys.readouterr().err

    def test_zero_tickers_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--seed", "1", "--tickers", "0", "--days", "30", "--out", str(tmp_path / "a")])
        assert rc == 1
        assert "tickers" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--volatility", "nan", "volatility must be finite and >= 0, got nan"),
        ("--drift", "nan", "drift must be finite and > -1, got nan"),
        ("--drift", "-2", "drift must be finite and > -1, got -2.0"),
        ("--drift", "1e300",
         "drift 1e+300 and volatility 0.01 take prices out of the finite positive range within 30 days"),
        ("--volatility", "40",
         "drift 0.0005 and volatility 40.0 take prices out of the finite positive range within 30 days"),
    ])
    def test_bad_market_parameter_usage_error(self, tmp_path, capsys, flag, value, message):
        # argparse keeps an option's last value, so `flag` overrides the default given first.
        argv = ["synth", "--seed", "1", "--tickers", "1", "--days", "30", flag, value]
        rc = main([*argv, "--out", str(tmp_path / "a")])
        assert rc == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "a").exists()


class TestCliTrain:
    def test_artifacts_and_manifest(self, tmp_path, archive, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, base_config(archive, out=tmp_path / "run", agent=SHUFFLED_AGENT))
        rc = main(["train", "--config", str(cfg_path)])
        assert rc == 0
        run_dir = tmp_path / "run" / "runs" / "cnn-shuffled-seed0"
        assert (run_dir / "curve.csv").exists()
        assert (run_dir / "stats.jsonl").exists()
        assert (run_dir / "checkpoint" / "params.bin").exists()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["dataset_fingerprint"].startswith("sha256:")
        assert manifest["runs"][0]["agent"] == "cnn-shuffled"
        # the permutation is recorded for reproducibility
        assert manifest["permutations"]["cnn-shuffled"][:3] == [0, 1, 3]
        assert manifest["config"]["ppo"]["gamma"] == 0.99

    def test_curve_csv_contract(self, tmp_path, archive):
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, base_config(archive, out=tmp_path / "run", agent=MLP_AGENT))
        main(["train", "--config", str(cfg_path)])
        with open(tmp_path / "run" / "runs" / "mlp-seed0" / "curve.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["agent", "seed", "timestep", "episode", "reward"]
        assert rows[1][0] == "mlp"
        assert rows[1][1] == "0"

    def test_rerun_byte_identical(self, tmp_path, archive):
        for name in ("a", "b"):
            cfg_path = tmp_path / f"cfg_{name}.json"
            write_json(cfg_path, base_config(archive, out=tmp_path / name, agent=MLP_AGENT))
            assert main(["train", "--config", str(cfg_path)]) == 0
        for rel in ("runs/mlp-seed0/curve.csv", "runs/mlp-seed0/checkpoint/params.bin"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_unknown_config_key_exit_one(self, tmp_path, archive, capsys):
        cfg_path = tmp_path / "cfg.json"
        data = base_config(archive, out=tmp_path / "run", agent=MLP_AGENT)
        data["ppo"]["gama"] = 0.9
        write_json(cfg_path, data)
        rc = main(["train", "--config", str(cfg_path)])
        assert rc == 1
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content, message", [
        ("metadata.json", "{not json", "metadata.json is not valid JSON"),
        ("metadata.json", "[1]", "metadata.json is not a JSON object"),
        ("prices.csv", None, "prices.csv: cannot read archive file"),  # None deletes the file
        ("fundamentals.csv", None, "fundamentals.csv: cannot read archive file"),
    ])
    def test_malformed_archive_is_data_error(self, tmp_path, archive, capsys, name, content, message):
        if content is None:
            (archive / name).unlink()
        else:
            (archive / name).write_text(content)
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, base_config(archive, out=tmp_path / "run", agent=MLP_AGENT))
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert not (tmp_path / "run" / "runs").exists()

    def test_missing_out_is_config_error(self, tmp_path, archive, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, base_config(archive, agent=MLP_AGENT))
        assert main(["train", "--config", str(cfg_path)]) == 1

    def test_seed_flag_overrides(self, tmp_path, archive):
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, base_config(archive, out=tmp_path / "run", agent=MLP_AGENT, seeds=(0, 1)))
        main(["train", "--config", str(cfg_path), "--seed", "5"])
        runs = sorted(p.name for p in (tmp_path / "run" / "runs").iterdir())
        assert runs == ["mlp-seed5"]

    @pytest.mark.parametrize("seeds, flags", [((-1,), []), ((0,), ["--seed", "-3"])])
    def test_negative_seed_writes_nothing(self, tmp_path, archive, capsys, seeds, flags):
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, base_config(archive, out=tmp_path / "run", agent=MLP_AGENT, seeds=seeds))
        assert main(["train", "--config", str(cfg_path), *flags]) == 1
        assert capsys.readouterr().err.startswith("config error: seeds must be >= 0")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("market, message", [
        ({"drift": -2}, "dataset: drift must be finite and > -1, got -2.0"),
        ({"tickers": 0}, "dataset: tickers and days must be >= 1, got 0, 30"),
        ({"drift": 1e300},
         "dataset: drift 1e+300 and volatility 0.01 take prices out of the finite positive range within 30 days"),
    ])
    def test_bad_synthetic_market_writes_nothing(self, tmp_path, capsys, market, message):
        cfg = {**base_config(None, out=tmp_path / "run", agent=MLP_AGENT),
               "dataset": {"source": "synthetic", "tickers": 2, "days": 30, **market}}
        write_json(tmp_path / "cfg.json", cfg)
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_no_agents_writes_nothing(self, tmp_path, archive, capsys):
        write_json(tmp_path / "cfg.json", base_config(archive, out=tmp_path / "run", agents=[]))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 1
        assert capsys.readouterr().err == "config error: agents must be a non-empty list\n"
        assert not (tmp_path / "run" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_window_longer_than_market_writes_nothing(self, tmp_path, archive, capsys, command):
        cfg = base_config(archive, out=tmp_path / "run", agents=[MLP_AGENT, CNN_AGENT])
        cfg["env"]["window_length"] = 30
        write_json(tmp_path / "cfg.json", cfg)
        assert main([command, "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err == "data error: need window_length < n_days: 30 >= 24\n"
        assert not (tmp_path / "run").exists()

    def test_each_run_matches_its_solo_run(self, tmp_path, archive):
        # Runs that share one invocation must not leak state (a generator,
        # BatchNorm statistics) into each other.
        cfg = base_config(archive, out=tmp_path / "all", agents=[MLP_AGENT, CNN_AGENT], seeds=(0, 1))
        write_json(tmp_path / "all.json", cfg)
        assert main(["train", "--config", str(tmp_path / "all.json")]) == 0
        write_json(tmp_path / "solo.json", base_config(archive, out=tmp_path / "solo", agent=CNN_AGENT))
        assert main(["train", "--config", str(tmp_path / "solo.json"), "--seed", "1"]) == 0
        for rel in ("runs/cnn-seed1/curve.csv", "runs/cnn-seed1/checkpoint/params.bin"):
            assert (tmp_path / "all" / rel).read_bytes() == (tmp_path / "solo" / rel).read_bytes()


class TestCliEvaluate:
    def _train(self, tmp_path, archive, split=None):
        cfg = base_config(archive, out=tmp_path / "run", agent=MLP_AGENT)
        if split:
            cfg["split"] = split
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, cfg)
        assert main(["train", "--config", str(cfg_path)]) == 0
        return tmp_path / "run" / "runs" / "mlp-seed0" / "checkpoint"

    def test_evaluate_train_split(self, tmp_path, archive, capsys):
        ckpt = self._train(tmp_path, archive)
        capsys.readouterr()  # drop the train command's output
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(archive),
                   "--split", "train", "--out", str(tmp_path / "eval")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.split("report written")[0])
        assert "cumulative_reward" in payload and "sharpe_annualized" in payload
        assert (tmp_path / "eval" / "metrics.json").exists()
        trace = (tmp_path / "eval" / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("day,balance,portfolio_value,reward,costs,turbulence")

    def test_evaluate_test_split_requires_boundary(self, tmp_path, archive, capsys):
        ckpt = self._train(tmp_path, archive)
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(archive),
                   "--split", "test", "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert "split" in capsys.readouterr().err

    def test_evaluate_recorded_split(self, tmp_path, archive, capsys):
        ckpt = self._train(tmp_path, archive, split={"train_fraction": 0.7})
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(archive),
                   "--split", "test", "--out", str(tmp_path / "eval")])
        assert rc == 0

    def test_deterministic_across_reruns(self, tmp_path, archive, capsys):
        ckpt = self._train(tmp_path, archive)
        capsys.readouterr()
        main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(archive),
              "--split", "train", "--out", str(tmp_path / "e1")])
        first = capsys.readouterr().out
        main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(archive),
              "--split", "train", "--out", str(tmp_path / "e2")])
        second = capsys.readouterr().out
        assert first.replace("e1", "") == second.replace("e2", "")
        assert (tmp_path / "e1" / "trace.csv").read_bytes() == (tmp_path / "e2" / "trace.csv").read_bytes()

    @pytest.mark.parametrize("key, value, message", [
        ("windw_length", 4, "unknown key 'windw_length' in checkpoint env; did you mean 'window_length'?"),
        ("hmax", "100", "checkpoint env.hmax: expected int, got str"),
        ("reward_scale", -1.0, "checkpoint env: reward_scale must be > 0"),
    ])
    def test_bad_checkpoint_env_is_config_error(self, tmp_path, archive, capsys, key, value, message):
        ckpt = self._train(tmp_path, archive)
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["metadata"]["env"][key] = value
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(archive),
                   "--split", "train", "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, message", [
        ("metadata", "split", {"fraction": 0.8},
         "unknown key 'fraction' in checkpoint split; did you mean 'train_fraction'?"),
        ("architecture", "embed_dim", 4.0, "checkpoint architecture.embed_dim: expected int, got float"),
        ("architecture", "mlp_hidden", [4.0, 4], "checkpoint architecture.mlp_hidden[0]: expected int, got float"),
        ("metadata", "agent_kind", "cnn", "checkpoint agent: architecture kind 'mlp' does not match agent 'cnn'"),
        ("metadata", "env", None, "checkpoint env must be an object"),  # None deletes the key
    ])
    def test_malformed_checkpoint_is_config_error(self, tmp_path, archive, capsys, section, key, value, message):
        ckpt = self._train(tmp_path, archive)
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if value is None:
            del manifest[section][key]
        else:
            manifest[section][key] = value
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(archive),
                   "--split", "train", "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("seed", None, "checkpoint has no 'seed'"),  # None deletes the key
        ("seed", 1.5, "checkpoint.seed: expected int, got float"),
        ("observation_shape", [4.0, 35], "checkpoint.observation_shape[0]: expected int, got float"),
        ("observation_shape", [0, 35], "checkpoint observation_shape and action_dim entries must be >= 1"),
        ("action_dim", "2", "checkpoint.action_dim: expected int, got str"),
        ("tensors", "fc1.weight", "checkpoint.tensors: expected list, got str"),
        ("tensors", [{"name": "fc1.weight"}], "checkpoint.tensors[0] has no 'shape'"),
        ("metadata", None, "checkpoint has no 'metadata'"),
        ("metadata", [1], "checkpoint.metadata: expected dict, got list"),
        ("format_version", True, "checkpoint.format_version: expected int, got bool"),
        ("format_version", 1.0, "checkpoint.format_version: expected int, got float"),
        ("blob", "../params.bin", "checkpoint blob must be 'params.bin', got '../params.bin'"),
    ])
    def test_malformed_manifest_field_is_config_error(self, tmp_path, archive, capsys, key, value, message):
        ckpt = self._train(tmp_path, archive)
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(archive),
                   "--split", "train", "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content, rc, message", [
        ("manifest.json", "{not json", 1, "config error: checkpoint manifest.json is not valid JSON"),
        ("manifest.json", "[1]", 1, "config error: checkpoint manifest.json is not a JSON object"),
        ("manifest.json", None, 3, "error: no readable manifest.json in"),  # None deletes the file
        ("params.bin", None, 3, "error: no readable params.bin in"),
    ])
    def test_unreadable_checkpoint_is_one_error_line(self, tmp_path, archive, capsys, name, content, rc, message):
        ckpt = self._train(tmp_path, archive)
        if content is None:
            (ckpt / name).unlink()
        else:
            (ckpt / name).write_text(content)
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(archive),
                     "--split", "train", "--out", str(tmp_path / "eval")]) == rc
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    def test_synthetic_run_matches_its_synth_archive(self, tmp_path, capsys):
        cfg = {**base_config(None, out=tmp_path / "run", agent=MLP_AGENT),
               "dataset": {"source": "synthetic", "seed": 3, "tickers": 2, "days": 30}}
        write_json(tmp_path / "cfg.json", cfg)
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 0
        synth = tmp_path / "synth"
        assert main(["synth", "--seed", "3", "--tickers", "2", "--days", "30", "--out", str(synth)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "run" / "runs" / "mlp-seed0" / "checkpoint"
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(synth),
                   "--split", "train", "--out", str(tmp_path / "eval")])
        assert rc == 0
        assert "differs" not in capsys.readouterr().err
        recorded = json.loads((ckpt / "manifest.json").read_text())["metadata"]["dataset_fingerprint"]
        assert recorded == json.loads((synth / "metadata.json").read_text())["fingerprint"]

    def test_window_mismatch_is_runtime_error(self, tmp_path, archive, capsys):
        ckpt = self._train(tmp_path, archive)
        manifest_path = ckpt / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["metadata"]["env"]["window_length"] = 7
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(archive),
                   "--split", "train", "--out", str(tmp_path / "eval")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "(4, 35)" in err and "(7, 35)" in err


class TestCliCompare:
    def _config(self, tmp_path, archive):
        cfg = base_config(archive, out=tmp_path / "cmp",
                          agents=[MLP_AGENT, CNN_AGENT, SHUFFLED_AGENT], seeds=(0, 1))
        path = tmp_path / "cmp.json"
        write_json(path, cfg)
        return path

    def test_three_agents_shared_seeds(self, tmp_path, archive, capsys):
        rc = main(["compare", "--config", str(self._config(tmp_path, archive))])
        assert rc == 0
        out_dir = tmp_path / "cmp"
        with open(out_dir / "curves.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["agent", "seed", "timestep", "episode", "reward"]
        agents = {r[0] for r in rows[1:]}
        seeds = {r[1] for r in rows[1:]}
        assert agents == {"mlp", "cnn", "cnn-shuffled"}
        assert seeds == {"0", "1"}
        with open(out_dir / "table.csv", newline="") as handle:
            table_rows = list(csv.reader(handle))
        assert len(table_rows) == 1 + 6  # agents x seeds
        assert (out_dir / "curves_aligned.csv").exists()
        with open(out_dir / "pairwise.csv", newline="") as handle:
            pairwise_rows = list(csv.reader(handle))
        assert pairwise_rows[0] == ["pair", "final_reward_difference"]
        assert len(pairwise_rows) == 1 + 15  # C(6, 2) label pairs
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["runs"]) == 6
        assert all(not run["reused"] for run in manifest["runs"])

    def test_cached_runs_reused(self, tmp_path, archive, capsys):
        cfg_path = self._config(tmp_path, archive)
        main(["compare", "--config", str(cfg_path)])
        capsys.readouterr()
        first_curves = (tmp_path / "cmp" / "curves.csv").read_bytes()
        rc = main(["compare", "--config", str(cfg_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reused 6 cached run(s)" in out
        manifest = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
        assert all(run["reused"] for run in manifest["runs"])
        assert (tmp_path / "cmp" / "curves.csv").read_bytes() == first_curves

    def _two_agents(self, tmp_path, archive, total_timesteps):
        cfg = base_config(archive, out=tmp_path / "cmp", agents=[MLP_AGENT, CNN_AGENT])
        cfg["ppo"]["total_timesteps"] = total_timesteps
        path = tmp_path / "cmp.json"
        write_json(path, cfg)
        return path

    def test_changed_ppo_config_retrains(self, tmp_path, archive, capsys):
        assert main(["compare", "--config", str(self._two_agents(tmp_path, archive, 64))]) == 0
        assert main(["compare", "--config", str(self._two_agents(tmp_path, archive, 128))]) == 0
        assert "reused" not in capsys.readouterr().out
        manifest = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
        assert not any(run["reused"] for run in manifest["runs"])
        with open(tmp_path / "cmp" / "curves.csv", newline="") as handle:
            timesteps = [int(row["timestep"]) for row in csv.DictReader(handle)]
        assert max(timesteps) > 64  # the 128-step curves, not the cached 64-step ones

    def test_truncated_blob_retrains(self, tmp_path, archive, capsys):
        path = self._two_agents(tmp_path, archive, 32)
        assert main(["compare", "--config", str(path)]) == 0
        blob = tmp_path / "cmp" / "runs" / "cnn-seed0" / "checkpoint" / "params.bin"
        full = blob.read_bytes()
        blob.write_bytes(full[:-8])
        capsys.readouterr()
        assert main(["compare", "--config", str(path)]) == 0
        assert "reused 1 cached run(s)" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
        assert {run["agent"]: run["reused"] for run in manifest["runs"]} == {"mlp": True, "cnn": False}
        assert blob.read_bytes() == full

    def test_changed_source_hash_retrains(self, tmp_path, archive, capsys):
        # Same metadata, code version and blob size: only the sources differ.
        path = self._two_agents(tmp_path, archive, 32)
        assert main(["compare", "--config", str(path)]) == 0
        manifest_path = tmp_path / "cmp" / "runs" / "cnn-seed0" / "checkpoint" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["source_hash"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["compare", "--config", str(path)]) == 0
        assert "reused 1 cached run(s)" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
        assert {run["agent"]: run["reused"] for run in manifest["runs"]} == {"mlp": True, "cnn": False}
        assert json.loads(manifest_path.read_text())["source_hash"] != "0" * 64

    @pytest.mark.parametrize("edit", ["drop seed", "not json", "no blob"])
    def test_checkpoint_that_fails_to_load_retrains(self, tmp_path, archive, capsys, edit):
        path = self._two_agents(tmp_path, archive, 32)
        assert main(["compare", "--config", str(path)]) == 0
        checkpoint = tmp_path / "cmp" / "runs" / "cnn-seed0" / "checkpoint"
        original = (checkpoint / "manifest.json").read_bytes()
        manifest = json.loads(original)
        if edit == "drop seed":
            del manifest["seed"]
            (checkpoint / "manifest.json").write_text(json.dumps(manifest))
        elif edit == "not json":
            (checkpoint / "manifest.json").write_text("{not json")
        else:
            (checkpoint / "params.bin").unlink()
        capsys.readouterr()
        assert main(["compare", "--config", str(path)]) == 0
        assert "reused 1 cached run(s)" in capsys.readouterr().out
        runs = json.loads((tmp_path / "cmp" / "manifest.json").read_text())["runs"]
        assert {run["agent"]: run["reused"] for run in runs} == {"mlp": True, "cnn": False}
        assert (checkpoint / "manifest.json").read_bytes() == original

    def test_changed_architecture_retrains(self, tmp_path, archive, capsys):
        # The log-std bounds change no tensor shape, so the blob size still
        # matches: only the manifest's architecture differs from the agent's.
        path = self._two_agents(tmp_path, archive, 32)
        assert main(["compare", "--config", str(path)]) == 0
        manifest_path = tmp_path / "cmp" / "runs" / "cnn-seed0" / "checkpoint" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["architecture"]["log_std_bounds"] = [-4.0, 1.0]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["compare", "--config", str(path)]) == 0
        assert "reused 1 cached run(s)" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
        assert {run["agent"]: run["reused"] for run in manifest["runs"]} == {"mlp": True, "cnn": False}
        assert json.loads(manifest_path.read_text())["architecture"]["log_std_bounds"] == [-5.0, 2.0]

    def test_run_killed_after_manifest_retrains(self, tmp_path, archive, monkeypatch, capsys):
        # A 32-step run's blob has the same size as a 64-step run's, so a
        # new manifest written over the old blob would look complete.
        assert main(["compare", "--config", str(self._two_agents(tmp_path, archive, 32))]) == 0
        runs_dir = tmp_path / "cmp" / "runs"
        old_manifests = {p: p.read_bytes() for p in runs_dir.glob("*/checkpoint/manifest.json")}

        class Killed(Exception):
            pass

        def manifest_then_killed(directory, net, metadata=None):
            save_checkpoint(tmp_path / "complete", net, metadata)
            Path(directory).mkdir(parents=True, exist_ok=True)
            shutil.copy(tmp_path / "complete" / "manifest.json", Path(directory) / "manifest.json")
            raise Killed

        monkeypatch.setattr(cli, "save_checkpoint", manifest_then_killed)
        path = self._two_agents(tmp_path, archive, 64)
        with pytest.raises(Killed):
            main(["compare", "--config", str(path)])
        assert {p: p.read_bytes() for p in runs_dir.glob("*/checkpoint/manifest.json")} == old_manifests
        assert sorted(p.name for p in runs_dir.iterdir()) == ["cnn-seed0", "mlp-seed0"]
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["compare", "--config", str(path)]) == 0
        assert "reused" not in capsys.readouterr().out
        manifest = json.loads((tmp_path / "cmp" / "manifest.json").read_text())
        assert not any(run["reused"] for run in manifest["runs"])

    def test_manifest_config_reparses(self, tmp_path, archive):
        cfg = base_config(archive, out=tmp_path / "cmp", agents=[MLP_AGENT, CNN_AGENT])
        cfg["split"] = {"train_fraction": 0.7}
        path = tmp_path / "cmp.json"
        write_json(path, cfg)
        assert main(["compare", "--config", str(path)]) == 0
        config = json.loads((tmp_path / "cmp" / "manifest.json").read_text())["config"]
        reparsed = parse_run_config(config)
        assert json.loads(json.dumps(reparsed.resolved_dict())) == config  # as stored: tuples become lists
        assert reparsed == parse_run_config(cfg)

    def test_fewer_than_two_agents(self, tmp_path, archive, capsys):
        cfg = base_config(archive, out=tmp_path / "cmp", agents=[MLP_AGENT])
        path = tmp_path / "cmp.json"
        write_json(path, cfg)
        assert main(["compare", "--config", str(path)]) == 1
        assert "comparison needs at least 2 agents, got 1" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_mistyped_arch_fails_before_any_run(self, tmp_path, archive, capsys):
        bad_cnn = {**CNN_AGENT, "arch": {**CNN_AGENT["arch"], "conv_channels": [4.5, 8]}}
        cfg = base_config(archive, out=tmp_path / "cmp", agents=[MLP_AGENT, bad_cnn])
        path = tmp_path / "cmp.json"
        write_json(path, cfg)
        assert main(["compare", "--config", str(path)]) == 1
        assert "agents[1].arch.conv_channels[0]: expected int, got float" in capsys.readouterr().err
        assert not (tmp_path / "cmp" / "runs").exists()

    def test_no_finished_episode_fails_before_training(self, tmp_path, archive, monkeypatch, capsys):
        # 24 days with a window of 4 is a 20-step episode; 31 timesteps in
        # 16-step rollouts train only 16 steps.
        def no_training(*args):
            raise AssertionError("compare trained a run")

        monkeypatch.setattr(cli, "_train_one", no_training)
        cfg = base_config(archive, out=tmp_path / "cmp", agents=[MLP_AGENT, CNN_AGENT])
        cfg["ppo"]["total_timesteps"] = 31
        path = tmp_path / "cmp.json"
        write_json(path, cfg)
        assert main(["compare", "--config", str(path)]) == 1
        assert "16 trained steps cannot finish one 20-step episode" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["train"]) == 1  # --config required

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_data_error(self, tmp_path, capsys):
        rc = main(["ingest", "--prices", str(tmp_path / "nope.csv"),
                   "--fundamentals", str(tmp_path / "nope2.csv"), "--out", str(tmp_path / "a")])
        assert rc == 2
