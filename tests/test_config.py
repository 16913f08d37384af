"""Configuration loading, validation, and template resolution."""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import pickle

import pytest

from alignrag.config import (
    COUNT_FIELDS,
    ENV_CONFIG,
    Config,
    load_config,
    resolve_config,
)
from alignrag.errors import ConfigError
from alignrag.prompts import DEFAULT_TEMPLATES, TEMPLATE_FIELDS, check_template


class TestDefaults:
    def test_defaults_validate(self):
        Config().validate()

    def test_default_knobs(self):
        cfg = Config()
        assert cfg.alpha == 0.5
        assert cfg.base_size == 10
        assert cfg.mip_k == 5
        assert cfg.final_k == 5
        assert cfg.strategies == ((1, 1), (2, 1), (1, 2))
        assert cfg.scorer == "mock"
        assert cfg.provider == "hash"


class TestValidation:
    """Each invalid config raises ``ConfigError`` when it is made."""

    def test_unknown_provider(self):
        with pytest.raises(ConfigError, match="unknown provider 'dense-api'"):
            Config(provider="dense-api")

    def test_file_provider_needs_vectors(self, tmp_path):
        with pytest.raises(ConfigError, match="provider 'file' requires vector_file"):
            Config(provider="file")
        Config(provider="file", vector_file=str(tmp_path / "v.jsonl"))

    def test_unknown_scorer(self):
        with pytest.raises(ConfigError, match="unknown scorer 'gpt'"):
            Config(scorer="gpt")

    def test_unit_interval_knobs(self):
        for name in ("alpha", "compat_w", "vote_lambda", "bm25_b"):
            message = rf"{name} must be in \[0, 1\], got 1.5"
            with pytest.raises(ConfigError, match=message):
                Config(**{name: 1.5})

    def test_negative_k1(self):
        with pytest.raises(ConfigError, match="bm25_k1 must be >= 0, got -0.1"):
            Config(bm25_k1=-0.1)

    def test_positive_integer_knobs(self):
        assert COUNT_FIELDS[:4] == ("embed_dim", "base_size", "mip_k", "final_k")
        assert len(COUNT_FIELDS) == 13 and "seed" not in COUNT_FIELDS
        for name in COUNT_FIELDS:
            message = f"{name} must be an integer >= 1, got 0"
            with pytest.raises(ConfigError, match=message):
                Config(**{name: 0})
        # non-integer rejected too
        with pytest.raises(ConfigError, match="beam_width must be of type int"):
            Config(beam_width=2.5)

    def test_strategies(self):
        with pytest.raises(ConfigError, match="strategies must be a non-empty list"):
            Config(strategies=())
        with pytest.raises(ConfigError, match=r"invalid strategy \(0, 1\)"):
            Config(strategies=((0, 1),))
        with pytest.raises(ConfigError, match=r"invalid strategy \(1, 2, 3\)"):
            Config(strategies=((1, 2, 3),))

    def test_strategies_stored_as_tuple_pairs(self):
        assert Config(strategies=[[1, 1]]).strategies == ((1, 1),)
        assert Config(strategies=([2, 1], (1, 2))).strategies == ((2, 1), (1, 2))

    def test_unknown_template_name(self):
        with pytest.raises(ConfigError, match=r"unknown template names \['mystery'\]"):
            Config(template_files={"mystery": "x.txt"})

    def test_fields_cannot_be_set(self):
        cfg = Config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.final_k = 0
        assert cfg.final_k == 5
        # a changed copy is checked as it is made
        assert dataclasses.replace(cfg, final_k=2).final_k == 2
        with pytest.raises(ConfigError, match="final_k must be an integer >= 1, got 0"):
            dataclasses.replace(cfg, final_k=0)

    def test_template_files_cannot_change(self, tmp_path):
        path = str(tmp_path / "keyword.txt")
        given = {"keyword": path}
        cfg = Config(template_files=given)
        edits = [
            lambda paths: paths.__setitem__("mystery", path),
            lambda paths: paths.__delitem__("keyword"),
            lambda paths: paths.update(mystery=path),
            lambda paths: paths.pop("keyword"),
            lambda paths: paths.popitem(),
            lambda paths: paths.setdefault("mystery", path),
            lambda paths: paths.clear(),
            lambda paths: paths.__ior__({"mystery": path}),
        ]
        for edit in edits:
            with pytest.raises(TypeError, match="template_files cannot change"):
                edit(cfg.template_files)
        with pytest.raises(TypeError, match="template_files cannot change"):
            cfg.template_files["mystery"] = path
        # the config holds its own copy of the mapping it was given
        given["mystery"] = path
        assert cfg.template_files == {"keyword": path}

    def test_read_only_template_files_survive_copies(self, tmp_path):
        cfg = Config(template_files={"keyword": str(tmp_path / "keyword.txt")})
        as_dict = dataclasses.asdict(cfg)
        assert json.loads(json.dumps(as_dict)) == {
            **as_dict,
            "strategies": [list(s) for s in cfg.strategies],
        }
        for twin in (
            Config(**as_dict),
            pickle.loads(pickle.dumps(cfg)),
            copy.deepcopy(cfg),
            copy.copy(cfg),
            dataclasses.replace(cfg, final_k=2),
        ):
            assert twin.template_files == cfg.template_files
            with pytest.raises(TypeError):
                twin.template_files["verify"] = "x.txt"

    def test_configs_hash_by_value(self, tmp_path):
        keyword, verify = str(tmp_path / "keyword.txt"), str(tmp_path / "verify.txt")
        cfg = Config(template_files={"keyword": keyword, "verify": verify}, final_k=3)
        twin = Config(final_k=3, template_files={"verify": verify, "keyword": keyword})
        assert list(cfg.template_files) != list(twin.template_files)
        assert cfg == twin and hash(cfg) == hash(twin)
        assert hash(Config()) == hash(Config())
        other = Config(template_files={"keyword": verify, "verify": keyword}, final_k=3)
        assert other != cfg
        assert Config(template_files={"keyword": keyword}) != Config()
        seen = {cfg: "first", Config(): "default"}
        assert seen[twin] == "first" and seen[Config()] == "default"
        assert other not in seen

        calls = []

        @functools.lru_cache(maxsize=None)
        def final_k(config):
            calls.append(config)
            return config.final_k

        assert [final_k(c) for c in (cfg, twin, Config(), cfg)] == [3, 3, 5, 3]
        assert calls == [cfg, Config()]


class TestLoadConfig:
    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "config.json"
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload)
        )
        return str(path)

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            {"alpha": 0.25, "base_size": 4, "strategies": [[1, 1], [3, 2]]},
        )
        cfg = load_config(path)
        assert cfg.alpha == 0.25
        assert cfg.base_size == 4
        assert cfg.strategies == ((1, 1), (3, 2))  # lists become tuples

    def test_round_trips_asdict_output(self, tmp_path):
        # the benchmark writes a config file as json.dumps(asdict(config))
        cfg = Config(
            base_size=5,
            strategies=((2, 1),),
            template_files={"keyword": str(tmp_path / "keyword.txt")},
        )
        path = self.write(tmp_path, dataclasses.asdict(cfg))
        assert load_config(path) == cfg

    def test_unknown_key(self, tmp_path):
        path = self.write(tmp_path, {"alpa": 0.25})
        with pytest.raises(ConfigError, match="alpa"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = self.write(tmp_path, "{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_object(self, tmp_path):
        path = self.write(tmp_path, [1, 2])
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_values_validated_on_load(self, tmp_path):
        path = self.write(tmp_path, {"alpha": 2.0})
        with pytest.raises(ConfigError, match="alpha"):
            load_config(path)

    @pytest.mark.parametrize(
        "payload, name",
        [
            ({"strategies": [1, 2]}, "strategy"),
            ({"strategies": [[1, True]]}, "strategy"),
            ({"strategies": [[1, 1.0]]}, "strategy"),
            ({"strategies": 5}, "strategies"),
            ({"alpha": "0.5"}, "alpha"),
            ({"bm25_k1": None}, "bm25_k1"),
            ({"mock_stop_bias": True}, "mock_stop_bias"),
            ({"base_size": True}, "base_size"),
            ({"seed": 1.5}, "seed"),
            ({"provider": ["hash"]}, "provider"),
            ({"vector_file": 0}, "vector_file"),
            ({"template_files": ["keyword"]}, "template_files"),
            ({"template_files": {"keyword": 3}}, "template_files"),
        ],
    )
    def test_wrong_types_rejected(self, tmp_path, payload, name):
        path = self.write(tmp_path, payload)
        with pytest.raises(ConfigError, match=name):
            load_config(path)

    @pytest.mark.parametrize(
        "text, name",
        [
            ('{"bm25_k1": NaN}', "bm25_k1"),
            ('{"mock_stop_bias": Infinity}', "mock_stop_bias"),
            ('{"mock_context_weight": -Infinity}', "mock_context_weight"),
            ('{"alpha": NaN}', "alpha"),
        ],
    )
    def test_non_finite_rejected(self, tmp_path, text, name):
        path = self.write(tmp_path, text)
        with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
            load_config(path)

    def test_integral_floats_are_numbers(self, tmp_path):
        path = self.write(tmp_path, {"alpha": 1, "bm25_k1": 2})
        cfg = load_config(path)
        assert (cfg.alpha, cfg.bm25_k1) == (1, 2)


class TestResolveConfig:
    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        explicit = tmp_path / "a.json"
        explicit.write_text(json.dumps({"alpha": 0.1}))
        fallback = tmp_path / "b.json"
        fallback.write_text(json.dumps({"alpha": 0.9}))
        monkeypatch.setenv(ENV_CONFIG, str(fallback))
        assert resolve_config(str(explicit)).alpha == 0.1

    def test_environment_fallback(self, tmp_path, monkeypatch):
        fallback = tmp_path / "b.json"
        fallback.write_text(json.dumps({"alpha": 0.9}))
        monkeypatch.setenv(ENV_CONFIG, str(fallback))
        assert resolve_config(None).alpha == 0.9

    def test_defaults_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_CONFIG, raising=False)
        assert resolve_config(None).alpha == 0.5

    def test_empty_environment_value_ignored(self, monkeypatch):
        monkeypatch.setenv(ENV_CONFIG, "")
        assert resolve_config(None).alpha == 0.5


class TestTemplates:
    def test_defaults_cover_all_stages(self):
        assert set(DEFAULT_TEMPLATES) == {
            "keyword",
            "align",
            "verify",
            "decompose",
            "react",
        }
        assert Config().templates() == DEFAULT_TEMPLATES

    def test_file_override(self, tmp_path):
        override = tmp_path / "keyword.txt"
        override.write_text("custom {user_question} keywords:\n")
        cfg = Config(template_files={"keyword": str(override)})
        cfg.validate()
        resolved = cfg.templates()
        assert resolved["keyword"] == "custom {user_question} keywords:"
        assert resolved["align"] == DEFAULT_TEMPLATES["align"]

    def test_unreadable_file(self, tmp_path):
        cfg = Config(template_files={"keyword": str(tmp_path / "missing.txt")})
        cfg.validate()
        with pytest.raises(ConfigError, match="keyword"):
            cfg.templates()

    def test_defaults_pass_the_template_check(self):
        assert set(TEMPLATE_FIELDS) == set(DEFAULT_TEMPLATES)
        for name, template in DEFAULT_TEMPLATES.items():
            check_template(name, template)

    @pytest.mark.parametrize(
        "name,text,message",
        [
            ("keyword", "custom {foo} keywords:", "unknown field {foo}"),
            ("align", "{user_question} {keyword} {keywords}", "field {keywords}"),
            ("verify", "{user_question} {draft} {keyword} {selected}", "{keyword}"),
            ("decompose", "{user_question} {history}", "{history}"),
            ("react", "{user_question} {history} {selected}", "{selected}"),
            ("keyword", "positional {} here", "unknown field {}"),
            ("keyword", "indexed {user_question[0]}", "{user_question[0]}"),
            ("keyword", "attribute {user_question.upper}", "user_question.upper"),
            ("keyword", "unmatched {user_question", "expected '}'"),
            ("keyword", "stray } brace {user_question}", "Single '}'"),
            ("verify", "open { {selected}", "'{'"),
            ("keyword", "bad conversion {user_question!z}", "conversion"),
            ("keyword", "bad spec {user_question:d}", "format code"),
            ("align", "nested {user_question:{keyword}}", "nests a field"),
            ("verify", "selected:{selected}", "whitespace"),
            ("verify", "{draft}{selected}", "whitespace"),
            ("verify", "{selected}.", "whitespace"),
            ("verify", "{selected!s} picked", "conversion"),
            ("verify", "candidates:{draft} {selected}", "{draft} needs whitespace"),
            ("verify", "{user_question} {keywords!r} {selected}", "{keywords} takes"),
            ("verify", "{draft:>9} {selected}", "{draft} takes no conversion"),
        ],
    )
    def test_malformed_template_file_rejected(self, tmp_path, name, text, message):
        path = tmp_path / f"{name}.txt"
        path.write_text(text + "\n")
        cfg = Config(template_files={name: str(path)})
        cfg.validate()
        with pytest.raises(ConfigError) as info:
            cfg.templates()
        assert f"template {name!r} in {path}" in str(info.value)
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "text",
        [
            "pick {selected} from {draft} for {user_question}",
            "{selected}\n{draft}",
            "{draft} {alignment} {keywords} {user_question}",  # no {selected}
            "{{selected}} {draft} {selected}",  # escaped braces are literal text
        ],
    )
    def test_verify_templates_that_split_are_accepted(self, tmp_path, text):
        path = tmp_path / "verify.txt"
        path.write_text(text)
        resolved = Config(template_files={"verify": str(path)}).templates()
        assert resolved["verify"] == text
