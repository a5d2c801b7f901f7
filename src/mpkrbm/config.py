"""Flat "key = value" run configuration with [section] headers.

Parsing is strict: unknown sections or keys are errors, never silently
ignored, and a parsed config renders back to text that parses to the same
effective configuration.
"""

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, ParameterError
from .params import ModelShape
from .sampler import HmcConfig
from .synth import VonMisesPair
from .trainer import TrainerConfig


@dataclass
class PathsConfig:
    data_dir: str = "data"
    out_dir: str = "out"
    patches: str = ""
    whitening: str = ""
    checkpoint: str = ""

    def run_file(self, name, out_dir=None):
        """The path of run file `name` (patches, whitening or checkpoint):
        its own entry if set, else <out_dir>/<name>.mpk, where out_dir
        defaults to this section's out_dir."""
        return getattr(self, name) or str(Path(out_dir or self.out_dir) / f"{name}.mpk")


@dataclass
class DataConfig:
    patch_size: int = 16
    n_patches: int = 100000
    variance_fraction: float = 0.99
    seed: int = 0

    def validate(self):
        _require_positive("data", self, "patch_size", "n_patches")
        if not 0.0 < self.variance_fraction <= 1.0:
            raise ParameterError("[data] variance_fraction must be in (0, 1], "
                                 f"got {self.variance_fraction}")


@dataclass
class ModelConfig:
    n_visible: int = 0          # 0 = derive from the data
    n_subspaces: int = 256
    subspace_dim: int = 2
    n_pool_hidden: int = 256
    n_mean_hidden: int = 100
    n_phase_factors: int = 256
    n_phase_hidden: int = 256
    alpha: float = 2.0

    def shape_for(self, n_visible):
        return ModelShape(
            n_visible=n_visible,
            n_subspaces=self.n_subspaces,
            subspace_dim=self.subspace_dim,
            n_pool_hidden=self.n_pool_hidden,
            n_mean_hidden=self.n_mean_hidden,
            n_phase_factors=self.n_phase_factors,
            n_phase_hidden=self.n_phase_hidden,
        )


@dataclass
class SynthConfig:
    patch_size: int = 8
    n_subspaces: int = 8
    n_patches: int = 20000
    amplitude: float = 1.0
    noise_sigma: float = 0.02
    coupled_pairs: str = "1:2:3.0:0.0,4:7:3.0:1.5707963267948966"
    seed: int = 0

    def validate(self):
        _require_positive("synth", self, "patch_size", "n_subspaces", "n_patches")
        if not math.isfinite(self.amplitude):
            raise ParameterError(f"[synth] amplitude must be finite, got {self.amplitude}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ParameterError(f"[synth] noise_sigma must be finite and >= 0, "
                                 f"got {self.noise_sigma}")

    def parse_pairs(self):
        """The (i, j, VonMisesPair) entries of coupled_pairs; ConfigError for an
        entry that is not i:j:kappa:mu, ParameterError for a bad kappa or mu."""
        pairs = []
        text = self.coupled_pairs.strip()
        if not text:
            return pairs
        for chunk in text.split(","):
            try:    # a wrong number of fields is a ValueError too
                i, j, kappa, mu = chunk.strip().split(":")
                i, j, kappa, mu = int(i), int(j), float(kappa), float(mu)
            except ValueError:
                raise ConfigError(f"coupled_pairs entry {chunk!r} is not i:j:kappa:mu") from None
            try:
                pairs.append((i, j, VonMisesPair(kappa=kappa, mu=mu)))
            except ParameterError as err:
                raise ParameterError(f"[synth] coupled_pairs entry {chunk.strip()!r}: "
                                     f"{err}") from None
        return pairs


def _require_positive(section, config, *names):
    """A ParameterError for the first of `names`, sizes or counts, below 1."""
    for name in names:
        if getattr(config, name) < 1:
            raise ParameterError(f"[{section}] {name} must be >= 1, got {getattr(config, name)}")


@dataclass
class ExportConfig:
    what: str = "all"
    max_columns: int = 32

    def validate(self):
        _require_positive("export", self, "max_columns")


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    hmc: HmcConfig = field(default_factory=HmcConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    export: ExportConfig = field(default_factory=ExportConfig)

    def to_text(self):
        lines = []
        for section_field in fields(self):
            section = getattr(self, section_field.name)
            lines.append(f"[{section_field.name}]")
            for f in fields(section):
                value = getattr(section, f.name)
                if isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                lines.append(f"{f.name} = {value}")
            lines.append("")
        return "\n".join(lines)


def _coerce(raw, default, where):
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse value {raw!r}") from exc


def parse_run_config(text):
    config = RunConfig()
    sections = {f.name: getattr(config, f.name) for f in fields(config)}
    current = None
    current_name = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current_name = stripped[1:-1].strip()
            if current_name not in sections:
                raise ConfigError(f"line {lineno}: unknown section [{current_name}]")
            current = sections[current_name]
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        known = {f.name: f for f in fields(current)}
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current_name}]")
        default = getattr(type(current)(), key)
        setattr(current, key, _coerce(raw, default, f"line {lineno}"))
    return config


def load_run_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:     # a directory, or not UTF-8 text
        raise ConfigError(f"config file unreadable: {path}: {exc}") from exc
    return parse_run_config(text)


def save_run_config(config, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.to_text())
