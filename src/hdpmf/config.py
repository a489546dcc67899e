"""Experiment configuration: flat `key = value` files with defaults.

An empty file is a valid config: every key has a default matching the
reference experimental setting (the paper's group ratios and weight
ranges, epsilon 1, K 10, 100 epochs, 5 seeds). Paths are resolved against
HDPMF_DATA_DIR only for the default dataset location; explicit paths are
used as given.
"""

from __future__ import annotations

import math
import os
import re
import types
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .baselines import BaselineKind
from .data import MOVIELENS_SCALE
from .exceptions import ConfigError

_COMMENT = re.compile(r"(?:^|\s)#")


def default_dataset_path() -> str:
    base = os.environ.get("HDPMF_DATA_DIR", "data")
    return str(Path(base) / "ml-100k" / "u.data")


@dataclass
class ExperimentConfig:
    """Validated, fully-defaulted settings of one experiment.

    Every construction, from a file, by `dataclasses.replace` or directly,
    runs the same checks and raises ConfigError naming the offending key.
    The privacy keys are the group ratios and weight ranges from which
    `privacy.allocate_weights` draws w_ij = beta_i * gamma_j:
    conservative and moderate groups draw uniformly from [lo, mid) and
    [mid, hi); the liberal group is fixed at hi.
    """

    dataset: str = field(default_factory=default_dataset_path)
    format: str = "ml-100k"  # ml-100k | ml-1m | csv
    scale_min: float = 1.0
    scale_max: float = 5.0
    method: BaselineKind = BaselineKind.HDPMF
    k: int = 10
    epochs: int = 100
    # fixed training defaults, the same for every method; this repository
    # does not tune them
    eta0: float = 0.001
    lam: float = 0.01
    epsilon: float = 1.0
    f_uc: float = 0.54
    f_um: float = 0.37
    f_ic: float = 0.33
    f_im: float = 0.33
    eps_uc: float = 0.1
    eps_um: float = 0.5
    eps_ul: float = 1.0
    eps_ic: float = 0.1
    eps_im: float = 0.5
    eps_il: float = 1.0
    # `n_test` alone sets the held-out count; `split` stays only while
    # perfbench/workloads.py writes it (ROADMAP direction 3 deletes it)
    split: str = "leave-n-out"
    n_test: int = 10
    fraction: float = 1.0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output: str = "results.csv"
    engine: str = "kernel"  # kernel | messages
    trace: str | None = None
    loss_trace: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f.name, f"must be finite, got {value}")
        if self.format not in ("ml-100k", "ml-1m", "csv"):
            raise ConfigError("format", f"must be ml-100k, ml-1m, or csv, got {self.format!r}")
        if self.k < 1:
            raise ConfigError("k", f"must be >= 1, got {self.k}")
        if self.epochs < 1:
            raise ConfigError("epochs", f"must be >= 1, got {self.epochs}")
        if self.eta0 <= 0:
            raise ConfigError("eta0", f"must be > 0, got {self.eta0}")
        if self.lam < 0:
            raise ConfigError("lam", f"must be >= 0, got {self.lam}")
        if self.scale_max <= self.scale_min:
            raise ConfigError("scale_max", "rating scale must have positive range")
        if not math.isfinite(self.scale_max - self.scale_min):
            # the range is the sensitivity behind every noise scale
            raise ConfigError("scale_max", f"rating scale [{self.scale_min}, {self.scale_max}] has a range past the float maximum")
        if self.format != "csv":
            for name, fixed in zip(("scale_min", "scale_max"), MOVIELENS_SCALE):
                if getattr(self, name) != fixed:
                    raise ConfigError(name, f"the {self.format} scale is fixed: must be {fixed}, got {getattr(self, name)}")
        if self.split != "leave-n-out":
            raise ConfigError("split", f"must be leave-n-out, got {self.split!r}; n_test sets the held-out "
                              "count (for leave-one-out, set n_test = 1)")
        if not 1 <= self.n_test < 1 << 63:
            raise ConfigError("n_test", f"must be in [1, 2**63), the range of int64, got {self.n_test}")
        if not (0.0 < self.fraction <= 1.0):
            raise ConfigError("fraction", f"must be in (0, 1], got {self.fraction}")
        if not self.seeds:
            raise ConfigError("seeds", "need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds", "duplicate seeds")
        if not all(0 <= s < 1 << 64 for s in self.seeds):
            raise ConfigError("seeds", "must be in [0, 2**64), the width of the noise-plan key")
        if self.engine not in ("kernel", "messages"):
            raise ConfigError("engine", f"must be kernel or messages, got {self.engine!r}")
        if self.trace is not None and self.engine != "messages":
            raise ConfigError("trace", "run traces require engine = messages")
        if self.epsilon <= 0:
            raise ConfigError("epsilon", f"must be > 0, got {self.epsilon}")
        # Each privacy field is checked against the fields before it in its
        # group, so an error names the first field that breaks the order.
        for con, mod in (("f_uc", "f_um"), ("f_ic", "f_im")):
            for name in (con, mod):
                value = getattr(self, name)
                if not 0.0 <= value <= 1.0:
                    raise ConfigError(name, f"must be in [0, 1], got {value}")
            if getattr(self, con) + getattr(self, mod) > 1.0 + 1e-12:
                raise ConfigError(mod, f"{con} + {mod} must be <= 1")
        for names in (("eps_uc", "eps_um", "eps_ul"), ("eps_ic", "eps_im", "eps_il")):
            lo, mid, hi = (getattr(self, name) for name in names)
            for name, ok in zip(names, (0.0 < lo <= 1.0, lo <= mid <= 1.0, mid <= hi <= 1.0)):
                if not ok:
                    raise ConfigError(
                        name, f"weight ranges must satisfy 0 < {' <= '.join(names)} <= 1, got {(lo, mid, hi)}"
                    )
        # every weight w_ij = beta_i * gamma_j is at least eps_uc * eps_ic
        if self.eps_uc * self.eps_ic == 0:
            raise ConfigError(
                "eps_ic", f"the smallest weight eps_uc * eps_ic = {self.eps_uc} * {self.eps_ic} underflows to 0"
            )

    @property
    def effective_eta0(self) -> float:
        """`eta0`, under the name that `perfbench/worker.py` reads; nothing
        in the package does."""
        return self.eta0

    def effective_items(self) -> list[tuple[str, str]]:
        """All settings after defaults, for provenance echoes."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "method":
                value = value.value
            elif f.name == "seeds":
                value = ",".join(str(s) for s in value)
            out.append((f.name, str(value)))
        return out


_TYPES = get_type_hints(ExperimentConfig)


def _parse_value(kind, raw: str):
    """Parse the text of a value by its field's declared type."""
    if kind == tuple[int, ...]:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    if kind is BaselineKind:
        return BaselineKind(raw.lower())
    if isinstance(kind, types.UnionType):  # `X | None` reads as X
        kind, _ = get_args(kind)
    return kind(raw)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read a `key = value` config file and build the config from it.

    `#` starts a comment at the beginning of a line or after whitespace;
    elsewhere it is part of the value. A key is unknown unless it names a
    field of ExperimentConfig.

    Raises ConfigError naming the offending key.
    """
    values: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = _COMMENT.split(line, 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {line_no}", f"expected 'key = value', got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in _TYPES:
                raise ConfigError(key, "unknown key")
            if key in values:
                raise ConfigError(key, "set more than once")
            try:
                values[key] = _parse_value(_TYPES[key], raw.strip())
            except ValueError as exc:
                raise ConfigError(key, str(exc)) from None
    return ExperimentConfig(**values)
