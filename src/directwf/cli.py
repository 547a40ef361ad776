"""Command-line interface: simulate probability tables, reconstruct states, sweep angles.

Exit codes: 0 success, 2 configuration error, 3 degenerate protocol input
(singular angle or vanishing amplitude sum), 1 internal error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialize
from .errors import (
    DegenerateAngleError,
    DirectMeasurementError,
    InvalidParameterError,
    VanishingTildePsiError,
)
from .metrics import fidelity, sampled_reconstruction, theta_sweep
from .protocol import CouplingStrength, joint_probabilities
from .reconstruction import phase_convention, reconstruct_exact
from .sampling import measure_probsets
from .states import SystemState, make_system_state, momentum_zero_state


class ConfigError(Exception):
    """Invalid command-line configuration."""


# Caps that keep one command near a 1 GiB working set (tracemalloc peaks).
# Per position, the largest command is `simulate --shots N` with JSON output,
# about 4 KB; a sampled sweep's (trials, d, 6) stack of tables and the complex
# rows inverted from it peak at about 82 B per (trial, position).
MAX_DIM = 2**18
MAX_TRIAL_POSITIONS = 2**23


_PI_FORM = re.compile(r"^(-?\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Parse a radian value; accepts pi forms such as 'pi', 'pi/2', '3*pi/4'."""
    s = text.strip().lower()
    if "pi" in s:
        m = _PI_FORM.match(s)
        if m is None:
            raise ConfigError(f"cannot parse angle {text!r}")
        coefficient = float(m.group(1)) if m.group(1) else 1.0
        divisor = float(m.group(2)) if m.group(2) else 1.0
        if divisor == 0.0:
            raise ConfigError(f"cannot parse angle {text!r}: division by zero")
        return coefficient * math.pi / divisor
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None


def parse_thetas(text: str) -> tuple[float, ...]:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("no angle given")
    return tuple(parse_angle(t) for t in tokens)


def parse_shots(text: str) -> int | str:
    s = text.strip().lower()
    if s == "exact":
        return "exact"
    try:
        shots = int(s)
    except ValueError:
        raise ConfigError(f"shots must be a positive integer or 'exact', got {text!r}") from None
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")
    # shots are drawn as 64-bit integers
    if shots >= 2**63:
        raise ConfigError(f"shots must be below 2**63, got {shots}")
    return shots


def _parse_complex(token: str) -> complex:
    s = token.strip().replace(" ", "")
    for candidate in (s, s.replace("i", "j")):
        try:
            return complex(candidate)
        except ValueError:
            continue
    raise ConfigError(f"cannot parse amplitude {token!r}")


def build_state(dim: int, spec: str) -> SystemState:
    """Resolve a state spec: explicit amplitude list or a named preset."""
    text = spec.strip()
    if text == "uniform":
        return momentum_zero_state(dim)
    if text.startswith("basis:"):
        try:
            k = int(text.partition(":")[2])
        except ValueError:
            raise ConfigError(f"bad basis index in {spec!r}") from None
        if not 0 <= k < dim:
            raise ConfigError(f"basis index {k} outside [0, {dim})")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[k] = 1.0
        return SystemState(amps)
    if text.startswith("gaussian:"):
        try:
            sigma = float(text.partition(":")[2])
        except ValueError:
            raise ConfigError(f"bad width in {spec!r}") from None
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ConfigError(f"gaussian width must be positive and finite, got {sigma}")
        xs = np.arange(dim, dtype=np.float64)
        center = 0.5 * (dim - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = np.exp(-((xs - center) ** 2) / (4.0 * sigma * sigma))
        try:
            return make_system_state(weights)
        except DirectMeasurementError as exc:
            raise ConfigError(f"invalid gaussian state {spec!r}: {exc}") from None
    if text.startswith("random:"):
        try:
            seed = int(text.partition(":")[2])
        except ValueError:
            raise ConfigError(f"bad seed in {spec!r}") from None
        if seed < 0:
            raise ConfigError(f"state seed must be nonnegative, got {seed}")
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state = make_system_state(vec)
            if abs(state.amplitudes.sum()) > 0.1:
                return state
        raise ConfigError("random state generation failed to clear the amplitude-sum floor")
    if "," in text:
        values = [_parse_complex(t) for t in text.split(",")]
        if len(values) != dim:
            raise ConfigError(f"state list has {len(values)} entries, expected {dim}")
        try:
            return make_system_state(values)
        except DirectMeasurementError as exc:
            raise ConfigError(f"invalid state list: {exc}") from None
    raise ConfigError(f"unrecognized state spec {spec!r}")


@dataclass(frozen=True)
class RunConfig:
    dim: int
    state_spec: str
    thetas: tuple[float, ...]
    shots: int | str
    trials: int
    seed: int
    out: Path
    fmt: str


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.dim < 2:
        raise ConfigError(f"--dim must be >= 2, got {args.dim}")
    if args.dim > MAX_DIM:
        raise ConfigError(
            f"--dim {args.dim} is above the cap of {MAX_DIM} positions (about 1 GiB of memory)"
        )
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    shots = parse_shots(args.shots)
    if shots != "exact" and shots < 3 * args.dim:
        raise ConfigError(
            f"--shots {shots} is below the 3*dim = {3 * args.dim} settings of one scan"
        )
    sampled_sweep = args.command == "sweep" and shots != "exact"
    if sampled_sweep and args.dim * args.trials > MAX_TRIAL_POSITIONS:
        raise ConfigError(
            f"--dim * --trials = {args.dim * args.trials} is above the cap of"
            f" {MAX_TRIAL_POSITIONS} for a sampled sweep (about 1 GiB of memory)"
        )
    return RunConfig(
        dim=args.dim,
        state_spec=args.state,
        thetas=parse_thetas(args.theta),
        shots=shots,
        trials=args.trials,
        seed=args.seed,
        out=Path(args.out),
        fmt=args.fmt,
    )


def _config_doc(cfg: RunConfig) -> dict:
    return {
        "dim": cfg.dim,
        "state": cfg.state_spec,
        "theta": list(cfg.thetas),
        "shots": cfg.shots,
        "trials": cfg.trials,
        "seed": cfg.seed,
    }


def _single_strength(cfg: RunConfig) -> CouplingStrength:
    if len(cfg.thetas) != 1:
        raise ConfigError("this command takes exactly one --theta value")
    strength = CouplingStrength(cfg.thetas[0])
    strength.require_invertible()
    return strength


def _sibling(path: Path, tag: str) -> Path:
    return path.with_name(f"{path.stem}.{tag}{path.suffix}")


def cmd_simulate(cfg: RunConfig) -> int:
    psi = build_state(cfg.dim, cfg.state_spec)
    strength = _single_strength(cfg)
    exact = joint_probabilities(psi, strength)
    sampled = None
    if cfg.shots != "exact":
        sampled = measure_probsets(psi, strength, cfg.shots, cfg.seed)[0][0]
    if cfg.fmt == "csv":
        serialize.atomic_write_text(
            cfg.out,
            serialize.render_csv(
                serialize.PROBABILITY_COLUMNS, serialize.probability_rows(exact)
            ),
        )
        if sampled is not None:
            serialize.atomic_write_text(
                _sibling(cfg.out, "sampled"),
                serialize.render_csv(
                    serialize.PROBABILITY_COLUMNS, serialize.probability_rows(sampled)
                ),
            )
    else:
        doc = {
            "command": "simulate",
            "config": _config_doc(cfg),
            "exact": serialize.probability_dicts(exact),
        }
        if sampled is not None:
            doc["sampled"] = serialize.probability_dicts(sampled)
        serialize.atomic_write_text(cfg.out, serialize.dump_json(doc))
    return 0


def cmd_reconstruct(cfg: RunConfig) -> int:
    psi = build_state(cfg.dim, cfg.state_spec)
    strength = _single_strength(cfg)
    if cfg.shots == "exact":
        result = reconstruct_exact(psi, strength)
    else:
        result = sampled_reconstruction(psi, strength, cfg.shots, cfg.seed)
    fid = fidelity(result.estimate, psi)
    truth = phase_convention(psi.amplitudes)
    summary = {
        "fidelity": fid,
        "tilde_psi_magnitude": result.tilde_psi_magnitude,
        "postselection_probability": result.postselection_probability,
        "shots_used": result.shots_used
        if isinstance(result.shots_used, str)
        else list(result.shots_used),
    }
    if cfg.fmt == "csv":
        serialize.atomic_write_text(
            cfg.out,
            serialize.render_csv(
                serialize.RECONSTRUCTION_COLUMNS,
                serialize.reconstruction_rows(result.estimate.amplitudes, truth),
            ),
        )
        serialize.atomic_write_text(
            cfg.out.with_name(cfg.out.stem + ".summary.json"),
            serialize.dump_json({"command": "reconstruct", "config": _config_doc(cfg), **summary}),
        )
    else:
        doc = {
            "command": "reconstruct",
            "config": _config_doc(cfg),
            "estimate": serialize.complex_pairs(result.estimate.amplitudes),
            "truth": serialize.complex_pairs(truth),
            **summary,
        }
        serialize.atomic_write_text(cfg.out, serialize.dump_json(doc))
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if len(cfg.thetas) < 2:
        raise ConfigError("sweep needs at least two --theta values")
    psi = build_state(cfg.dim, cfg.state_spec)
    stats = theta_sweep(psi, cfg.thetas, cfg.shots, cfg.trials, cfg.seed)
    if cfg.fmt == "csv":
        serialize.atomic_write_text(
            cfg.out,
            serialize.render_csv(serialize.SWEEP_COLUMNS, serialize.sweep_rows(stats)),
        )
    else:
        doc = {
            "command": "sweep",
            "config": _config_doc(cfg),
            "results": [serialize.stats_dict(s) for s in stats],
        }
        serialize.atomic_write_text(cfg.out, serialize.dump_json(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="directwf",
        description="Simulate qubit-pointer direct measurement of a d-dimensional "
        "wavefunction and reconstruct it from joint probabilities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--dim", type=int, required=True, help=f"number of positions d (2 to {MAX_DIM})"
    )
    common.add_argument(
        "--state",
        default="uniform",
        help="amplitude list 'a0,a1,...' or preset: uniform | basis:k | "
        "gaussian:sigma | random:seed (default: uniform)",
    )
    common.add_argument(
        "--theta",
        required=True,
        help="coupling angle in radians; accepts pi forms like pi/2; "
        "sweep takes a comma-separated list",
    )
    common.add_argument(
        "--shots",
        default="exact",
        help="total shot budget split over all 3d settings, or 'exact' (default)",
    )
    common.add_argument(
        "--trials",
        type=int,
        default=100,
        help="Monte Carlo repetitions for sweep; a sampled sweep needs "
        f"dim * trials <= {MAX_TRIAL_POSITIONS}",
    )
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--out", required=True, help="output file path")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", dest="fmt",
        help="output format (default: json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="write per-position probability tables")
    sub.add_parser("reconstruct", parents=[common], help="reconstruct the state and compare to truth")
    sub.add_parser("sweep", parents=[common], help="trial statistics across coupling angles")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {"simulate": cmd_simulate, "reconstruct": cmd_reconstruct, "sweep": cmd_sweep}
    try:
        cfg = config_from_args(args)
        return commands[args.command](cfg)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateAngleError, VanishingTildePsiError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except DirectMeasurementError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - safety net for the console script
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
