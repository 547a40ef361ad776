"""Command-line interface: simulate probability tables, reconstruct states, sweep angles.

The run config is the argparse Namespace itself: config_from_args parses
--shots, --theta and --out into their final types in place, and every command
reads its values from it. The CLI checks its own policy and, since an exact
simulate or reconstruct derives no stream, --seed; the budget is the library's
(sampling.split_budget), and so is the trial count, which only a sweep has
(metrics.theta_sweep).

The cmd_* functions only compute: each returns what is to be written, one
output per file in file order, and main writes it. An output is a text, or
the body of a JSON document, to which main adds the command and its config
echo (_document) before rendering it. The files are --out and then the one
_companion names, if any: <stem>.sampled.csv for a CSV simulate --shots N,
<stem>.summary.json for a CSV reconstruct. _companion is the one rule for
which files a run writes, read both by config_from_args's path check and by
the writer. A JSON run has one output, its document's body; a CSV simulate
returns its texts lazily, so that one large text is alive at a time. Every
file goes through serialize.atomic_write_text.

Exit codes: 0 success; 2 invalid input, that is any InvalidParameterError
from the command line or the library, or an output path that cannot be
written (an empty --out, and an --out or a file a CSV run writes beside it
that names anything but a regular file, a symbolic link too, are refused
before anything is written); 3 degenerate protocol input (a singular angle,
or a raw estimate norm at or below its floor, which a small amplitude sum, a
small sin(theta)/d or too few shots per setting can each cause); 1 internal
error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .errors import (
    DegenerateAngleError,
    InvalidParameterError,
    VanishingTildePsiError,
    require_integer,
)
from .metrics import fidelity, sampled_reconstruction, theta_sweep
from .protocol import CouplingStrength, joint_probabilities
from .reconstruction import phase_convention, reconstruct_exact
from .sampling import measure_probsets
from .states import SystemState, make_system_state, momentum_zero_state


# Caps that keep one command near a 1 GiB working set (tracemalloc peaks of a
# second run in one process, state random:1, N = 10**7). Per position at
# d = 2**16, the four largest commands peak at about 1,007 B (`simulate --shots
# N`, JSON, most of it the text and its UTF-8 copy in the write), 633 B (exact
# `simulate`, JSON), 479 B (`simulate --shots N`, CSV) and 330 B (`reconstruct
# --shots N`, JSON); a sampled sweep's (trials, d, 6) stack of tables and the
# complex rows inverted from it peak at about 81 B per (trial, position), and its
# groups of angles (metrics._GROUP_ROWS) keep that peak for any number of angles.
MAX_DIM = 2**18
MAX_TRIAL_POSITIONS = 2**23


_PI_FORM = re.compile(r"^(-?\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Parse a radian value; accepts pi forms such as 'pi', 'pi/2', '3*pi/4'."""
    s = text.strip().lower()
    if "pi" in s:
        m = _PI_FORM.match(s)
        if m is None:
            raise InvalidParameterError(f"cannot parse angle {text!r}")
        coefficient = float(m.group(1)) if m.group(1) else 1.0
        divisor = float(m.group(2)) if m.group(2) else 1.0
        if divisor == 0.0:
            raise InvalidParameterError(f"cannot parse angle {text!r}: division by zero")
        return coefficient * math.pi / divisor
    try:
        return float(s)
    except ValueError:
        raise InvalidParameterError(f"cannot parse angle {text!r}") from None


def parse_thetas(text: str) -> tuple[float, ...]:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise InvalidParameterError("no angle given")
    return tuple(parse_angle(t) for t in tokens)


def parse_shots(text: str) -> int | str:
    """'exact' or the budget as an int; its range is sampling.split_budget's rule."""
    s = text.strip().lower()
    if s == "exact":
        return "exact"
    try:
        return int(s)
    except ValueError:
        raise InvalidParameterError(f"shots must be an integer or 'exact', got {text!r}") from None


def _parse_complex(token: str) -> complex:
    s = token.strip().replace(" ", "")
    for candidate in (s, s.replace("i", "j")):
        try:
            return complex(candidate)
        except ValueError:
            continue
    raise InvalidParameterError(f"cannot parse amplitude {token!r}")


# the argument of each preset kind:spec, with the name a parse error gives it
_PRESET_ARGUMENTS = {
    "basis": (int, "basis index"), "gaussian": (float, "width"), "random": (int, "seed")
}


def build_state(dim: int, spec: str) -> SystemState:
    """Resolve a state spec: explicit amplitude list or a named preset."""
    text = spec.strip()
    if text == "uniform":
        return momentum_zero_state(dim)
    kind, colon, argument = text.partition(":")
    if colon and kind in _PRESET_ARGUMENTS:
        convert, label = _PRESET_ARGUMENTS[kind]
        try:
            value = convert(argument)
        except ValueError:
            raise InvalidParameterError(f"bad {label} in {spec!r}") from None
        if kind == "basis":
            if not 0 <= value < dim:
                raise InvalidParameterError(f"basis index {value} outside [0, {dim})")
            amps = np.zeros(dim, dtype=np.complex128)
            amps[value] = 1.0
            return SystemState(amps)
        if kind == "gaussian":
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameterError(
                    f"gaussian width must be positive and finite, got {value}"
                )
            xs = np.arange(dim, dtype=np.float64)
            center = 0.5 * (dim - 1)
            # a narrow width overflows the exponent, or divides by a zero
            # width squared, leaving zero weights; an odd d's centre weight is
            # exp(-0.0) == 1.0 at any width, set so that 0 / 0 makes no nan there
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                weights = np.exp(-((xs - center) ** 2) / (4.0 * value * value))
            weights[xs == center] = 1.0
            if not (weights > 0.0).any():
                raise InvalidParameterError(
                    f"gaussian width {value} is too narrow for d = {dim}: no weight is positive"
                )
            return make_system_state(weights)
        # kind == "random"
        if value < 0:
            raise InvalidParameterError(f"state seed must be nonnegative, got {value}")
        rng = np.random.default_rng(value)
        for _ in range(1000):
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state = make_system_state(vec)
            if abs(state.amplitudes.sum()) > 0.1:
                return state
        raise InvalidParameterError(
            "random state generation failed to clear the amplitude-sum floor"
        )
    if "," in text:
        values = [_parse_complex(t) for t in text.split(",")]
        if len(values) != dim:
            raise InvalidParameterError(f"state list has {len(values)} entries, expected {dim}")
        return make_system_state(values)
    raise InvalidParameterError(f"unrecognized state spec {spec!r}")


def config_from_args(args: argparse.Namespace) -> None:
    """Parse the flags in place and check the CLI's policy, making the Namespace the run config.

    shots becomes an int or "exact", theta a tuple of angles and out a Path.
    """
    if args.dim < 2:
        raise InvalidParameterError(f"--dim must be >= 2, got {args.dim}")
    if args.dim > MAX_DIM:
        raise InvalidParameterError(
            f"--dim {args.dim} is above the cap of {MAX_DIM} positions (about 1 GiB of memory)"
        )
    require_integer(args.seed, "seed")
    args.shots = shots = parse_shots(args.shots)
    sampled_sweep = args.command == "sweep" and shots != "exact"
    if sampled_sweep and args.dim * args.trials > MAX_TRIAL_POSITIONS:
        raise InvalidParameterError(
            f"--dim * --trials = {args.dim * args.trials} is above the cap of"
            f" {MAX_TRIAL_POSITIONS} for a sampled sweep (about 1 GiB of memory)"
        )
    args.theta = parse_thetas(args.theta)
    # OSErrors, so they exit 2 as "cannot write output" before anything is
    # written. The write renames over its target, which would replace a
    # directory, a FIFO, a device node or a symbolic link, dangling or not
    # (writing through a link would put the temp file and the rename in a
    # directory never checked here); stat alone decides, as opening a FIFO
    # blocks
    if not args.out:
        raise FileNotFoundError("the --out path is empty")
    args.out = Path(args.out)
    for path in (args.out, _companion(args)):
        if path is not None and (path.is_symlink() or path.exists() and not path.is_file()):
            raise FileExistsError(f"{str(path)!r} exists and is not a regular file")


def _single_strength(args: argparse.Namespace) -> CouplingStrength:
    if len(args.theta) != 1:
        raise InvalidParameterError("this command takes exactly one --theta value")
    strength = CouplingStrength(args.theta[0])
    strength.require_invertible()
    return strength


def _companion(args: argparse.Namespace) -> Path | None:
    """The file a run writes beside --out: a CSV run's sampled table or summary, else None."""
    if args.fmt != "csv":
        return None
    # joined to the parent, not with_name, which raises on a nameless --out
    # such as "." before config_from_args can refuse it
    if args.command == "simulate" and args.shots != "exact":
        return args.out.parent / f"{args.out.stem}.sampled{args.out.suffix}"
    if args.command == "reconstruct":
        return args.out.parent / f"{args.out.stem}.summary.json"
    return None


def cmd_simulate(args: argparse.Namespace):
    psi = build_state(args.dim, args.state)
    strength = _single_strength(args)
    tables = {"exact": joint_probabilities(psi, strength)}
    if args.shots != "exact":
        tables["sampled"] = measure_probsets(psi, strength, args.shots, args.seed)[0]
    if args.fmt == "csv":
        return map(serialize.probability_csv, tables.values())
    return [{name: serialize.probability_records(table) for name, table in tables.items()}]


def cmd_reconstruct(args: argparse.Namespace):
    psi = build_state(args.dim, args.state)
    strength = _single_strength(args)
    if args.shots == "exact":
        result = reconstruct_exact(psi, strength)
    else:
        result = sampled_reconstruction(psi, strength, args.shots, args.seed)
    estimate = result.estimate.amplitudes
    truth = phase_convention(psi.amplitudes)
    summary = {
        "fidelity": fidelity(result.estimate, psi),
        "tilde_psi_magnitude": result.tilde_psi_magnitude,
        "postselection_probability": result.postselection_probability,
        "shots_used": result.shots_used,
    }
    if args.fmt == "csv":
        return serialize.reconstruction_csv(estimate, truth), summary
    return [{**summary, "estimate": estimate, "truth": truth}]


def cmd_sweep(args: argparse.Namespace):
    if len(args.theta) < 2:
        raise InvalidParameterError("sweep needs at least two --theta values")
    psi = build_state(args.dim, args.state)
    stats = theta_sweep(psi, args.theta, args.shots, args.trials, args.seed)
    if args.fmt == "csv":
        return [serialize.sweep_csv(stats)]
    return [{"results": [s._asdict() for s in stats]}]


def _document(args: argparse.Namespace, body: dict) -> dict:
    """A JSON document: body's entries under the command and its config echo."""
    keys = ("dim", "state", "theta", "shots", "trials", "seed")
    return {"command": args.command, "config": {key: getattr(args, key) for key in keys}, **body}


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


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {"simulate": cmd_simulate, "reconstruct": cmd_reconstruct, "sweep": cmd_sweep}
    try:
        config_from_args(args)
        outputs = iter(commands[args.command](args))
        for path in filter(None, (args.out, _companion(args))):
            text = next(outputs)
            if isinstance(text, dict):
                text = serialize.render_json(_document(args, text))
            serialize.atomic_write_text(path, text)
            del text  # freed before the next one is made, so one large text is alive at a time
        return 0
    except (InvalidParameterError, OSError) as exc:
        # nothing but writing the output touches the file system
        reason = "cannot write output: " if isinstance(exc, OSError) else ""
        print(f"error: {reason}{exc}", file=sys.stderr)
        return 2
    except (DegenerateAngleError, VanishingTildePsiError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - safety net for the console script
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
