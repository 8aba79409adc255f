"""Command-line surface: polynomial expansion, triple calculus, limit checks,
and the simulation campaigns, with JSON/CSV outputs and run manifests.

Exit codes are a stable contract: 0 success/pass, 1 verification failure,
2 usage or schema error (a freelevy error class), 3 numeric failure, 4
internal error (any other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .levy import (
    GeneratingPair,
    GeneratingTriple,
    LevyError,
    VariationMap,
    bernoulli_family,
    bp_limit_check,
    shifted_atom_family,
    symmetric_pm_family,
    triple_to_cumulants,
    triple_to_pair,
    pair_to_triple,
    variation_triple,
)
from .measures import MeasureError, NumericError, _is_real, _real, _rounded, dumps
from .ncsym import (
    NCSymError,
    composition_of,
    distinct_neighbor_bruteforce,
    expand_letters,
    p_basis,
    psi_poly,
    stochastic_integral_poly,
)
from .partitions import Composition, PartitionError, zero_partition
from .rmt import (
    CONFIG_EXTRAS,
    SimConfig,
    SimError,
    histogram_csv_lines,
    matricial_cauchy,
    mixed_decay,
    sample_gue,
    stream,
    verify_integral_identity,
    verify_variation,
)
from .transforms import ConvergenceError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    """An input flag is missing or malformed, or its file is unreadable or not JSON."""


_SCHEMA_ERRORS = (InputError, LevyError, MeasureError, NCSymError, PartitionError, SimError)


class _ManifestWriter:
    """Collects inputs/outputs of one run and writes `<stem>.manifest.json`."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.arguments = {k: v for k, v in vars(args).items() if v is not None}
        self.inputs = []
        self.outputs = []
        self.started = time.time()

    def write(self, exit_status: int):
        if not self.outputs:
            return
        first = self.outputs[0]
        manifest_path = Path(first.rsplit(".", 1)[0] + ".manifest.json")
        payload = {
            "command": self.command,
            "arguments": self.arguments,
            "inputs": [str(p) for p in self.inputs],
            "outputs": [str(p) for p in self.outputs],
            "duration_seconds": time.time() - self.started,
            "exit_status": exit_status,
            "version": __version__,
        }
        manifest_path.write_text(dumps(payload))

    def emit(self, path: Path, text: str):
        Path(path).write_text(text)
        self.outputs.append(str(path))


def _flag_numbers(flag: str, text: str, kind) -> list:
    """The comma-separated numbers in a flag's value, each read by `kind` (int or float)."""
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} takes comma-separated {kind.__name__}s, got {text!r}") from None


def _parse_map_spec(spec: str) -> VariationMap:
    kind, _, rest = spec.partition(":")
    if kind == "pow" and "," not in rest:
        return VariationMap.power(_flag_numbers("--p", rest, int)[0])
    if kind == "poly":
        return VariationMap.polynomial(_flag_numbers("--p", rest, float))
    raise LevyError(f"--p must be pow:k or poly:c1,c2,..., got {spec!r}")


# -- ncsym --------------------------------------------------------------------


def cmd_ncsym(args) -> int:
    if args.kind == "distinct":
        if args.composition:
            comp = Composition(_flag_numbers("--composition", args.composition, int))
        elif args.k is not None:
            comp = Composition([1] * args.k)
        else:
            raise NCSymError("distinct needs --k or --composition")
        sigma = comp.to_partition()
        poly = p_basis(sigma)
        print(poly)
        if args.verify:
            lhs = expand_letters(poly, args.letters)
            rhs = distinct_neighbor_bruteforce(composition_of(sigma), args.letters)
            ok = lhs == rhs
            print("VERIFY PASS" if ok else "VERIFY FAIL")
            return EXIT_OK if ok else EXIT_VERIFY_FAIL
        return EXIT_OK
    if args.kind == "psi":
        if args.n is None:
            raise NCSymError("psi needs --n")
        print(psi_poly(args.n))
        return EXIT_OK
    if args.k is None:
        raise NCSymError("integral needs --k")
    poly = stochastic_integral_poly(args.k)
    print(poly)
    if args.verify:
        renamed = poly.rename(lambda gen: ("p", gen[1]), "p")
        ok = renamed == p_basis(zero_partition(args.k))
        print("VERIFY PASS" if ok else "VERIFY FAIL")
        return EXIT_OK if ok else EXIT_VERIFY_FAIL
    return EXIT_OK


# -- levy ----------------------------------------------------------------------


def _read_json(path, manifest):
    manifest.inputs.append(str(path))
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, undecodable bytes, oversized integers
        raise InputError(f"{path} is not JSON: {exc}") from None


def _write_or_print(data, args, manifest, default_name: str):
    text = dumps(data)
    if args.out:
        target = Path(args.out)
        if target.suffix != ".json":
            target = target / default_name
        target.parent.mkdir(parents=True, exist_ok=True)
        manifest.emit(target, text)
    else:
        print(text)


_BP_FAMILIES = {
    "bernoulli": lambda args: bernoulli_family(args.lam),
    "drift": lambda args: shifted_atom_family(args.c),
    "symmetric": lambda args: symmetric_pm_family(),
}


def cmd_levy(args, manifest) -> int:
    for flag, value in (("--lam", args.lam), ("--c", args.c)):
        _real(value, flag, InputError)
    if args.action != "bp-check" and args.input is None:
        raise InputError(f"levy {args.action} needs --input")
    if args.action == "to-pair":
        triple = GeneratingTriple.from_json(_read_json(args.input, manifest))
        _write_or_print(triple_to_pair(triple).to_json(), args, manifest, "pair.json")
        return EXIT_OK
    if args.action == "to-triple":
        pair = GeneratingPair.from_json(_read_json(args.input, manifest))
        _write_or_print(pair_to_triple(pair).to_json(), args, manifest, "triple.json")
        return EXIT_OK
    if args.action == "variation":
        triple = GeneratingTriple.from_json(_read_json(args.input, manifest))
        vm = _parse_map_spec(args.p)
        out = variation_triple(triple, vm)
        _write_or_print(out.to_json(), args, manifest, "variation.json")
        return EXIT_OK
    if args.action == "cumulants":
        triple = GeneratingTriple.from_json(_read_json(args.input, manifest))
        kappas = _rounded(triple_to_cumulants(triple, args.n),
                          "the cumulants of the triple overflow")
        _write_or_print({"cumulants": kappas}, args, manifest, "cumulants.json")
        return EXIT_OK
    ns = _flag_numbers("--ns", args.ns, int)
    report = bp_limit_check(_BP_FAMILIES[args.family](args), ns)
    lines = ["N,gamma,gamma_residual,sigma_mass,sigma_mean"]
    for i, n in enumerate(report.ns):
        sig = report.sigma_by_n[i]
        lines.append(
            f"{n},{float(report.gamma_by_n[i])!r},{report.gamma_residuals[i]!r},"
            f"{float(sig.total_mass)!r},{float(sig.integrate(lambda x: x))!r}"
        )
    summary = {
        "gamma": report.gamma,
        "sigma_mass": report.sigma_mass,
        "sigma_mean": report.sigma_mean,
        "sigma_atoms": [[float(x), float(m)] for x, m in (report.sigma_atoms or [])],
        "pair": report.pair().to_json(),
    }
    text = dumps(summary)  # rendered first, so a failed run writes nothing
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest.emit(out_dir / "bp_check.csv", "\n".join(lines) + "\n")
        manifest.emit(out_dir / "bp_check.json", text)
    else:
        print("\n".join(lines))
        print(text)
    return EXIT_OK


# -- sim ------------------------------------------------------------------------


def _load_sim_config(path, subcommand, manifest):
    raw = _read_json(path, manifest)
    cfg = SimConfig.from_json(raw)
    other = set().union(*CONFIG_EXTRAS.values()) - CONFIG_EXTRAS[subcommand]
    foreign = sorted(set(raw) & other)
    if foreign:
        raise SimError(f"config keys not used by sim {subcommand}: {', '.join(foreign)}")
    return cfg, raw


def _write_report(report, out_dir: Path, stem: str, manifest) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest.emit(out_dir / f"{stem}.json", report.dumps())
    for name, hist in report.histograms.items():
        manifest.emit(
            out_dir / f"{stem}_{name}.csv",
            "\n".join(histogram_csv_lines(hist)) + "\n",
        )


def _real_array(value, ndim: int):
    """value as a float array with ndim axes, or None if it is not one."""
    arr = np.array(value, dtype=object)
    if arr.ndim == ndim and all(_is_real(v) for v in arr.flat):
        return arr.astype(float)
    return None


def _matcauchy_inputs(raw):
    """B as a complex matrix from its [re, im] entries, and the A matrices."""
    b = _real_array(raw.get("B"), 3)
    if b is None or b.shape[2] != 2:
        raise SimError("sim matcauchy needs 'B': a k x k matrix of [re, im] entries")
    a = raw.get("A")
    a_mats = [_real_array(m, 2) for m in a] if isinstance(a, list) else None
    if a_mats is None or any(m is None for m in a_mats):
        raise SimError("sim matcauchy needs 'A': a list of real k x k matrices")
    return b[..., 0] + 1j * b[..., 1], a_mats


def cmd_sim(args, manifest) -> int:
    cfg, raw = _load_sim_config(args.config, args.subcommand, manifest)
    out_dir = Path(args.out) if args.out else None
    if args.subcommand == "matcauchy":
        b_mat, a_mats = _matcauchy_inputs(raw)
        x_mats = [
            sample_gue(cfg.d, stream(cfg.master_seed, i, "gue_a"))
            for i in range(len(a_mats))
        ]
        out = matricial_cauchy(b_mat, a_mats, x_mats)
        payload = {
            "config": raw,
            "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in out],
            "version": __version__,
        }
        if out_dir:
            out_dir.mkdir(parents=True, exist_ok=True)
            manifest.emit(out_dir / "matcauchy.json", dumps(payload))
        else:
            print(dumps(payload))
        print(f"matcauchy k={b_mat.shape[0]} d={cfg.d}")
        return EXIT_OK

    # built at call time, so a patched module-level name is the one run
    campaign = {"variation": verify_variation, "identity": verify_integral_identity,
                "mixed": mixed_decay}[args.subcommand]
    extras = {key: raw[key] for key in CONFIG_EXTRAS[args.subcommand] if key in raw}
    report = campaign(cfg, threads=args.threads, **extras)
    # each campaign defaults and checks its own extras, so the stem is read back
    tag = report.extras.get("mode", "").replace("-", "_") or f"k{report.extras['k']}"
    if out_dir:
        _write_report(report, out_dir, f"{args.subcommand}_{tag}", manifest)
    else:
        print(report.dumps())
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freelevy",
        description="Free Levy process calculus and random-matrix verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    nc = sub.add_parser("ncsym", help="noncommutative symmetric polynomials")
    nc.add_argument("kind", choices=["distinct", "psi", "integral"])
    nc.add_argument("--k", type=int)
    nc.add_argument("--n", type=int)
    nc.add_argument("--composition", type=str)
    nc.add_argument("--letters", type=int, default=3)
    nc.add_argument("--verify", action="store_true")

    lv = sub.add_parser("levy", help="generating triple calculus")
    lv.add_argument(
        "action", choices=["to-pair", "to-triple", "variation", "cumulants", "bp-check"]
    )
    lv.add_argument("--input", type=str)
    lv.add_argument("--p", type=str, default="pow:2")
    lv.add_argument("--n", type=int, default=6)
    lv.add_argument("--out", type=str)
    lv.add_argument("--family", choices=sorted(_BP_FAMILIES), default="bernoulli")
    lv.add_argument("--lam", type=float, default=1.0)
    lv.add_argument("--c", type=float, default=1.0)
    lv.add_argument("--ns", type=str, default="10,100,1000")

    sm = sub.add_parser("sim", help="random-matrix simulation campaigns")
    sm.add_argument(
        "subcommand", choices=["variation", "identity", "mixed", "matcauchy"]
    )
    sm.add_argument("--config", type=str, required=True)
    sm.add_argument("--out", type=str)
    sm.add_argument("--threads", type=int, default=1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest = _ManifestWriter(args.command, args)
    try:
        if args.command == "ncsym":
            code = cmd_ncsym(args)
        elif args.command == "levy":
            code = cmd_levy(args, manifest)
        else:
            code = cmd_sim(args, manifest)
    except (ConvergenceError, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        manifest.write(EXIT_NUMERIC)
        return EXIT_NUMERIC
    except _SCHEMA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest.write(EXIT_USAGE)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        manifest.write(EXIT_INTERNAL)
        return EXIT_INTERNAL
    manifest.write(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
