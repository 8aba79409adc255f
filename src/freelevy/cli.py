"""Command-line surface: polynomial expansion, triple calculus, limit checks,
and the simulation campaigns, with JSON/CSV outputs and run manifests.

Exit codes are a stable contract: 0 success/pass, 1 verification failure,
2 usage or schema error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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
from .measures import MeasureError
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


class InputError(ValueError):
    """A required input flag is missing, or its file is unreadable or not JSON."""


_SCHEMA_ERRORS = (
    InputError,
    LevyError,
    MeasureError,
    NCSymError,
    PartitionError,
    SimError,
    KeyError,
    TypeError,
    ValueError,
)


class _ManifestWriter:
    """Collects inputs/outputs of one run and writes `<stem>.manifest.json`."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.arguments = {
            k: v for k, v in vars(args).items() if k != "func" and v is not None
        }
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
        manifest_path.write_text(json.dumps(payload, sort_keys=True, indent=2))

    def emit(self, path: Path, text: str):
        Path(path).write_text(text)
        self.outputs.append(str(path))


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _parse_map_spec(spec: str) -> VariationMap:
    if spec.startswith("pow:"):
        return VariationMap.power(int(spec.split(":", 1)[1]))
    if spec.startswith("poly:"):
        coeffs = [float(c) for c in spec.split(":", 1)[1].split(",")]
        return VariationMap.polynomial(coeffs)
    raise LevyError(f"map spec must be pow:k or poly:c1,c2,..., got {spec!r}")


# -- ncsym --------------------------------------------------------------------


def cmd_ncsym(args) -> int:
    if args.kind == "distinct":
        if args.composition:
            comp = Composition([int(p) for p in args.composition.split(",")])
        elif args.k:
            comp = Composition([1] * args.k)
        else:
            raise NCSymError("distinct needs --k or --composition")
        sigma = comp.to_partition()
        poly = p_basis(sigma)
        print(poly)
        if args.verify:
            letters = args.letters or 3
            lhs = expand_letters(poly, letters)
            rhs = distinct_neighbor_bruteforce(composition_of(sigma), letters)
            ok = lhs == rhs
            print("VERIFY PASS" if ok else "VERIFY FAIL")
            return EXIT_OK if ok else EXIT_VERIFY_FAIL
        return EXIT_OK
    if args.kind == "psi":
        if args.n is None:
            raise NCSymError("psi needs --n")
        print(psi_poly(args.n))
        return EXIT_OK
    if args.kind == "integral":
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
    raise NCSymError(f"unknown ncsym kind {args.kind!r}")


# -- levy ----------------------------------------------------------------------


def _read_json(path, manifest):
    manifest.inputs.append(str(path))
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not JSON: {exc}") from None


def _write_or_print(data, args, manifest, default_name: str):
    text = _dump(data)
    if args.out:
        out_dir = Path(args.out)
        if out_dir.suffix == ".json":
            target = out_dir
            target.parent.mkdir(parents=True, exist_ok=True)
        else:
            out_dir.mkdir(parents=True, exist_ok=True)
            target = out_dir / default_name
        manifest.emit(target, text)
    else:
        print(text)


_BP_FAMILIES = {
    "bernoulli": lambda args: bernoulli_family(args.lam),
    "drift": lambda args: shifted_atom_family(args.c),
    "symmetric": lambda args: symmetric_pm_family(),
}


def cmd_levy(args, manifest) -> int:
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
        kappas = [float(x) for x in triple_to_cumulants(triple, args.n or 6)]
        _write_or_print({"cumulants": kappas}, args, manifest, "cumulants.json")
        return EXIT_OK
    if args.action == "bp-check":
        if args.family not in _BP_FAMILIES:
            raise LevyError(f"unknown family {args.family!r}")
        ns = [int(n) for n in args.ns.split(",")]
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
            "sigma_atoms": [
                [float(x), float(m)] for x, m in (report.sigma_atoms or [])
            ],
            "pair": report.pair().to_json(),
        }
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            manifest.emit(out_dir / "bp_check.csv", "\n".join(lines) + "\n")
            manifest.emit(out_dir / "bp_check.json", _dump(summary))
        else:
            print("\n".join(lines))
            print(_dump(summary))
        return EXIT_OK
    raise LevyError(f"unknown levy action {args.action!r}")


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


def _complex_matrix(data) -> np.ndarray:
    rows = []
    for row in data:
        rows.append([complex(entry[0], entry[1]) for entry in row])
    return np.array(rows, dtype=complex)


def cmd_sim(args, manifest) -> int:
    cfg, raw = _load_sim_config(args.config, args.subcommand, manifest)
    out_dir = Path(args.out) if args.out else None
    threads = args.threads or 1

    if args.subcommand == "variation":
        k = int(raw.get("k", 2))
        report = verify_variation(cfg, k, threads=threads)
        stem = f"variation_k{k}"
    elif args.subcommand == "identity":
        k = int(raw.get("k", 2))
        report = verify_integral_identity(cfg, k, threads=threads)
        stem = f"identity_k{k}"
    elif args.subcommand == "mixed":
        mode = raw.get("mode", "anticommutator")
        schedule = raw.get("schedule")
        threshold = float(raw.get("decay_threshold", 0.15))
        report = mixed_decay(
            cfg, cfg, mode, schedule=schedule, threads=threads,
            decay_threshold=threshold,
        )
        stem = f"mixed_{mode.replace('-', '_')}"
    elif args.subcommand == "matcauchy":
        b_mat = _complex_matrix(raw["B"])
        a_mats = [np.array(a, dtype=float) for a in raw["A"]]
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
            manifest.emit(out_dir / "matcauchy.json", _dump(payload))
        else:
            print(_dump(payload))
        print(f"matcauchy k={b_mat.shape[0]} d={cfg.d}")
        return EXIT_OK
    else:
        raise SimError(f"unknown sim subcommand {args.subcommand!r}")

    if out_dir:
        _write_report(report, out_dir, stem, manifest)
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
    nc.add_argument("--letters", type=int)
    nc.add_argument("--verify", action="store_true")

    lv = sub.add_parser("levy", help="generating triple calculus")
    lv.add_argument(
        "action", choices=["to-pair", "to-triple", "variation", "cumulants", "bp-check"]
    )
    lv.add_argument("--input", type=str)
    lv.add_argument("--p", type=str, default="pow:2")
    lv.add_argument("--n", type=int)
    lv.add_argument("--out", type=str)
    lv.add_argument("--family", type=str, default="bernoulli")
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
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        manifest.write(EXIT_NUMERIC)
        return EXIT_NUMERIC
    except _SCHEMA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest.write(EXIT_USAGE)
        return EXIT_USAGE
    manifest.write(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
