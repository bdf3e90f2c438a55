"""Command-line experiment driver.

Subcommands mirror the studies the library is built for:

* ``bench``     wall-time comparison, insertion algorithm vs dense oracle
* ``quaderr``   quadrature error of the order-K Galerkin matrix
* ``rederr``    index-set reduction error of the insertion algorithm
* ``perturb``   fast-matvec perturbation of a single Krylov exponential
* ``propagate`` endpoint errors of Magnus-Krylov time stepping
* ``verify``    self-checks: orthonormality, diagonalization, equivalence

All numeric output is CSV on stdout (or ``--out``), full config echoed in
``# key=value`` header lines, floats at 17 significant digits.  Exit codes:
0 success, 1 usage error, 2 verification failure, 3 numerical failure.  An
``--out`` whose directory is missing or unwritable is a usage error before
any work starts; a later failure to write it also exits 1, with an
``error:`` line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import galerkin_oracle
from .error_lab import REFERENCE_TOL, lanczos_perturbation_error, \
    make_decay_vector, propagate_and_compare, quadrature_error, \
    reduction_error, reduction_local_mask
from .fast_apply import get_applier
from .galerkin_oracle import assemble_with_rule, verify_diagonalization
from .hermite_basis import check_support_condition, gauss_hermite_rule
from .index_set import build_full, build_hyperbolic
from .krylov_propagator import MagnusScheme
from .potential_approx import interpolate, potential_by_name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_NUMERICAL = 3

_TIMING_REPETITIONS = 5
_TIMING_WARMUP = 1


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto this tool's exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        vals = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not vals:
        raise argparse.ArgumentTypeError("empty integer list")
    if vals[0] < 0:
        raise argparse.ArgumentTypeError("list entries must be nonnegative")
    return vals


def _fraction_list(text: str) -> list[Fraction]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"expected fractions like 1/80, got {tok!r}") from None
    if not out:
        raise argparse.ArgumentTypeError("empty step list")
    if any(f <= 0 for f in out):
        raise argparse.ArgumentTypeError("step sizes must be positive")
    return out


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if val < low:
            raise argparse.ArgumentTypeError(f"value must be at least {low}")
        return val

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _positive_float(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not (math.isfinite(val) and val > 0.0):
        raise argparse.ArgumentTypeError("value must be positive and finite")
    return val


def _output_path(text: str) -> str:
    """argparse type: a file path in an existing, writable directory."""
    parent = os.path.dirname(text) or "."
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no directory {parent!r}")
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(f"directory {parent!r} is not "
                                         "writable")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hprop", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, beta=None, seed=False, degree=8,
               kmax="25,50,75", potential="torsional"):
        """Options shared by the subcommands; each adds only those it reads."""
        p.add_argument("--dims", type=_positive_int, default=2,
                       help="number of spatial dimensions (default 2)")
        p.add_argument("--kmax", type=_int_list, default=_int_list(kmax),
                       help=f"comma list of basis bounds K (default {kmax})")
        p.add_argument("--degree", type=_nonnegative_int, default=degree,
                       help=f"surrogate polynomial degree (default {degree})")
        p.add_argument("--halfwidth", type=_positive_float, default=16.0,
                       help="box half width L (default 16)")
        if beta is not None:
            p.add_argument("--beta", type=_positive_int, default=beta,
                           help=f"decay exponent of test vectors "
                                f"(default {beta})")
        p.add_argument("--potential", default=potential,
                       choices=["torsional", "torsional-ho", "henon-heiles"],
                       help=f"potential kind (default {potential})")
        if seed:
            p.add_argument("--seed", type=_nonnegative_int, default=0,
                           help="PRNG seed for random vectors (default 0)")
        p.add_argument("--out", type=_output_path, default=None,
                       help="output file (default stdout)")

    p = sub.add_parser("bench", help="time fast apply vs dense oracle")
    common(p, seed=True, kmax="20,40,60")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("quaderr", help="quadrature error study")
    common(p, beta=5)
    p.set_defaults(func=cmd_quaderr)

    p = sub.add_parser("rederr", help="index set reduction error study")
    common(p, beta=5)
    p.set_defaults(func=cmd_rederr)

    p = sub.add_parser("perturb", help="Krylov perturbation error study")
    common(p, beta=3, kmax="10,20,30,40", potential="torsional-ho")
    p.add_argument("--lanczos", type=_positive_int, default=5,
                   help="Krylov subspace dimension (default 5)")
    p.add_argument("--h", type=_fraction_list,
                   default=_fraction_list("1/10,1/20,1/40,1/80"),
                   help="comma list of step sizes as fractions")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("propagate", help="Magnus-Krylov propagation study")
    common(p, beta=3, degree=3, kmax="40", potential="henon-heiles")
    p.add_argument("--scheme", default="midpoint", choices=["midpoint", "gl2"],
                   help="time stepping scheme (default midpoint)")
    p.add_argument("--lanczos", type=_positive_int, default=7,
                   help="Krylov subspace dimension (default 7)")
    p.add_argument("--h", type=_fraction_list,
                   default=_fraction_list("1/10,1/20,1/40,1/80,1/160"),
                   help="comma list of step sizes as fractions")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("verify", help="run numerical self-checks")
    common(p, seed=True, kmax="10")
    p.set_defaults(func=cmd_verify)
    return parser


# -- shared plumbing --------------------------------------------------------------


def _median_time(fn: Callable[[], object]) -> float:
    for _ in range(_TIMING_WARMUP):
        fn()
    times = []
    for _ in range(_TIMING_REPETITIONS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


def _write_lines(args, lines: Sequence[str]) -> None:
    """The program's one writer: ``lines`` to ``--out``, else to stdout."""
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, meta: dict, columns: Sequence[str], rows) -> None:
    lines = [f"# {key}={meta[key]}" for key in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in row))
    _write_lines(args, lines)


def _meta(args, **extra) -> dict:
    skip = {"func", "out", "command"}
    meta = {"command": args.command}
    for key, val in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(val, list):
            val = ",".join(str(x) for x in val)
        meta[key] = val
    meta.update(extra)
    return meta


def _warn_support(args) -> None:
    for k in args.kmax:
        violation = check_support_condition(args.halfwidth, k)
        if violation:
            print(violation, file=sys.stderr)


def _effective_approx(args):
    """Surrogate of the potential's smooth part on [-L, L]^N."""
    return interpolate(potential_by_name(args.potential, args.dims,
                                         args.halfwidth), args.degree)


# -- subcommands ------------------------------------------------------------------


def cmd_bench(args) -> int:
    _warn_support(args)
    approx = _effective_approx(args)
    cap = galerkin_oracle.DENSE_CAP

    def work(k: int):
        iset = build_hyperbolic(args.dims, k)
        rng = np.random.default_rng([args.seed, args.dims, k])
        v = rng.standard_normal(iset.size)
        appl = get_applier(iset)
        t_fast = _median_time(lambda: appl.apply_polynomial(approx, v))
        if iset.size > cap:
            return [args.dims, k, iset.size, approx.nterms, t_fast,
                    None, None, "skipped_cap"]
        rule = gauss_hermite_rule(k)

        def dense_once():
            mat = assemble_with_rule(iset, approx, rule).matrix
            return mat @ v

        t_dense = _median_time(dense_once)
        return [args.dims, k, iset.size, approx.nterms, t_fast, t_dense,
                t_dense / t_fast, "ok"]

    rows = [work(k) for k in args.kmax]
    _emit(args, _meta(args, dense_cap=cap),
          ["dim", "bound", "set_size", "nterms", "t_fast_s", "t_dense_s",
           "ratio", "dense_status"], rows)
    return EXIT_OK


def cmd_quaderr(args) -> int:
    _warn_support(args)

    def work(k: int):
        iset = build_hyperbolic(args.dims, k)
        approx = _effective_approx(args)
        v = make_decay_vector(iset, args.beta)
        errors = quadrature_error(iset, approx, v)
        return [args.dims, k, iset.size, float(np.max(errors))]

    rows = [work(k) for k in args.kmax]
    _emit(args, _meta(args), ["dim", "bound", "set_size", "max_norm"], rows)
    return EXIT_OK


def cmd_rederr(args) -> int:
    _warn_support(args)

    def work(k: int):
        iset = build_hyperbolic(args.dims, k)
        approx = _effective_approx(args)
        v = make_decay_vector(iset, args.beta)
        errors = reduction_error(iset, approx, v)
        mask = reduction_local_mask(iset, approx)
        local_max = float(np.max(errors[mask])) if mask.any() else 0.0
        return [args.dims, k, iset.size, float(np.max(errors)), local_max]

    rows = [work(k) for k in args.kmax]
    _emit(args, _meta(args),
          ["dim", "bound", "set_size", "max_norm", "interior_max"], rows)
    return EXIT_OK


def cmd_perturb(args) -> int:
    _warn_support(args)
    spec = potential_by_name(args.potential, args.dims, args.halfwidth)
    points = [(k, h) for k in args.kmax for h in args.h]

    def work(point):
        k, h = point
        iset = build_hyperbolic(args.dims, k)
        err = lanczos_perturbation_error(iset, spec, args.degree, args.beta,
                                         float(h), args.lanczos)
        return [args.dims, k, iset.size, args.lanczos, str(h), float(h), err]

    rows = [work(point) for point in points]
    _emit(args, _meta(args),
          ["dim", "bound", "set_size", "krylov_steps", "step", "step_value",
           "error"], rows)
    return EXIT_OK


def cmd_propagate(args) -> int:
    _warn_support(args)
    spec = potential_by_name(args.potential, args.dims, args.halfwidth)
    scheme = MagnusScheme.from_name(args.scheme)
    step_counts = []
    for h in args.h:
        inv = 1 / h
        if inv.denominator != 1:
            print(f"step {h} does not divide [0, 1] evenly", file=sys.stderr)
            return EXIT_USAGE
        step_counts.append(int(inv))

    def work(k: int):
        iset = build_hyperbolic(args.dims, k)
        errors = propagate_and_compare(iset, spec, args.degree, args.beta,
                                       scheme, step_counts, args.lanczos)
        return [[args.dims, k, iset.size, args.scheme, args.lanczos,
                 str(Fraction(1, n)), 1 / n, scheme_err, perturbation_err]
                for n, (scheme_err, perturbation_err)
                in zip(step_counts, errors)]

    rows = [row for k in args.kmax for row in work(k)]
    _emit(args, _meta(args, reference_tol=REFERENCE_TOL),
          ["dim", "bound", "set_size", "scheme", "krylov_steps", "step",
           "step_value", "scheme_error", "perturbation_error"], rows)
    return EXIT_OK


def _moment_residual(order: int) -> float:
    """Worst relative defect of the rule against analytic Gaussian moments."""
    rule = gauss_hermite_rule(order)
    worst = 0.0
    for p in range(0, 2 * order + 2, 2):
        exact = math.exp(math.lgamma((p + 1) / 2.0))
        approx = float(np.sum(rule.weights * rule.nodes ** p))
        worst = max(worst, abs(approx - exact) / exact)
    return worst


def cmd_verify(args) -> int:
    _warn_support(args)
    lines = []
    failures = 0

    def record(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures += 1

    for k in args.kmax:
        # basis-size guard for the dense tensor checks
        diag_order = min(k, 30)
        diag_res, orth_res = verify_diagonalization(diag_order, min(args.dims, 2))
        record(f"orthonormality K={diag_order}", orth_res <= 1e-11,
               f"residual={orth_res:.3e}")
        record(f"diagonalization K={diag_order}", diag_res <= 1e-10,
               f"residual={diag_res:.3e}")

        full = build_full(args.dims, k)
        approx = _effective_approx(args)
        rng = np.random.default_rng([args.seed, args.dims, k])
        v = rng.standard_normal(full.size)
        dense = assemble_with_rule(full, approx,
                                   gauss_hermite_rule(k)).matrix
        fast = get_applier(full).apply_polynomial(approx, v)
        rel = float(np.max(np.abs(fast - dense @ v)))
        rel /= max(float(np.max(np.abs(v))), 1e-300)
        record(f"full-set equivalence K={k} (rule order {k})", rel <= 1e-10,
               f"relative={rel:.3e}")

        mres = _moment_residual(min(k, 40))
        record(f"quadrature moments M={min(k, 40)}", mres <= 1e-12,
               f"relative={mres:.3e}")

    _write_lines(args, lines)
    return EXIT_VERIFY if failures else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # only _write_lines touches the file system
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
