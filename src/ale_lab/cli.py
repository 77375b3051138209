"""Command-line entry points: verification suites, obstruction reports from
metric jets, and far-field decay tables.

Subcommands
-----------
verify    run named check suites for a (k, lambda) configuration
obstruct  evaluate the obstruction pipeline on a jet input file
asympt    emit a CSV table of far-field deviations and fitted exponents

The environment variable ALE_LAB_THREADS caps the numerical backends'
thread pools; without it each pool the environment leaves unset gets one
thread.  Either is applied before any numerical module is imported, which
is why all heavy imports happen inside the handlers.  On glibc, main also
fixes the heap's mmap and trim thresholds once per process (mallopt(3)),
so that the working memory numpy frees stays in the process for the next
operation instead of going back to the kernel and faulting in again; where
libc has no mallopt that step does nothing.  JSON reports carry
"schema_version": 1 and contain no timing data, so reruns with equal
arguments are byte-identical; durations go to the human-readable output
only.

obstruct reads its jet file with orjson (a dependency of the package,
imported in the handler like numpy).  The stdlib json reads the file
again when orjson refuses it, which it does for the NaN and Infinity
literals, numbers beyond the float range and invalid UTF-8, and when
orjson reads a float k: orjson reads an integer beyond 64 bits as a
float, and k must stay the integer the file holds for its checks and
messages.  Every other value reads bit for bit the same in both.  Reports
are written by the stdlib json, whose float text is part of the report
bytes.  obstruct builds the model constants once, from constants_override
or from ak_constants(k, lambda), refuses them when a factor of theirs is
not finite (obstruction.factor_faults), and passes them to
obstruction.compute_report(jet, constants, quartic=None, apply_gauge=False),
which decides the report: obstruct writes its content and prints its
det_unit on the wall-side line, and computes nothing of the report itself.

asympt writes fit-unstable instead of exponents when the radii give no
slope: fewer than two distinct radii, or a deviation at its rounding floor
(harmonic.decay_exponents).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys

SCHEMA_VERSION = 1

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_OVERRIDE_KEYS = {
    "volSigma": "vol_sigma",
    "omegaNorm2": "omega_norm2",
    "intMomega": "int_m_omega",
    "mP1": "m_p1",
}
# an area and a squared norm: positive by definition
_POSITIVE_OVERRIDES = ("volSigma", "omegaNorm2")
# the types a JSON number reads as
_NUMBER_TYPES = {float, int}


def _configure_threads() -> None:
    """ALE_LAB_THREADS sets every backend's pool; without it each pool the
    environment leaves unset gets one thread."""
    cap = os.environ.get("ALE_LAB_THREADS")
    for var in _THREAD_VARS:
        if cap:
            os.environ[var] = cap
        else:
            os.environ.setdefault(var, "1")


# glibc's heap thresholds.  Left dynamic, glibc gives numpy's freed
# temporaries back to the kernel and faults them in again: 862 minor faults
# per warm verify --suite all, 0.4 with both set (mean of 8 operations).
# Both are set because setting either turns the dynamic thresholds off: the
# trim threshold alone left 65 faults per operation, the mmap threshold
# alone 1271.  (mallopt(3) parameter, bytes): M_MMAP_THRESHOLD 4 MiB, then
# M_TRIM_THRESHOLD 16 MiB.
_HEAP_THRESHOLDS = ((-3, 4 << 20), (-1, 16 << 20))


@functools.cache
def _configure_heap() -> None:
    """Fix glibc's mmap and trim thresholds, once per process; nothing where
    libc has no mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_THRESHOLDS:
        mallopt(param, value)


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# the report text; ValueError on a non-finite value
_json_text = functools.partial(json.dumps, sort_keys=True, indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    from . import suites
    from .errors import AleLabError

    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    try:
        results = suites.run_suites(names, args.k, args.lam,
                                    tol_scale=args.tol)
    except (AleLabError, ValueError, OverflowError) as exc:
        # OverflowError: a --k too large for a float, where it meets one
        print(f"configuration error: --k {args.k} --lambda {args.lam!r}: {exc}", file=sys.stderr)
        return 2

    for res in results:
        print(f"suite {res.suite} (k={args.k}, lambda={args.lam:g}):")
        for line in res.lines():
            print(line)
    all_pass = all(r.passed for r in results)
    total = sum(r.duration_s for r in results)
    print(f"verify: {'PASS' if all_pass else 'FAIL'} "
          f"({sum(len(r.checks) for r in results)} checks, {total:.2f}s)")

    if args.report:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "k": args.k,
            "lambda": args.lam,
            "tol_scale": args.tol,
            "passed": all_pass,
            "suites": [r.to_dict() for r in results],
        }
        _emit(_json_text(payload), args.report)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# obstruct
# ---------------------------------------------------------------------------


def _number(value, name: str, positive: bool = False) -> float:
    """A finite JSON number as a float.  Booleans are refused: Python reads
    JSON true and false as the integers 1 and 0."""
    from .errors import SchemaError

    if isinstance(value, int) and not isinstance(value, bool):
        if abs(value) > sys.float_info.max:
            raise SchemaError(f"{name}: {value} is too large to convert to a float")
        value = float(value)
    if not isinstance(value, float) or not math.isfinite(value) or (positive and value <= 0):
        kind = "positive" if positive else "finite"
        raise SchemaError(f"{name}: expected {kind} number, got {value!r}")
    return value


def _entries(nested: list, rank: int):
    """The entries of ``rank`` levels of nested lists, in row-major order."""
    for _ in range(rank - 1):
        nested = itertools.chain.from_iterable(nested)
    return nested


def _jet_field(raw: dict, name: str, cls, rank: int):
    """The rank-``rank`` jet array under ``name`` as a validated ``cls``
    (Jet2 or Jet4); every message starts with the field name."""
    import numpy as np

    from .errors import SchemaError

    try:
        arr = np.asarray(raw[name], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{name}: non-numeric entries ({exc})") from exc
    except OverflowError as exc:
        # a JSON integer beyond the float range; numpy read the nesting as
        # regular before it converted the entries
        nested = np.asarray(raw[name], dtype=object)
        beyond = [isinstance(v, int) and abs(v) > sys.float_info.max for v in nested.flat]
        index = np.argwhere(np.reshape(beyond, nested.shape))[0].tolist()
        raise SchemaError(f"{name}: entry {nested[tuple(index)]} at {index} is too large "
                          "to convert to a float") from exc
    if arr.shape != (4,) * rank:
        raise SchemaError(f"{name}: expected shape {'[4]' * rank}, got {list(arr.shape)}")
    # numpy reads a numeric string or a boolean as a number and null as NaN
    if not set(map(type, _entries(raw[name], rank))) <= _NUMBER_TYPES:
        bad = [type(v) not in _NUMBER_TYPES for v in _entries(raw[name], rank)]
        index = np.argwhere(np.reshape(bad, arr.shape))[0].tolist()
        raise SchemaError(f"{name}: non-numeric entry at {index}")
    return cls.from_array(arr)


def _read_jet_file(path: str):
    """The JSON value in the file at ``path``.  orjson reads it; the stdlib
    json reads the text again when orjson refuses it (NaN and Infinity
    literals, numbers beyond a float, invalid UTF-8) or reads a float ``k``,
    which may be an integer beyond 64 bits that orjson reads as a float."""
    import orjson

    from .errors import SchemaError

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SchemaError(f"jet file: {exc}") from exc
    try:
        raw = orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    else:
        if not (isinstance(raw, dict) and isinstance(raw.get("k"), float)):
            return raw
    try:
        # decoded, newlines translated, as open(path, encoding="utf-8") reads it
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"jet file: invalid JSON ({exc})") from exc


def _load_jet_input(path: str):
    """(jet, quartic, k, lambda, overrides, gauge_project) as the file holds
    them, each checked on its own; cmd_obstruct builds the constants."""
    from . import jets
    from .errors import SchemaError

    raw = _read_jet_file(path)
    if not isinstance(raw, dict):
        raise SchemaError("jet file: top level must be an object")

    k = raw.get("k")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
        raise SchemaError(f"k: expected positive integer, got {k!r}")
    if k is not None and k > sys.float_info.max:
        raise SchemaError(f"k: {k} is too large to convert to a float")
    lam = _number(raw.get("lambda", 1.0), "lambda", positive=True)

    if raw.get("H") is None:
        raise SchemaError("H: missing required field")
    jet = _jet_field(raw, "H", jets.Jet2, 4)
    quartic = _jet_field(raw, "H2", jets.Jet4, 6) if raw.get("H2") is not None else None

    overrides = None
    if raw.get("constants_override") is not None:
        block = raw["constants_override"]
        if not isinstance(block, dict):
            raise SchemaError("constants_override: expected an object")
        overrides = {}
        for key, value in block.items():
            if key not in _OVERRIDE_KEYS:
                raise SchemaError(
                    f"constants_override.{key}: unknown key "
                    f"(expected one of {sorted(_OVERRIDE_KEYS)})")
            overrides[_OVERRIDE_KEYS[key]] = _number(value, f"constants_override.{key}",
                                                     positive=key in _POSITIVE_OVERRIDES)

    gauge = raw.get("gauge_project", False)
    if not isinstance(gauge, bool):
        raise SchemaError(
            f"gauge_project: expected boolean, got {type(gauge).__name__}")
    return jet, quartic, k, lam, overrides, gauge


def cmd_obstruct(args: argparse.Namespace) -> int:
    import numpy as np

    from . import obstruction
    from .errors import AleLabError, MissingConstants, QuadratureDivergence, SchemaError

    try:
        jet, quartic, k, lam, overrides, gauge = _load_jet_input(args.jet)
        # the model constants, built once and checked before the jet's curvature
        if overrides is not None:
            # raises MissingConstants when a constant is missing
            constants = obstruction.constants_from_overrides(overrides, k)
        elif k is None:
            raise MissingConstants("either k (two-cluster family) or overrides required")
        elif math.isinf(k * lam):
            # the two-cluster centers sit at -k lambda and lambda
            raise SchemaError(f"k and lambda: {k} * {lam!r} is out of range, the center "
                              "-k * lambda is not finite")
        else:
            constants = obstruction.ak_constants(k, lam)
        # every factor that the report takes from the constants alone
        names, factor = obstruction.factor_faults(constants)
        if names and overrides is not None:
            keys = ", ".join(f"constants_override.{key}"
                             for key, name in _OVERRIDE_KEYS.items() if name in names)
            raise SchemaError(f"{keys}: out of range, the factor {factor} is not finite")
        if names:
            # k is small once the Sigma constants are finite: lambda is at fault
            raise SchemaError(f"lambda: {lam!r} at k = {k} is out of range, the factor "
                              f"{factor} is not finite")
        # a jet too large for its products overflows; the report check
        # below names the field instead of a warning per operation
        with np.errstate(over="ignore", invalid="ignore"):
            report = obstruction.compute_report(jet, constants, quartic, apply_gauge=gauge)
    except QuadratureDivergence as exc:
        # the Sigma constants are the one quadrature of obstruct, and they
        # read only k and lambda from the input: k is at fault when they
        # are not finite at lambda = 1 either
        field = f"lambda: {lam!r} at k = {k} is out of range"
        try:
            obstruction.ak_constants(k, 1.0)
        except QuadratureDivergence:
            field = f"k: {k} is too large even at lambda = 1"
        print(f"schema error: {field}, the Sigma constants are not finite ({exc})",
              file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (AleLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payload = {"schema_version": SCHEMA_VERSION, "command": "obstruct", **report.content}
    try:
        text = _json_text(payload)
    except ValueError:
        # a value is not finite: name the first such field in report order
        for key in sorted(payload):
            try:
                json.dumps(payload[key], allow_nan=False)
            except ValueError:
                print(f"schema error: H: the jet is out of range, report field {key} is not "
                      "finite", file=sys.stderr)
                return 2
        raise
    _emit(text, args.report)
    # a determinant on the floor is rounding, and its digits are not printed
    detail = ("|det of the negated block| within the 1e-8 max|H|^3 floor"
              if report.det_unit is None else
              f"det of the negated block = {report.det_unit:.6g} max|H|^3")
    print(f"wall side: {report.content['wall_side']} ({detail})")
    return 0


# ---------------------------------------------------------------------------
# asympt
# ---------------------------------------------------------------------------


def cmd_asympt(args: argparse.Namespace) -> int:
    from .errors import AleLabError, FitUnstable

    radii = [r for r in (tok.strip() for tok in args.radii.split(",")) if r]
    if not radii:
        print("configuration error: --radii is empty", file=sys.stderr)
        return 2
    try:
        radii_f = [float(r) for r in radii]
    except ValueError as exc:
        print(f"configuration error: --radii: {exc}", file=sys.stderr)
        return 2
    bad = next((r for r in radii_f if not (math.isfinite(r) and r > 0)), None)
    if bad is not None:
        print(f"configuration error: --radii: entries must be finite and positive, "
              f"got {bad!r}", file=sys.stderr)
        return 2

    import numpy as np

    from . import gh, harmonic

    try:
        bundle = harmonic.build_omega(gh.GHConfig.canonical(args.k, args.lam))
    except (AleLabError, ValueError, OverflowError) as exc:
        print(f"configuration error: --k {args.k} --lambda {args.lam!r}: {exc}", file=sys.stderr)
        return 2
    # the table's radii are cone radii, the sampler's base radii; a radius it
    # cannot use fails here (LinAlgError is a ValueError), without warnings
    try:
        with np.errstate(all="ignore"):
            profiles = harmonic.decay_profiles(
                bundle, [r * r / (2.0 * (args.k + 1)) for r in sorted(radii_f)])
    except (AleLabError, ValueError, OverflowError) as exc:
        print(f"configuration error: --radii {args.radii}: {exc}", file=sys.stderr)
        return 2

    flag = ""
    slopes = {"metric": "", "moment": "", "omega": ""}
    if len(set(radii_f)) >= 2:
        try:
            slopes = harmonic.decay_exponents(profiles)
        except (FitUnstable, ValueError):
            flag = "fit-unstable"
    else:
        flag = "fit-unstable"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "r", "metric_deviation", "moment_deviation", "omega_profile_coeff",
        "metric_exponent", "moment_exponent", "omega_exponent", "flag",
    ])
    for prof in profiles:
        writer.writerow([
            f"{prof.r:.12g}",
            f"{prof.metric_deviation:.12g}",
            f"{prof.moment_deviation:.12g}",
            f"{prof.omega_profile_coeff:.12g}",
            "" if flag else f"{slopes['metric']:.12g}",
            "" if flag else f"{slopes['moment']:.12g}",
            "" if flag else f"{slopes['omega']:.12g}",
            flag,
        ])
    _emit(buf.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args fills a new
    namespace from the defaults on every call, so main may reuse it."""
    parser = argparse.ArgumentParser(
        prog="ale-lab",
        description="Verification suites and obstruction reports for "
                    "multi-center gravitational instanton geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run check suites")
    p_verify.add_argument("--k", type=int, default=1,
                          help="number of coincident far centers (default 1)")
    p_verify.add_argument("--lambda", dest="lam", type=float, default=1.0,
                          help="center separation scale (default 1.0)")
    p_verify.add_argument("--suite", default="all",
                          choices=["gh", "harmonic", "quadrature",
                                   "deformation", "all"])
    # the scaled=False rows of suites.CHECKS, written out: importing suites
    # here would load numpy and the geometry modules for every command
    p_verify.add_argument("--tol", type=float, default=1.0,
                          help="scale of every check tolerance but the fixed bounds of "
                               "metric-decay-exponent, density-annulus-exponent, anisotropic-ratio, "
                               "anisotropic-consistency and radial-contraction-decay (default 1.0)")
    p_verify.add_argument("--report", default=None,
                          help="write a deterministic JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_obstruct = sub.add_parser("obstruct",
                                help="obstruction report from a jet file")
    p_obstruct.add_argument("--jet", required=True,
                            help="path to the JSON jet input")
    p_obstruct.add_argument("--report", default=None,
                            help="write the JSON report here instead of stdout")
    p_obstruct.set_defaults(func=cmd_obstruct)

    p_asympt = sub.add_parser("asympt",
                              help="far-field decay table as CSV")
    p_asympt.add_argument("--k", type=int, default=1)
    p_asympt.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_asympt.add_argument("--radii", required=True,
                          help="comma-separated asymptotic radii")
    p_asympt.add_argument("--out", default=None,
                          help="write the CSV here instead of stdout")
    p_asympt.set_defaults(func=cmd_asympt)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_threads()
    _configure_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "k", 1) < 1:
        print("configuration error: --k must be >= 1", file=sys.stderr)
        return 2
    for flag, value in (("--lambda", getattr(args, "lam", 1.0)),
                        ("--tol", getattr(args, "tol", 1.0))):
        if not (math.isfinite(value) and value > 0):
            print(f"configuration error: {flag} must be finite and positive, "
                  f"got {value!r}", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
