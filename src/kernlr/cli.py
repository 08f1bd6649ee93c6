"""Command-line experiment runner.

Subcommands
-----------
sweep     build Gram matrices, decompose, and record per-rank errors
compare   spectral truncation vs randomized-projection errors
verify    numerical checks of the spectral identities and concentration
spectrum  analytic eigenvalues and decay rate of the Gaussian/RBF setting
rates     required rank and predicted error rate for a decay hypothesis

All randomness flows from one seed. Reproducible means two things. For a
fixed (config, seed, numpy/BLAS build, BLAS thread count) the output files
are byte-identical; CSV cells carry 17 significant digits, so they also
round-trip exactly. BLAS splits its sums by thread, so across thread counts
the values agree only within the tolerance of ``bench/oracle.py``: 1e-6
relative plus 1e-9 of the column's largest value. Between one and two
OpenBLAS threads the largest gap measured is 8.8e-10 relative. The output
directory comes from --out, the KERNLR_OUT environment variable, or the
config, in that order of precedence. ``verify`` runs fixed experiments and
takes no config: only --seed and --out (or KERNLR_OUT) set its run.

Exit codes: 0 success, 1 failed assertion or numerical failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

# Only what argument parsing and config loading need is imported here; each
# command imports the library modules it runs, so no run loads the others.
from .errors import EigensolverError
from .spectral import _check_int

if TYPE_CHECKING:
    from .kernels import KernelSpec

ENV_OUT = "KERNLR_OUT"

DEFAULT_CONFIG = {
    "dataset": {"kind": "gmm", "n": 1000, "p": 10, "components": 10, "mean_scale": 10.0},
    "standardize": False,
    "kernels": [
        {"family": "matern", "nu": 0.5},
        {"family": "matern", "nu": 1.5},
        {"family": "matern", "nu": 2.5},
        {"family": "rbf"},
    ],
    # Bandwidth policy for matern/rbf kernels without an explicit "bandwidth":
    # "median" (median pairwise distance) or a positive number.
    "bandwidth": "median",
    "ranks": "auto",
    "jl_trials": 50,
    "out": "kernlr-results",
    "seed": 0,
}


class ConfigError(ValueError):
    pass


# Keys that also take a second JSON type besides the type of their default.
_OTHER_TYPES = {"ranks": (list,), "bandwidth": (int, float)}


def _load_config(args) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                user = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in user.items():
            if key not in DEFAULT_CONFIG:
                raise ConfigError(f"unknown config key {key!r}; "
                                  f"valid keys: {', '.join(DEFAULT_CONFIG)}")
            types = (type(DEFAULT_CONFIG[key]),) + _OTHER_TYPES.get(key, ())
            if type(value) not in types:  # exact: a JSON true is no integer here
                names = " or ".join(t.__name__ for t in types)
                raise ConfigError(f"config key {key!r} must be a {names}, got {value!r}")
        config.update(user)
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "ranks", None) is not None:
        config["ranks"] = args.ranks
    # Output directory precedence: --out flag, then KERNLR_OUT, then config.
    if getattr(args, "out", None) is not None:
        config["out"] = args.out
    elif os.environ.get(ENV_OUT):
        config["out"] = os.environ[ENV_OUT]
    for key, lo in (("seed", 0), ("jl_trials", 1)):  # set by a flag or the file
        config[key] = _check_int(config[key], key, lo)
    return config


def _call(what: str, func, fields: dict, **supplied):
    """``func(**fields)``; ``supplied`` maps a parameter ``func`` takes but ``fields``
    lacks to a callable giving its value. A field ``func`` does not take, a missing
    required field or a value it rejects is a ConfigError naming ``what``."""
    signature = inspect.signature(func)
    for param, value in supplied.items():
        if param in signature.parameters and param not in fields:
            fields[param] = value()
    try:
        signature.bind(**fields)
    except TypeError as exc:
        raise ConfigError(f"{what}: {exc}; fields: {', '.join(signature.parameters)}") from None
    try:
        return func(**fields)
    except TypeError as exc:
        raise ConfigError(f"{what}: a field has the wrong type: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _construct(what: str, table: dict, key: str, entry, **supplied):
    """Call ``table[entry[key]]`` with the entry's other fields as keyword arguments."""
    if not isinstance(entry, dict):
        raise ConfigError(f"each {what} must be a JSON object, got {entry!r}")
    fields = dict(entry)
    name = fields.pop(key, None)
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {what} {key} {name!r}; valid: {', '.join(table)}")
    return _call(f"{what} {name!r}", table[name], fields, **supplied)


# n x n float64 arrays a sweep or compare run holds at once at its peak, inside
# eigh: the Gram matrix, numpy's copy of it, the eigenvectors and the 2 n^2
# syevd workspace. Peak RSS grows by 5.2 n^2 float64 for both commands
# (tests/test_cli.py measures it); 6 is the next integer.
_SQUARE_ARRAYS = 6


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _preflight(n) -> None:
    """Refuse, before any n x n array exists, a run whose working set exceeds memory.

    An ``n`` that is not a valid size is left to the generator, which names it.
    """
    try:
        n = _check_int(n, "n", 1)
    except ValueError:
        return
    memory = _physical_memory()
    fits = math.isqrt(memory // (8 * _SQUARE_ARRAYS))
    if n > fits:
        raise ConfigError(f"dataset n={n} needs {_SQUARE_ARRAYS} n x n arrays, "
                          f"{_SQUARE_ARRAYS * 8 * n * n / 2**30:.3g} GiB, against "
                          f"{memory / 2**30:.3g} GiB of memory; the largest n that fits is {fits}")


def _build_dataset(config) -> np.ndarray:
    from . import datasets, kernels
    spec = dict(config["dataset"])
    seed = config["seed"]
    if "seed" in spec:
        raise ConfigError("dataset takes no 'seed'; the top-level seed seeds the data")
    count = spec.pop("subsample", None)
    # dataset.kind names a generator; its keyword arguments are the fields.
    kinds = {"csv": datasets.load_csv, "gmm": datasets.gmm_synthetic,
             "gaussian": datasets.gaussian_synthetic, "sphere": datasets.sphere_uniform}
    kind = spec.get("kind")
    generator = kinds.get(kind) if isinstance(kind, str) else None
    if generator not in (None, datasets.load_csv):  # a generator's rows are known up front
        _preflight(spec.get("n", inspect.signature(generator).parameters["n"].default))
    X = _construct("dataset", kinds, "kind", spec, seed=lambda: seed)
    if count is not None:
        X = _call("dataset subsample", datasets.subsample,
                  {"data": X, "count": count, "seed": seed + 1})
    _preflight(X.shape[0])  # a csv file's rows are known once it is loaded
    if config["standardize"]:
        X = kernels.standardize(X)
    return X


def _build_kernels(config, X) -> list[KernelSpec]:
    from . import kernels
    # The bandwidth policy fills in matern/rbf entries without a "bandwidth";
    # the median pairwise distance is computed once, and only if needed.
    policy = config["bandwidth"]
    if isinstance(policy, str) and policy != "median":
        raise ConfigError(f"config key 'bandwidth' must be \"median\" or a number, got {policy!r}")
    bandwidth = (functools.cache(lambda: kernels.median_heuristic(X)) if policy == "median"
                 else lambda: policy)
    families = {"matern": kernels.matern, "rbf": kernels.rbf, "dot_product": kernels.dot_product}
    specs = [_construct("kernel", families, "family", entry, bandwidth=bandwidth)
             for entry in config["kernels"]]
    if not specs:
        raise ConfigError("config needs at least one kernel")
    return specs


def _rank_grid(spec, n: int) -> list[int]:
    """The sorted distinct ranks of ``spec``: "auto", a comma-separated string or a list."""
    if spec == "auto":
        # Geometric grid: 30 points from 1 to n, plus the endpoints 0 and n.
        ranks = np.rint(np.geomspace(1, n, 30)).astype(int).tolist() + [0, n]
    elif isinstance(spec, str):
        ranks = _parse_int_list(spec, "rank list")
    elif all(isinstance(d, int) and not isinstance(d, bool) for d in spec):
        ranks = spec
    else:
        raise ConfigError(f"ranks must be integers, got {spec!r}")
    ranks = sorted(set(ranks))
    if not ranks or any(d < 0 or d > n for d in ranks):
        raise ConfigError(f"ranks must be non-empty and lie in [0, {n}], got {spec!r}")
    return ranks


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(out, name, header, rows) -> None:
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"wrote {path}")


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    from .kernels import gram_matrix
    from .spectral import eigendecompose, error_sweep
    from .svgplot import line_plot
    config = _load_config(args)
    X = _build_dataset(config)
    specs = _build_kernels(config, X)
    ranks = _rank_grid(config["ranks"], X.shape[0])
    out = _ensure_out(config["out"])

    curves = []
    for spec in specs:
        try:
            gram = gram_matrix(spec, X)
            eig = eigendecompose(gram)
            sweep = error_sweep(gram, eig, ranks)
        except EigensolverError as exc:
            print(f"numerical failure in stage eigendecompose ({spec.label}): {exc}", file=sys.stderr)
            return 1
        del gram, eig  # so the next kernel's Gram matrix and eigh are not built beside them
        rows = zip(ranks, sweep.max_entry_error, sweep.frobenius_error,
                   sweep.spectral_error, sweep.tail_abs_sum, sweep.sup_norm_tail)
        _write_csv(out, f"sweep_{spec.label}.csv",
                   ["rank", "max_entry_error", "frobenius_error", "spectral_error",
                    "tail_abs_sum", "sup_norm_tail"], rows)
        curves.append((spec.label, ranks, sweep.max_entry_error.tolist()))

    svg = os.path.join(out, "sweep.svg")
    line_plot(svg, curves, xlabel="rank", ylabel="max-entry error",
              title="Truncation error against rank")
    print(f"wrote {svg}")
    return 0


# -------------------------------------------------------------- compare

def cmd_compare(args) -> int:
    from .kernels import gram_matrix
    from .random_projection import compare_methods, jl_error_bound
    config = _load_config(args)
    X = _build_dataset(config)
    spec = _build_kernels(config, X)[0]
    ranks = [d for d in _rank_grid(config["ranks"], X.shape[0]) if d >= 1]
    if not ranks:
        raise ConfigError(f"compare needs a rank >= 1, got {config['ranks']!r}")
    out = _ensure_out(config["out"])

    try:
        gram = gram_matrix(spec, X)
        result = compare_methods(gram, ranks, trials=config["jl_trials"], seed=config["seed"])
    except EigensolverError as exc:
        print(f"numerical failure in stage eigendecompose ({spec.label}): {exc}", file=sys.stderr)
        return 1

    _write_csv(out, f"compare_{spec.label}.csv",
               ["rank", "spectral_max_error", "jl_median_max_error", "jl_rate_shape"],
               zip(ranks, result.spectral_max_error, result.jl_median_max_error,
                   [jl_error_bound(X.shape[0], d) for d in ranks]))
    return 0


# --------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    from .verification import CHECKS, run_check
    if args.suite != "all" and args.suite not in CHECKS:
        raise ConfigError(f"unknown check {args.suite!r}; valid: {', '.join(CHECKS)}, all")
    config = _load_config(args)
    names = list(CHECKS) if args.suite == "all" else [args.suite]
    out = _ensure_out(config["out"])

    rows = []
    for name in names:
        row, first = run_check(name, config["seed"], args.quick)
        if first is not None:
            print(f"{name}: statistic {first:.6g} exceeded {row[2]:g}; "
                  f"re-running once with seed {row[4]}")
        rows.append(row)

    width = max(len(name) for name, *_ in rows)
    for name, stat, threshold, ok, used_seed, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name:<{width}}  statistic={stat:.6g}  "
              f"threshold={threshold:g}  seed={used_seed}  ({detail})")

    _write_csv(out, "verify.csv", ["check", "statistic", "threshold", "passed", "seed", "detail"],
               [(name, stat, threshold, int(ok), used_seed, detail)
                for name, stat, threshold, ok, used_seed, detail in rows])
    return 0 if all(row[3] for row in rows) else 1


# ------------------------------------------------------- spectrum, rates

def cmd_spectrum(args) -> int:
    from .analytic import GaussianRbfSpectrum, beta_from_upsilon, gaussian_rbf_eigenvalue
    count = _check_int(args.count, "--count", 1)
    upsilon = args.upsilon
    beta_from_upsilon(upsilon)  # rejects upsilon <= 0 before the square root
    spec = GaussianRbfSpectrum(sigma=math.sqrt(upsilon / 2.0), bandwidth=1.0)

    def values():  # streamed, so --count may exceed memory
        return (gaussian_rbf_eigenvalue(i, spec) for i in range(count))

    print(f"upsilon = {upsilon:g}")
    print(f"beta = {beta_from_upsilon(upsilon):.7f}")
    print(f"ratio = {spec.ratio:.7f}")
    print("eigenvalues: ", end="")
    for i, v in enumerate(values()):
        print(f", {v:.7f}" if i else f"{v:.7f}", end="")
    print()
    if args.out:
        _write_csv(_ensure_out(args.out), "spectrum.csv", ["index", "eigenvalue"],
                   enumerate(values()))
    return 0


def _hypothesis_from_args(args):
    from .analytic import exponential_decay, polynomial_decay
    if args.hypothesis == "P":
        if args.alpha is None:
            raise ConfigError("hypothesis P needs --alpha")
        return polynomial_decay(args.alpha, args.r)
    if args.beta is None:
        raise ConfigError("hypothesis E needs --beta")
    return exponential_decay(args.beta, args.gamma, args.s)


def cmd_rates(args) -> int:
    from .analytic import entrywise_error_rate, required_rank
    hyp = _hypothesis_from_args(args)
    sizes = _parse_int_list(args.n, "--n grid")
    if not sizes:  # required_rank rejects sizes below 2
        raise ConfigError(f"--n must list at least one sample size, got {args.n!r}")
    rows = [(n, required_rank(n, hyp, c=args.c), entrywise_error_rate(n, hyp)) for n in sizes]
    params = (f"alpha={hyp.alpha:g}, r={hyp.r:g}" if hyp.kind == "P"
              else f"beta={hyp.beta:g}, gamma={hyp.gamma:g}, s={hyp.s:g}")
    print(f"hypothesis {hyp.kind} ({params})")
    print(f"{'n':>10}  {'required_rank':>13}  {'rate':>12}")
    for n, d, rate in rows:
        print(f"{n:>10}  {d:>13}  {rate:>12.6g}")
    if args.out:
        _write_csv(_ensure_out(args.out), "rates.csv", ["n", "required_rank", "rate"], rows)
    return 0


# ----------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernlr",
        description="Low-rank kernel matrix approximation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, help="master seed (overrides any config)")
        p.add_argument("--out", help=f"output directory (overrides ${ENV_OUT} and any config)")

    for name, func, help_text in (("sweep", cmd_sweep, "per-rank truncation errors for each kernel"),
                                  ("compare", cmd_compare, "spectral truncation vs random projection")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; omitted fields use defaults")
        common(p)
        p.add_argument("--ranks", help='rank grid: "auto" or comma-separated integers')
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="numerical checks of the spectral identities")
    common(p)
    p.add_argument("suite", help='a check name, or "all" to run every check')
    p.add_argument("--quick", action="store_true", help="smaller instances, smoke-test sizes")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="analytic Gaussian/RBF eigenvalues")
    p.add_argument("--upsilon", type=float, required=True,
                   help="bandwidth ratio 2 sigma^2 / omega^2 of data scale sigma and bandwidth omega")
    p.add_argument("--count", type=int, default=10, help="number of eigenvalues to print")
    p.add_argument("--out", help="also write spectrum.csv to this directory")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("rates", help="required rank and error rate for a decay hypothesis")
    p.add_argument("--hypothesis", choices=["P", "E"], required=True)
    p.add_argument("--alpha", type=float, help="polynomial decay exponent (P)")
    p.add_argument("--r", type=float, default=0.0, help="sup-norm growth exponent (P)")
    p.add_argument("--beta", type=float, help="exponential decay rate (E)")
    p.add_argument("--gamma", type=float, default=1.0, help="stretching exponent (E)")
    p.add_argument("--s", type=float, default=0.0, help="sup-norm growth rate (E)")
    p.add_argument("--c", type=float, default=1.0, help="rank multiplier under P")
    p.add_argument("--n", default="500,1000,2000,4000,8000",
                   help="sample size or comma-separated grid")
    p.add_argument("--out", help="also write rates.csv to this directory")
    p.set_defaults(func=cmd_rates)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EigensolverError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError, MemoryError) as exc:  # an array too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
