"""Command-line experiment runner.

Subcommands
-----------
sweep     build Gram matrices, decompose, and record per-rank errors
compare   spectral truncation vs randomized-projection errors
verify    numerical checks of the spectral identities and concentration
spectrum  analytic eigenvalues and decay rate of the Gaussian/RBF setting
rates     required rank and predicted error rate for a decay hypothesis

All randomness flows from one seed; outputs are deterministic given
(config, seed). CSV cells carry 17 significant digits so files are
byte-reproducible and round-trip exactly. The output directory comes from
--out, the config, or the KERNLR_OUT environment variable, in that order of
precedence.

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

import numpy as np

from . import datasets, kernels, verification
from .analytic import (
    DecayHypothesis,
    GaussianRbfSpectrum,
    beta_from_upsilon,
    entrywise_error_rate,
    exponential_decay,
    gaussian_rbf_eigenvalue,
    required_rank,
)
from .errors import EigensolverError
from .kernels import KernelSpec, gram_matrix
from .random_projection import compare_methods
from .spectral import _mirror_upper, eigendecompose, error_sweep
from .svgplot import line_plot

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


def _build_dataset(config) -> np.ndarray:
    spec = dict(config["dataset"])
    seed = config["seed"]
    if "seed" in spec:
        raise ConfigError("dataset takes no 'seed'; the top-level seed seeds the data")
    count = spec.pop("subsample", None)
    # dataset.kind names a generator; its keyword arguments are the fields.
    kinds = {"csv": datasets.load_csv, "gmm": datasets.gmm_synthetic,
             "gaussian": datasets.gaussian_synthetic, "sphere": datasets.sphere_uniform}
    X = _construct("dataset", kinds, "kind", spec, seed=lambda: seed)
    if count is not None:
        X = _call("dataset subsample", datasets.subsample,
                  {"data": X, "count": count, "seed": seed + 1})
    if config["standardize"]:
        X = kernels.standardize(X)
    return X


def _build_kernels(config, X) -> list[KernelSpec]:
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
    if spec == "auto":
        # Geometric grid: 30 points from 1 to n, plus the endpoints 0 and n.
        pts = np.unique(np.rint(np.geomspace(1, n, 30)).astype(int))
        ranks = sorted(set(pts.tolist()) | {0, n})
    elif isinstance(spec, str):
        ranks = _parse_int_list(spec, "rank list")
    elif all(isinstance(d, int) for d in spec):
        ranks = sorted(spec)
    else:
        raise ConfigError(f"ranks must be integers, got {spec!r}")
    if not ranks or any(d < 0 or d > n for d in ranks):
        raise ConfigError(f"ranks must be non-empty and lie in [0, {n}], got {spec!r}")
    return ranks


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return sorted(int(tok) for tok in text.split(",") if tok.strip())
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
        rows = zip(sweep.ranks.tolist(), sweep.max_entry_error, sweep.frobenius_error,
                   sweep.spectral_error, sweep.tail_abs_sum, sweep.sup_norm_tail)
        _write_csv(out, f"sweep_{spec.label}.csv",
                   ["rank", "max_entry_error", "frobenius_error", "spectral_error",
                    "tail_abs_sum", "sup_norm_tail"], rows)
        curves.append((spec.label, sweep.ranks.tolist(), sweep.max_entry_error.tolist()))

    svg = os.path.join(out, "sweep.svg")
    line_plot(svg, curves, xlabel="rank", ylabel="max-entry error",
              title="Truncation error against rank")
    print(f"wrote {svg}")
    return 0


# -------------------------------------------------------------- compare

def cmd_compare(args) -> int:
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
               zip(result.ranks.tolist(), result.spectral_max_error,
                   result.jl_median_max_error, result.jl_rate_shape))
    return 0


# --------------------------------------------------------------- verify

def _check_identity(seed, quick):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (10, 50):
        for _ in range(5 if quick else 10):
            G = rng.standard_normal((2 * n, n))
            K = _mirror_upper(G.T @ G / (2 * n))
            report = verification.minor_identity_check(K)
            worst = max(worst, report.max_discrepancy)
    return worst, 1e-6, "PSD instances, n in (10, 50)"


def _check_interlacing(seed, quick):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (10, 100):
        for _ in range(5 if quick else 10):
            A = rng.standard_normal((n, n))
            K = (A + A.T) / 2.0
            eig = eigendecompose(K)
            minor = verification.minor_decomposition(K)
            worst = max(worst, verification.interlacing_check(eig, minor))
    return worst, 1e-10, "symmetric instances, n in (10, 100)"


def _check_delocalisation(seed, quick):
    n = 500 if quick else 2000
    X = datasets.gaussian_synthetic(n, 1, sigma=1.0, seed=seed)
    spec = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)
    d = required_rank(n, exponential_decay(spec.beta))
    gram = gram_matrix(kernels.rbf(1.0), X)
    eig = eigendecompose(gram)
    stat = verification.delocalisation_report(eig, d)
    return stat, 10.0, f"rbf Gram, n={n}, d={d}"


def _check_subspace(seed, quick):
    trials = 2000 if quick else 10000
    report = verification.subspace_distance_experiment(
        n=1024, q=256, law=verification.bernoulli(0.5), trials=trials, seed=seed)
    excess = float(np.max(report.frequencies - report.bounds))
    detail = "freq vs bound at t=" + ",".join(f"{t:g}" for t in report.thresholds)
    return excess, 0.0, detail


def _check_eigdev(seed, quick):
    n = 1000 if quick else 4000
    seeds = 3 if quick else 10
    spec = GaussianRbfSpectrum(sigma=1.0, bandwidth=1.0)
    devs = []
    for k in range(seeds):
        X = datasets.gaussian_synthetic(n, 1, sigma=1.0, seed=seed + k)
        K = gram_matrix(kernels.rbf(1.0), X)
        w = np.linalg.eigvalsh(K)[::-1]
        report = verification.eigenvalue_deviation_report(w, spec, count=5)
        devs.append(report.rel_deviation)
    worst = float(np.max(np.median(np.array(devs), axis=0)))
    return worst, 0.1, f"n={n}, median over {seeds} seeds, top 5 eigenvalues"


_SUITES = {
    "identity": (_check_identity, False),
    "interlacing": (_check_interlacing, False),
    "delocalisation": (_check_delocalisation, True),
    "subspace": (_check_subspace, True),
    "eigdev": (_check_eigdev, True),
}


def cmd_verify(args) -> int:
    config = _load_config(args)
    seed = config["seed"]
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    out = _ensure_out(config["out"])

    rows = []
    all_ok = True
    for name in names:
        check, statistical = _SUITES[name]
        used_seed = seed
        stat, threshold, detail = check(used_seed, args.quick)
        ok = stat <= threshold
        if not ok and statistical:
            # Statistical assertions get exactly one seeded re-run.
            used_seed = seed + 1000003
            print(f"{name}: statistic {stat:.6g} exceeded {threshold:g}; "
                  f"re-running once with seed {used_seed}")
            stat, threshold, detail = check(used_seed, args.quick)
            ok = stat <= threshold
        rows.append((name, stat, threshold, ok, used_seed, detail))
        all_ok &= ok

    width = max(len(name) for name, *_ in rows)
    for name, stat, threshold, ok, used_seed, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name:<{width}}  statistic={stat:.6g}  "
              f"threshold={threshold:g}  seed={used_seed}  ({detail})")

    _write_csv(out, "verify.csv", ["check", "statistic", "threshold", "passed", "seed", "detail"],
               [(name, stat, threshold, int(ok), used_seed, detail)
                for name, stat, threshold, ok, used_seed, detail in rows])
    return 0 if all_ok else 1


# ------------------------------------------------------- spectrum, rates

def cmd_spectrum(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    if args.upsilon is not None:
        upsilon = args.upsilon
        beta_from_upsilon(upsilon)  # rejects upsilon <= 0 before the square root
        spec = GaussianRbfSpectrum(sigma=math.sqrt(upsilon / 2.0), bandwidth=1.0)
    else:
        if args.sigma is None or args.omega is None:
            raise ConfigError("give either --upsilon or both --sigma and --omega")
        spec = GaussianRbfSpectrum(sigma=args.sigma, bandwidth=args.omega)
        upsilon = spec.upsilon
    values = [gaussian_rbf_eigenvalue(i, spec) for i in range(args.count)]
    print(f"upsilon = {upsilon:g}")
    print(f"beta = {beta_from_upsilon(upsilon):.7f}")
    print(f"ratio = {spec.ratio:.7f}")
    print("eigenvalues: " + ", ".join(f"{v:.7f}" for v in values))
    if args.out:
        _write_csv(_ensure_out(args.out), "spectrum.csv", ["index", "eigenvalue"],
                   list(enumerate(values)))
    return 0


def _hypothesis_from_args(args) -> DecayHypothesis:
    if args.hypothesis == "P":
        if args.alpha is None:
            raise ConfigError("hypothesis P needs --alpha")
        return DecayHypothesis(kind="P", alpha=args.alpha, r=args.r)
    if args.beta is None:
        raise ConfigError("hypothesis E needs --beta")
    return DecayHypothesis(kind="E", beta=args.beta, gamma=args.gamma, s=args.s)


def cmd_rates(args) -> int:
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
        p.add_argument("--config", help="JSON config file; omitted fields use defaults")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", help=f"output directory (overrides config and ${ENV_OUT})")
        p.add_argument("--ranks", help='rank grid: "auto" or comma-separated integers')

    p = sub.add_parser("sweep", help="per-rank truncation errors for each kernel")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="spectral truncation vs random projection")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="numerical checks of the spectral identities")
    common(p)
    p.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p.add_argument("--quick", action="store_true", help="smaller instances, smoke-test sizes")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="analytic Gaussian/RBF eigenvalues")
    p.add_argument("--upsilon", type=float, help="bandwidth ratio 2 sigma^2 / omega^2")
    p.add_argument("--sigma", type=float, help="data scale (alternative to --upsilon)")
    p.add_argument("--omega", type=float, help="kernel bandwidth (alternative to --upsilon)")
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
    except EigensolverError as exc:
        print(f"numerical failure in stage eigendecompose: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
