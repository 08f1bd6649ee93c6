"""Command-line experiment runner.

Subcommands
-----------
sweep     build Gram matrices, decompose, and record per-rank errors
compare   spectral truncation vs randomized-projection errors
verify    numerical checks of the spectral identities and concentration
spectrum  analytic eigenvalues and decay rate of the Gaussian/RBF setting
rates     required rank and predicted error rate for a decay hypothesis

All randomness flows from one seed. For a fixed (config, seed, numpy/BLAS
build, BLAS thread count) the output files are byte-identical; CSV cells carry
17 significant digits, so they round-trip exactly. BLAS splits its sums by
thread, so across thread counts ``sweep`` and ``compare`` agree only within the
tolerance of ``bench/oracle.py`` (1e-6 relative plus 1e-9 of the column's
largest value; one against two OpenBLAS threads: 8.8e-10 relative at most).
``verify delocalisation`` reads the numerically null space, which the thread
count moves: at --seed 4 --quick it read 22.0053 on one thread, 21.9946 on two.
Unless OPENBLAS_THREAD_TIMEOUT is set, a run parks an idle OpenBLAS worker after
2**18 cycles, not 2**28; unlike the thread count, this changes no output bit.

Each setting has one source. The config file of ``sweep`` and ``compare``
holds the experiment: dataset, standardize, kernels, ranks and jl_trials.
Two flags hold the run: --seed (default 0) and --out (default
kernlr-results). ``verify`` runs fixed experiments and takes no config.
Config fields and ``rates``' hypothesis flags bind as keyword arguments of
the library function they name (``_call``), so a field that function does
not take is refused, not ignored.

Exit codes: 0 success, 1 failed assertion or numerical failure, 2 usage or
configuration error. Each error is one line, argparse's refusals included:
``error: <message>`` for exit 2; ``numerical failure: <message>`` for a failed
eigensolver or other linear algebra, or a floating-point overflow, division by
zero or nan. A failure in one kernel's stage of ``sweep`` or ``compare`` starts
``kernel <label>: ``.
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

# After each BLAS call, an idle OpenBLAS worker spins for 2**28 cycles (0.13 s
# at 2.1 GHz) before it sleeps: CPU time no result needs, taken from any run
# beside it. At 2**18 cycles (0.12 ms) it parks between calls; the thread
# count, and so every output bit, is unchanged. OpenBLAS reads this once, when
# numpy loads it, so it must precede every numpy import of a CLI run
# (kernlr/__init__.py imports none). A value the user has exported wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "18")
import numpy as np

# Only what argument parsing and config loading need is imported here; each
# command imports the library modules it runs, so no run loads the others.
from .spectral import EigensolverError, _check_int, _check_real

if TYPE_CHECKING:
    from .kernels import KernelSpec

DEFAULT_CONFIG = {
    "dataset": {"kind": "gmm", "n": 1000, "p": 10, "components": 10, "mean_scale": 10.0},
    "standardize": False,
    # Matern and rbf entries without a "bandwidth" get the median pairwise distance.
    "kernels": [
        {"family": "matern", "nu": 0.5},
        {"family": "matern", "nu": 1.5},
        {"family": "matern", "nu": 2.5},
        {"family": "rbf"},
    ],
    "ranks": "auto",
    "jl_trials": 50,
}


# Keys that also take a second JSON type besides the type of their default.
_OTHER_TYPES = {"ranks": (list,)}


def _load_config(path, **defaults) -> dict:
    config = json.loads(json.dumps({**DEFAULT_CONFIG, **defaults}))  # deep copy; then the file
    if path:
        try:
            with open(path, encoding="utf-8") as handle:
                user = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ValueError("config root must be a JSON object")
        for key, value in user.items():
            if key not in DEFAULT_CONFIG:
                raise ValueError(f"unknown config key {key!r}; "
                                 f"valid keys: {', '.join(DEFAULT_CONFIG)}")
            types = (type(DEFAULT_CONFIG[key]),) + _OTHER_TYPES.get(key, ())
            if type(value) not in types:  # exact: a JSON true is no integer here
                names = " or ".join(t.__name__ for t in types)
                raise ValueError(f"config key {key!r} must be a {names}, got {value!r}")
        config.update(user)
    config["jl_trials"] = _check_int(config["jl_trials"], "jl_trials", 1)
    return config


def _call(what: str, func, fields: dict, **supplied):
    """``func(**fields)``; ``supplied`` maps a parameter ``func`` takes but ``fields``
    lacks to a callable giving its value. A field ``func`` does not take, a missing
    required field or a value it rejects is a ValueError naming ``what``."""
    signature = inspect.signature(func)
    for param, value in supplied.items():
        if param in signature.parameters and param not in fields:
            fields[param] = value()
    try:
        signature.bind(**fields)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}; fields: {', '.join(signature.parameters)}") from None
    try:
        return func(**fields)
    except TypeError as exc:
        raise ValueError(f"{what}: a field has the wrong type: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _construct(what: str, table: dict, key: str, entry, **supplied):
    """Call ``table[entry[key]]`` with the entry's other fields as keyword arguments."""
    if not isinstance(entry, dict):
        raise ValueError(f"each {what} must be a JSON object, got {entry!r}")
    fields = dict(entry)
    name = fields.pop(key, None)
    if not isinstance(name, str) or name not in table:
        raise ValueError(f"unknown {what} {key} {name!r}; valid: {', '.join(table)}")
    return _call(f"{what} {name!r}", table[name], fields, **supplied)


# n x n float64 arrays a sweep or compare run holds at once at its peak, inside
# eigh: the Gram matrix, numpy's copy of it, the eigenvectors and the 2 n^2
# syevd workspace. Peak RSS grows by 5.2 n^2 float64 for both commands
# (tests/test_cli.py measures it); 6 is the next integer.
_SQUARE_ARRAYS = 6


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _preflight(n) -> None:
    """Refuse, before the data exist, a run whose ``_SQUARE_ARRAYS`` n x n arrays exceed
    memory. The generator names an invalid ``n``."""
    try:
        n = _check_int(n, "n", 1)
    except ValueError:
        return
    memory = _physical_memory()
    fits = math.isqrt(memory // (8 * _SQUARE_ARRAYS))
    if n > fits:
        raise ValueError(f"dataset n={n} needs {_SQUARE_ARRAYS} n x n arrays, "
                         f"{_SQUARE_ARRAYS * 8 * n * n / 2**30:.3g} GiB, against "
                         f"{memory / 2**30:.3g} GiB of memory; the largest n that fits is {fits}")


def _build_dataset(config, seed: int) -> np.ndarray:
    from . import datasets, kernels
    spec = dict(config["dataset"])
    if "seed" in spec:
        raise ValueError("dataset takes no 'seed'; --seed seeds the data")
    # dataset.kind names a generator; its keyword arguments are the fields.
    kinds = {"csv": datasets.load_csv, "gmm": datasets.gmm_synthetic,
             "gaussian": datasets.gaussian_synthetic, "sphere": datasets.sphere_uniform}
    kind = spec.get("kind")
    generator = kinds.get(kind) if isinstance(kind, str) else None
    if generator not in (None, datasets.load_csv):  # i.i.d. rows: the size is n, known up front
        if "subsample" in spec:
            raise ValueError(f"dataset {kind!r} takes no 'subsample'; its 'n' sets the size")
        _preflight(spec.get("n", inspect.signature(generator).parameters["n"].default))
    subsample = "subsample" in spec  # a null count is refused by subsample's integer rule
    count = spec.pop("subsample", None)
    X = _construct("dataset", kinds, "kind", spec, seed=lambda: seed)
    if subsample:
        X = _call("dataset subsample", datasets.subsample,
                  {"data": X, "count": count, "seed": seed + 1})
    _preflight(X.shape[0])  # a csv file's rows are known once it is loaded
    if config["standardize"]:
        X = kernels.standardize(X)
    return X


def _build_kernels(config, X) -> list[KernelSpec]:
    from . import kernels
    # The median pairwise distance is computed once, and only if an entry needs it.
    median = functools.cache(lambda: kernels.median_heuristic(X))
    families = {"matern": kernels.matern, "rbf": kernels.rbf, "dot_product": kernels.dot_product}
    specs = [_construct("kernel", families, "family", entry, bandwidth=median)
             for entry in config["kernels"]]
    if not specs:
        raise ValueError("config needs at least one kernel")
    labels = [spec.label for spec in specs]
    if len(set(labels)) < len(labels):  # each label names its kernel's output files
        raise ValueError(f"kernels share the label {max(labels, key=labels.count)!r}")
    return specs


def _rank_grid(spec, n: int) -> list[int]:
    """The sorted distinct ranks of ``spec``: "auto" or a list of integers."""
    if spec == "auto":
        # Geometric grid: 30 points from 1 to n, plus the endpoints 0 and n.
        ranks = np.rint(np.geomspace(1, n, 30)).astype(int).tolist() + [0, n]
    elif isinstance(spec, list) and all(isinstance(d, int) and not isinstance(d, bool) for d in spec):
        ranks = spec
    else:
        raise ValueError(f'ranks must be "auto" or a list of integers, got {spec!r}')
    ranks = sorted(set(ranks))
    if not ranks or any(d < 0 or d > n for d in ranks):
        raise ValueError(f"ranks must be non-empty and lie in [0, {n}], got {spec!r}")
    return ranks


def _write_csv(out, name, header, rows) -> None:
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    print(f"wrote {path}")


def _ensure_out(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _per_kernel(specs, X, work):
    """Yield ``(label, work(gram))`` per kernel, one kernel's n x n arrays alive at a time.

    A numerical failure is re-raised with the kernel's label, for ``main`` to print.
    """
    from .kernels import gram_matrix
    for spec in specs:
        try:
            result = work(gram_matrix(spec, X))
        except (EigensolverError, FloatingPointError) as exc:
            raise type(exc)(f"kernel {spec.label}: {exc}") from exc
        yield spec.label, result


# ---------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    from .spectral import eigendecompose, error_sweep
    from .svgplot import line_plot
    config = _load_config(args.config)
    X = _build_dataset(config, args.seed)
    specs = _build_kernels(config, X)
    ranks = _rank_grid(config["ranks"], X.shape[0])
    out = _ensure_out(args.out)

    curves = []
    for label, sweep in _per_kernel(specs, X, lambda gram: error_sweep(gram, eigendecompose(gram), ranks)):
        rows = zip(ranks, sweep.max_entry_error, sweep.frobenius_error,
                   sweep.spectral_error, sweep.tail_abs_sum, sweep.sup_norm_tail)
        _write_csv(out, f"sweep_{label}.csv",
                   ["rank", "max_entry_error", "frobenius_error", "spectral_error",
                    "tail_abs_sum", "sup_norm_tail"], rows)
        curves.append((label, ranks, sweep.max_entry_error.tolist()))

    svg = os.path.join(out, "sweep.svg")
    line_plot(svg, curves, xlabel="rank", ylabel="max-entry error",
              title="Truncation error against rank")
    print(f"wrote {svg}")
    return 0


# -------------------------------------------------------------- compare

def cmd_compare(args) -> int:
    from .random_projection import compare_methods, jl_error_bound
    # One kernel unless the config names more: each costs jl_trials sketches per rank.
    config = _load_config(args.config, kernels=[{"family": "matern", "nu": 0.5}])
    X = _build_dataset(config, args.seed)
    specs = _build_kernels(config, X)
    ranks = [d for d in _rank_grid(config["ranks"], X.shape[0]) if d >= 1]
    if not ranks:
        raise ValueError(f"compare needs a rank >= 1, got {config['ranks']!r}")
    out = _ensure_out(args.out)

    shape = [jl_error_bound(X.shape[0], d) for d in ranks]
    for label, result in _per_kernel(specs, X, lambda gram: compare_methods(
            gram, ranks, trials=config["jl_trials"], seed=args.seed)):
        _write_csv(out, f"compare_{label}.csv",
                   ["rank", "spectral_max_error", "jl_median_max_error", "jl_rate_shape"],
                   zip(ranks, result.spectral_max_error, result.jl_median_max_error, shape))
    return 0


# --------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    from .verification import CHECKS, run_check
    if args.suite != "all" and args.suite not in CHECKS:
        raise ValueError(f"unknown check {args.suite!r}; valid: {', '.join(CHECKS)}, all")
    names = list(CHECKS) if args.suite == "all" else [args.suite]
    out = _ensure_out(args.out)

    rows = []
    for name in names:
        row, first = run_check(name, args.seed, args.quick)
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
    from .analytic import GaussianRbfSpectrum, gaussian_rbf_eigenvalue
    count = _check_int(args.count, "--count", 1)
    upsilon = _check_real(args.upsilon, "upsilon", "[1e-323, inf)")  # below, sigma rounds to 0
    spec = GaussianRbfSpectrum(sigma=math.sqrt(upsilon / 2.0), bandwidth=1.0)

    def values():  # streamed, so --count may exceed memory
        return (gaussian_rbf_eigenvalue(i, spec) for i in range(count))

    print(f"upsilon = {upsilon:g}")
    print(f"beta = {spec.beta:.7f}")
    print(f"ratio = {spec.ratio:.7f}")
    print("eigenvalues: ", end="")
    for i, v in enumerate(values()):
        print(f", {v:.7f}" if i else f"{v:.7f}", end="")
    print()
    if args.out:
        _write_csv(_ensure_out(args.out), "spectrum.csv", ["index", "eigenvalue"],
                   enumerate(values()))
    return 0


def cmd_rates(args) -> int:
    from .analytic import entrywise_error_rate, exponential_decay, polynomial_decay, required_rank
    # The flags given bind as a config entry's fields do (see the module docstring).
    flags = {flag: getattr(args, flag) for flag in ("alpha", "r", "beta", "gamma", "s")
             if getattr(args, flag) is not None}
    hyp = _call(f"hypothesis {args.hypothesis!r}",
                {"P": polynomial_decay, "E": exponential_decay}[args.hypothesis], flags)
    rows = [(n, required_rank(n, hyp), entrywise_error_rate(n, hyp)) for n in sorted(set(args.n))]
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

class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line on one line, as ``main`` refuses every other input;
    ``add_subparsers`` makes each subcommand's parser one too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kernlr",
        description="Low-rank kernel matrix approximation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default="kernlr-results", help="output directory (default kernlr-results)")

    for name, func, help_text in (("sweep", cmd_sweep, "per-rank truncation errors for each kernel"),
                                  ("compare", cmd_compare, "spectral truncation vs random projection")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; omitted fields use defaults")
        common(p)
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
    p.add_argument("--r", type=float, help="sup-norm growth exponent (P; default 0)")
    p.add_argument("--beta", type=float, help="exponential decay rate (E)")
    p.add_argument("--gamma", type=float, help="stretching exponent (E; default 1)")
    p.add_argument("--s", type=float, help="sup-norm growth rate (E; default 0)")
    p.add_argument("--n", type=int, nargs="+", default=[500, 1000, 2000, 4000, 8000],
                   help="one or more sample sizes (default 500 1000 2000 4000 8000)")
    p.add_argument("--out", help="also write rates.csv to this directory")
    p.set_defaults(func=cmd_rates)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed"):  # sweep, compare and verify
            args.seed = _check_int(args.seed, "seed", 0)
        # An overflow, division by zero or nan raises instead of reaching the outputs.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (EigensolverError, FloatingPointError, np.linalg.LinAlgError) as exc:  # LinAlgError is ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:  # an array too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
