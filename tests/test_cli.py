import contextlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kernlr
from kernlr import cli, kernels, verification
from kernlr.cli import DEFAULT_CONFIG, main
from kernlr.datasets import sphere_uniform
from kernlr.kernels import dot_product, gram_matrix
from kernlr.spectral import eigendecompose


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_sweep_writes_per_kernel_csvs_and_svg(tmp_path):
    config = {
        "dataset": {"kind": "gaussian", "n": 60, "p": 2},
        "kernels": [{"family": "matern", "nu": 0.5}, {"family": "rbf"}],
        "ranks": [0, 5, 20, 60],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
    header, rows = _read_csv(out / "sweep_matern12.csv")
    assert header == ["rank", "max_entry_error", "frobenius_error", "spectral_error",
                      "tail_abs_sum", "sup_norm_tail"]
    assert len(rows) == 4
    assert (out / "sweep_rbf.csv").exists()
    svg = (out / "sweep.svg").read_text()
    assert svg.startswith("<?xml") and "<svg" in svg and "</svg>" in svg


def test_sweep_full_rank_row_is_zero(tmp_path):
    config = {
        "dataset": {"kind": "gaussian", "n": 25, "p": 1},
        "kernels": [{"family": "rbf"}],
        "ranks": [25],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "r"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _read_csv(out / "sweep_rbf.csv")
    assert [float(v) for v in rows[0][1:4]] == [0.0, 0.0, 0.0]


def test_sweep_missing_csv_input_exits_2(tmp_path, capsys):
    config = {"dataset": {"kind": "csv", "path": str(tmp_path / "absent.csv")}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "absent.csv" in capsys.readouterr().err


def test_compare_csv_schema_and_rate_column(tmp_path):
    config = {
        "dataset": {"kind": "gaussian", "n": 40, "p": 2},
        "kernels": [{"family": "rbf"}],
        "ranks": [4, 16],
        "jl_trials": 5,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    header, rows = _read_csv(out / "compare_rbf.csv")
    assert header == ["rank", "spectral_max_error", "jl_median_max_error", "jl_rate_shape"]
    assert len(rows) == 2
    for row in rows:
        d = int(row[0])
        assert float(row[3]) == pytest.approx(np.sqrt(np.log(40.0) / d))


def test_compare_without_kernels_runs_matern12_alone(tmp_path):
    # compare's own default kernel list: one kernel, as its sketches cost
    # jl_trials per rank; sweep's default is four.
    config = {"dataset": {"kind": "gaussian", "n": 30, "p": 2}, "ranks": [3], "jl_trials": 2}
    assert _run_config(tmp_path, config, "compare") == 0
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["compare_matern12.csv"]


def test_compare_writes_each_kernel_as_its_own_run_would(tmp_path):
    both = [{"family": "matern", "nu": 0.5}, {"family": "rbf"}]
    base = {"dataset": {"kind": "gaussian", "n": 40, "p": 2}, "ranks": [2, 9], "jl_trials": 3}
    for name, kernels in (("both", both), ("matern12", both[:1]), ("rbf", both[1:])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**base, "kernels": kernels}))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / name), "--seed", "4"]) == 0
    assert sorted(p.name for p in (tmp_path / "both").iterdir()) == ["compare_matern12.csv",
                                                                      "compare_rbf.csv"]
    for label in ("matern12", "rbf"):
        name = f"compare_{label}.csv"
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / label / name).read_bytes()


def test_compare_byte_identical_given_seed(tmp_path):
    config = {
        "dataset": {"kind": "gaussian", "n": 30, "p": 2},
        "kernels": [{"family": "rbf"}],
        "ranks": [3, 9],
        "jl_trials": 4,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["compare", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
        outs.append((out / "compare_rbf.csv").read_bytes())
    assert outs[0] == outs[1]


def test_verify_quick_suites_pass(tmp_path, capsys):
    rc = main(["verify", "identity", "--quick", "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    assert "PASS identity" in capsys.readouterr().out
    rc = main(["verify", "interlacing", "--quick", "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "verify.csv")
    assert header == ["check", "statistic", "threshold", "passed", "seed", "detail"]
    assert rows[0][3] == "1"


def test_verify_subspace_quick(tmp_path):
    assert main(["verify", "subspace", "--quick", "--out", str(tmp_path), "--seed", "2"]) == 0


@pytest.mark.parametrize("seed", ["0", "1000003"])
def test_verify_subspace_statistic_unchanged(tmp_path, seed):
    # the value a Householder QR projection gives; the Cholesky route must match it
    assert main(["verify", "subspace", "--quick", "--out", str(tmp_path), "--seed", seed]) == 0
    with open(tmp_path / "verify.csv") as f:
        row = f.read().splitlines()[1].split(",")
    assert row[:2] == ["subspace", "-0.0013418505116100474"]


def test_verify_eigdev_quick(tmp_path):
    assert main(["verify", "eigdev", "--quick", "--out", str(tmp_path), "--seed", "0"]) == 0


def test_verify_failing_check_exits_1_and_names_it(tmp_path, capsys):
    # the delocalisation threshold encodes an asymptotic prediction that does
    # not hold at these sizes; the command must fail loudly, log the re-run
    # seed, and still write the report
    rc = main(["verify", "delocalisation", "--quick", "--out", str(tmp_path), "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL delocalisation" in out
    assert "re-running once" in out
    assert (tmp_path / "verify.csv").exists()


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_oracle(workload):
    spec = importlib.util.spec_from_file_location("bench_oracle", BENCH / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, BENCH / "reference" / workload


@pytest.mark.parametrize("seed", range(8))
def test_verify_all_quick_matches_benchmark_reference(tmp_path, seed):
    # The benchmark's verify-all workload, checked with its own oracle.
    oracle, reference = _bench_oracle("verify-all")
    assert main(["verify", "all", "--quick", "--out", str(tmp_path), "--seed", str(seed)]) == 1
    assert oracle.compare_outputs(tmp_path, reference / f"seed{seed}", ["verify.csv"]) == []


@pytest.mark.parametrize("seed", range(8))
def test_sweep_matches_benchmark_reference(tmp_path, seed):
    # The benchmark's sweep-gmm workload, checked with its own oracle.
    oracle, reference = _bench_oracle("sweep-gmm")
    config = str(BENCH / "configs" / "sweep-gmm.json")
    assert main(["sweep", "--config", config, "--out", str(tmp_path), "--seed", str(seed)]) == 0
    names = [f"sweep_{k}.csv" for k in ("matern12", "matern32", "matern52", "rbf")]
    assert oracle.compare_outputs(tmp_path, reference / f"seed{seed}", names) == []


@pytest.mark.parametrize("seed", range(8))
def test_compare_matches_benchmark_reference(tmp_path, seed):
    # The benchmark's compare-gmm workload, checked with its own oracle.
    oracle, reference = _bench_oracle("compare-gmm")
    config = str(BENCH / "configs" / "compare-gmm.json")
    assert main(["compare", "--config", config, "--out", str(tmp_path), "--seed", str(seed)]) == 0
    assert oracle.compare_outputs(tmp_path, reference / f"seed{seed}", ["compare_matern12.csv"]) == []


def test_outputs_are_reproducible_within_and_across_blas_thread_counts(tmp_path):
    # The reproducibility contract of kernlr.cli: byte-identical files at a
    # fixed BLAS thread count, and within the benchmark oracle's tolerance
    # between one thread and the library default. How long an idle OpenBLAS
    # worker spins changes no bit: OpenBLAS's own default of 2**28 cycles gives
    # the bytes of the CLI's 2**18. Only the child processes' BLAS settings are set.
    config = {"dataset": {"kind": "gmm", "n": 300, "p": 10, "components": 10, "mean_scale": 10.0},
              "kernels": [{"family": "matern", "nu": 0.5}, {"family": "rbf"}], "jl_trials": 3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    default = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT")}
    default["PYTHONPATH"] = str(Path(kernlr.__file__).parents[1])
    one = {**default, "OPENBLAS_NUM_THREADS": "1"}
    spinning = {**default, "OPENBLAS_THREAD_TIMEOUT": "28"}
    for run, env in (("one", one), ("again", one), ("default", default), ("spinning", spinning)):
        for command in ("sweep", "compare"):
            subprocess.run([sys.executable, "-m", "kernlr.cli", command, "--config", str(cfg),
                            "--out", str(tmp_path / run), "--seed", "0"],
                           env=env, capture_output=True, check=True)
    names = ["compare_matern12.csv", "compare_rbf.csv", "sweep_matern12.csv", "sweep_rbf.csv"]
    assert sorted(p.name for p in (tmp_path / "one").glob("*.csv")) == names
    for name in names:
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
        assert (tmp_path / "spinning" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()
    oracle, _ = _bench_oracle("sweep-gmm")
    assert oracle.compare_outputs(tmp_path / "default", tmp_path / "one", names) == []


# Prints OPENBLAS_THREAD_TIMEOUT as it stands when numpy is first imported,
# which is when OpenBLAS reads it.
_TIMEOUT_AT_NUMPY_IMPORT = """
import os, sys
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
            sys.meta_path.remove(self)
sys.meta_path.insert(0, Probe())
import kernlr.cli
"""


@pytest.mark.parametrize("exported, expected", [(None, "18"), ("28", "28")])
def test_cli_parks_idle_blas_workers_unless_the_user_set_the_timeout(exported, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(Path(kernlr.__file__).parents[1])
    if exported is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = exported
    out = subprocess.run([sys.executable, "-c", _TIMEOUT_AT_NUMPY_IMPORT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == f"{expected}\n"


def test_verify_unknown_suite_exits_2(tmp_path, capsys):
    assert main(["verify", "nonsense", "--out", str(tmp_path / "o")]) == 2
    err = _assert_one_error_line(capsys)
    assert "'nonsense'" in err and all(name in err for name in [*verification.CHECKS, "all"])
    assert not (tmp_path / "o").exists()


def test_spectrum_values(capsys):
    assert main(["spectrum", "--upsilon", "2", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "0.6180340, 0.2360680, 0.0901699" in out
    assert "0.9624237" in out


@pytest.mark.parametrize("upsilon", ["1e308", "1.7976931348623157e308"])
def test_spectrum_holds_up_to_the_largest_upsilon(capsys, upsilon):
    # 1 + 2 upsilon overflows here; the ratio is 1 - sqrt(2 / upsilon), 1 as a float.
    assert main(["spectrum", "--upsilon", upsilon, "--count", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:3] == ["beta = 0.0000000", "ratio = 1.0000000"]


def test_spectrum_streams_its_rows(tmp_path):
    # A list of the values and of their formatted strings peaks at 12 MB at
    # this count; streamed rows hold one value at a time, beside the parser
    # and the file buffers.
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        tracemalloc.start()
        try:
            rc = main(["spectrum", "--upsilon", "2", "--count", "100000",
                       "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rc == 0
    assert peak < 2**20
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 100001 and lines[-1].startswith("99999,")


@pytest.mark.parametrize("argv", [["--count", "2"], ["--sigma", "1", "--omega", "1"]])
def test_spectrum_needs_parameters(capsys, argv):
    # --upsilon is required; --sigma and --omega are no options.
    with pytest.raises(SystemExit) as info:
        main(["spectrum"] + argv)
    assert info.value.code == 2


def test_rates_exponential_case(tmp_path, capsys):
    rc = main(["rates", "--hypothesis", "E", "--beta", "0.9624237", "--gamma", "1",
               "--n", "1000", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "8" in out and "0.001" in out
    header, rows = _read_csv(tmp_path / "rates.csv")
    assert header == ["n", "required_rank", "rate"]
    assert rows[0][0] == "1000" and rows[0][1] == "8"
    assert float(rows[0][2]) == pytest.approx(0.001)


def test_rates_writes_each_size_once(tmp_path, capsys):
    assert main(["rates", "--hypothesis", "E", "--beta", "1", "--n", "1000", "500", "500",
                 "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "rates.csv")
    assert [row[0] for row in rows] == ["500", "1000"]
    printed = capsys.readouterr().out.splitlines()[2:-1]  # between the header and "wrote"
    assert [line.split()[0] for line in printed] == ["500", "1000"]


def test_rates_polynomial_case(capsys):
    assert main(["rates", "--hypothesis", "P", "--alpha", "2", "--n", "100"]) == 0
    out = capsys.readouterr().out
    assert "10" in out


@pytest.mark.parametrize("argv, needle", [
    (["E", "--beta", "1", "--alpha", "3", "--r", "0.5"],
     "hypothesis 'E': got an unexpected keyword argument 'alpha'; fields: beta, gamma, s"),
    (["P", "--alpha", "3", "--gamma", "0.5", "--s", "9"],
     "hypothesis 'P': got an unexpected keyword argument 'gamma'; fields: alpha, r"),
], ids=["E-alpha-r", "P-gamma-s"])
def test_rates_refuses_the_other_hypothesis_flags(tmp_path, capsys, argv, needle):
    out = tmp_path / "o"
    assert main(["rates", "--hypothesis", *argv, "--out", str(out)]) == 2
    assert _assert_one_error_line(capsys) == f"error: {needle}\n"
    assert not out.exists()


def test_rates_invalid_hypothesis_exits_2(capsys):
    assert main(["rates", "--hypothesis", "P", "--alpha", "0.5"]) == 2
    assert "alpha" in capsys.readouterr().err


_HUGE = str(10**400)  # an integer beyond the float range


@pytest.mark.parametrize("argv, needle", [
    (["E", "--beta", "0.1", "--gamma", "0.001", "--n", "1000"], "required rank for n = 1000 "),
    (["P", "--alpha", "2", "--n", _HUGE], f"required rank for n = {_HUGE} "),
    (["E", "--beta", "1", "--n", _HUGE], f"n = {_HUGE} is too large for a float"),
], ids=["E-rank", "P-n", "E-n"])
def test_rates_overflowing_rank_or_size_exits_2(capsys, argv, needle):
    assert main(["rates", "--hypothesis"] + argv) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and needle in captured.err, captured.err
    assert captured.out == ""


@pytest.mark.parametrize("sizes, needle", [
    (["0"], "n must be an integer >= 2, got 0"),
    (["-5", "100"], "n must be an integer >= 2, got -5"),
])
def test_rates_non_positive_n_exits_2(capsys, sizes, needle):
    assert main(["rates", "--hypothesis", "E", "--beta", "1", "--n", *sizes]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and needle in captured.err, captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, needle", [
    (["sweep", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["rates", "--hypothesis", "X"], "argument --hypothesis: invalid choice: 'X'"),
    (["verify"], "the following arguments are required: suite"),
    (["rates", "--hypothesis", "E", "--beta", "1", "--c", "5"], "unrecognized arguments: --c 5"),
    (["rates", "--hypothesis", "E", "--beta", "1", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["rates", "--hypothesis", "E", "--beta", "1", "--n", "1000,500"],
     "argument --n: invalid int value: '1000,500'"),
    (["rates", "--hypothesis", "E", "--beta", "1", "--alpha", "2"],
     "hypothesis 'E': got an unexpected keyword argument 'alpha'; fields: beta, gamma, s"),
    (["rates", "--hypothesis", "P"], "hypothesis 'P': missing a required argument: 'alpha'; fields: alpha, r"),
], ids=["seed-abc", "hypothesis-X", "verify-no-suite", "rates-c", "n-x", "n-comma", "foreign-flag",
        "missing-alpha"])
def test_usage_errors_exit_2_on_one_line(capsys, argv, needle):
    # argparse's refusals and the library's take one form: exit 2, one line.
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = _assert_one_error_line(capsys)
    assert err.startswith(f"error: {needle}"), err


def test_env_var_output_dir(tmp_path, monkeypatch):
    # --out is the one source of the output directory: a run reads no kernlr
    # environment variable, and without --out it writes to the default.
    names = []
    read = type(os.environ).__getitem__
    monkeypatch.setattr(type(os.environ), "__getitem__",
                        lambda environ, name: names.append(name) or read(environ, name))
    monkeypatch.chdir(tmp_path)
    config = {"dataset": {"kind": "gaussian", "n": 20, "p": 1}, "kernels": [{"family": "rbf"}],
              "ranks": [2]}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["sweep", "--config", "cfg.json"]) == 0
    assert (tmp_path / "kernlr-results" / "sweep_rbf.csv").exists()
    assert [name for name in names if name.upper().startswith("KERNLR")] == []


def test_repeated_ranks_are_listed_once(tmp_path):
    # A repeated rank would give compare a second row from another seed stream.
    base = {"dataset": {"kind": "gaussian", "n": 20, "p": 1}, "kernels": [{"family": "rbf"}],
            "jl_trials": 3}
    for command, name in (("sweep", "sweep_rbf.csv"), ("compare", "compare_rbf.csv")):
        outputs = []
        for ranks in ([5, 5, 1], [1, 5]):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**base, "ranks": ranks}))
            out = tmp_path / command / "-".join(map(str, ranks))
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append((out / name).read_text())
        assert outputs[0] == outputs[1]
        assert [int(line.split(",")[0]) for line in outputs[0].splitlines()[1:]] == [1, 5]


def test_auto_rank_grid_includes_endpoints(tmp_path):
    config = {
        "dataset": {"kind": "gmm", "n": 40, "p": 10, "components": 10},
        "kernels": [{"family": "rbf"}],
        "ranks": "auto",
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = _read_csv(out / "sweep_rbf.csv")
    ranks = [int(r[0]) for r in rows]
    assert ranks[0] == 0 and ranks[-1] == 40
    assert ranks == sorted(ranks)


def test_default_kernel_grid_yields_four_csvs(tmp_path):
    # with no kernel list the default Matern smoothness grid plus the
    # squared-exponential limit applies: four CSVs and one combined plot
    config = {"dataset": {"kind": "gmm", "n": 30, "p": 10}, "ranks": [0, 5, 30]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["sweep.svg", "sweep_matern12.csv", "sweep_matern32.csv",
                     "sweep_matern52.csv", "sweep_rbf.csv"]
    for name in names[1:]:
        assert len((out / name).read_text().splitlines()) == 4  # header + 3 ranks


def test_bad_config_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "JSON" in capsys.readouterr().err


def _run_config(tmp_path, config, command="sweep"):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    return err


_SMALL = {"kind": "gaussian", "n": 20, "p": 1}
_CSV = {"kind": "csv", "path": "d.csv"}  # 20 rows, written by the test that reads it


@pytest.mark.parametrize("config, needle", [
    ({"jl_trail": 5}, "'jl_trail'; valid keys: dataset"),
    ({"dataset": {"kind": "sphere", "n": 20}, "kernels": [{"family": "dot_product"}]},
     "coefficients"),
    ({"dataset": "gmm"}, "dataset"),
    ({"kernels": {"family": "rbf"}}, "kernels"),
    ({"ranks": 5}, "ranks"),
    ({"dataset": {"kind": "gmm", "n": "30"}}, "gmm"),
    ({"dataset": {"kind": "gaussian", "n": 20, "sigm": 1.0}}, "sigm"),
    ({"dataset": _SMALL, "kernels": [{"family": "rbf", "nuu": 1.5}]}, "nuu"),
    ({"dataset": {**_SMALL, "seed": 3}}, "seed"),
    ({"dataset": {"kind": "csv"}}, "path"),
    ({"dataset": {"kind": "gmmm", "n": 20}}, "gmmm"),
    ({"dataset": _SMALL, "kernels": [{"family": "poly"}]}, "poly"),
    ({"dataset": _SMALL, "kernels": ["rbf"]}, "JSON object"),
    ({"dataset": _SMALL, "ranks": [1, "5"]}, "ranks"),
    ({"dataset": _SMALL, "ranks": []}, "ranks"),
    ({"dataset": _SMALL, "ranks": [0, 21]}, "[0, 20]"),
    ({"dataset": {**_CSV, "subsample": "5"}}, "subsample"),
    ({"dataset": {**_CSV, "subsample": None}},
     "dataset subsample: count must be an integer in [1, 20], got None"),
    ({"dataset": _SMALL, "jl_trials": "5"}, "jl_trials"),
    ({"dataset": _SMALL, "jl_trials": True}, "jl_trials"),
    # values the library constructors reject: the message names the entry
    ({"dataset": {"kind": "gmm", "n": 0}}, "dataset 'gmm': n must be an integer >= 1, got 0"),
    ({"dataset": {**_CSV, "subsample": 50}},
     "dataset subsample: count must be an integer in [1, 20], got 50"),
    ({"dataset": _SMALL, "kernels": [{"family": "rbf", "bandwidth": "abc"}]},
     "kernel 'rbf': bandwidth must be a real number in [1.0547686614863e-154, inf), got 'abc'"),
    ({"dataset": _SMALL, "kernels": [{"family": "matern", "nu": 0.7}]},
     "kernel 'matern': matern smoothness nu"),
    ({"dataset": _SMALL, "bandwidth": "abc"}, "config key 'bandwidth'"),
    ({"dataset": _SMALL, "ranks": [True, 3]}, 'ranks must be "auto" or a list of integers'),
    ({"dataset": _SMALL, "ranks": "1,5"},
     "ranks must be \"auto\" or a list of integers, got '1,5'"),
    # integer fields of the dataset generators: fractions and bools are refused
    ({"dataset": {"kind": "gmm", "n": 40, "components": 2.5}},
     "dataset 'gmm': components must be an integer in [1, 10], got 2.5"),
    ({"dataset": {**_CSV, "subsample": True}},
     "dataset subsample: count must be an integer in [1, 20], got True"),
    ({"dataset": {"kind": "sphere", "n": 30.5}}, "dataset 'sphere': n must be an integer >= 1"),
    # real fields: bools, strings and non-finite values are refused
    ({"dataset": _SMALL, "kernels": [{"family": "rbf", "bandwidth": True}]},
     "kernel 'rbf': bandwidth must be a real number in [1.0547686614863e-154, inf), got True"),
    ({"dataset": {"kind": "sphere", "n": 20},
      "kernels": [{"family": "dot_product", "coefficients": "12"}]},
     "kernel 'dot_product': coefficient must be a real number in [0, inf), got '1'"),
    ({"dataset": {"kind": "sphere", "n": 20},
      "kernels": [{"family": "dot_product", "coefficients": [1, True]}]},
     "kernel 'dot_product': coefficient must be a real number in [0, inf), got True"),
    ({"dataset": {"kind": "gmm", "n": 20, "mean_scale": math.inf}},
     "dataset 'gmm': mean_scale must be a real number in [0, inf), got inf"),
    ({"dataset": {**_SMALL, "sigma": math.nan}},
     "dataset 'gaussian': sigma must be a real number in [0, inf), got nan"),
])
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, monkeypatch, config, needle):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("".join(f"{i},{i % 3}\n" for i in range(20)))
    assert _run_config(tmp_path, config) == 2
    assert needle in _assert_one_error_line(capsys)


@pytest.mark.parametrize("command, config, flags, needle", [
    pytest.param(command, config, flags, needle, id=f"{case}-{command}")
    for case, config, flags, needle in (
        ("seed-flag", None, ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
        ("jl_trials-key", {"jl_trials": 0}, [], "jl_trials must be an integer >= 1, got 0"))
    for command in ("sweep", "compare", "verify")
    if command != "verify" or config is None])  # verify takes no config file
def test_top_level_integers_are_checked_by_key(tmp_path, capsys, command, config, flags, needle):
    argv = [command]
    if command == "verify":
        argv.append("identity")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": _SMALL, **(config or {})}))
        argv += ["--config", str(cfg)]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out), *flags]) == 2
    assert _assert_one_error_line(capsys) == f"error: {needle}\n"
    assert not out.exists()


def test_verify_refuses_a_config_file(tmp_path, capsys):
    # verify runs fixed experiments; a config it would not read is refused,
    # not passed over, even one whose dataset and kernels sweep rejects.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"kind": "gmmm"}, "kernels": []}))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        main(["verify", "identity", "--config", str(cfg), "--out", str(out)])
    assert info.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


def test_compare_without_a_positive_rank_exits_2(tmp_path, capsys):
    assert _run_config(tmp_path, {"dataset": _SMALL, "ranks": [0]}, "compare") == 2
    assert "rank >= 1" in _assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("config, flags, needle", [
    ({"seed": 3}, [], "error: unknown config key 'seed'; valid keys: dataset, standardize, "
                      "kernels, ranks, jl_trials"),
    ({"out": "elsewhere"}, [], "error: unknown config key 'out'; "),
    ({"ranks": "1,5"}, [], "error: ranks must be \"auto\" or a list of integers, got '1,5'"),
    ({}, ["--ranks", "1,5"], "error: unrecognized arguments: --ranks 1,5"),
], ids=["seed-key", "out-key", "string-ranks", "ranks-flag"])
def test_removed_run_knobs_exit_2_with_one_line(tmp_path, capsys, monkeypatch, command,
                                                config, flags, needle):
    # The seed and the output directory come from --seed and --out alone, and
    # the rank grid from the config's "auto" or list alone.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"dataset": _SMALL, **config}))
    argv = [command, "--config", "cfg.json", "--out", "o", *flags]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse refuses an unknown flag
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and needle in err[0], err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_dataset_fields_are_library_keyword_arguments(tmp_path):
    # a sphere entry without "p" gets sphere_uniform's own default, p = 3,
    # and --seed's default, 0; the dot-product kernel needs no bandwidth
    config = {"dataset": {"kind": "sphere", "n": 25},
              "kernels": [{"family": "dot_product", "coefficients": [1.0, 0.5, 0.25]}],
              "ranks": [0, 3]}
    assert _run_config(tmp_path, config) == 0
    X = sphere_uniform(25, 3, seed=0)
    eig = eigendecompose(gram_matrix(dot_product([1.0, 0.5, 0.25]), X))
    _, rows = _read_csv(tmp_path / "o" / "sweep_dot_product.csv")
    assert float(rows[0][5]) == float(np.abs(eig.eigenvectors).max())


def test_median_bandwidth_computed_once_and_only_when_needed(tmp_path, monkeypatch):
    calls = []
    real = kernels.median_heuristic
    monkeypatch.setattr(kernels, "median_heuristic", lambda X: calls.append(1) or real(X))
    three = [{"family": "matern", "nu": 0.5}, {"family": "rbf"},
             {"family": "matern", "nu": 2.5, "bandwidth": 2.0}]
    assert _run_config(tmp_path, {"dataset": _SMALL, "kernels": three, "ranks": [1]}) == 0
    assert len(calls) == 1
    explicit = [{"family": "rbf", "bandwidth": 2.0}]
    assert _run_config(tmp_path, {"dataset": _SMALL, "kernels": explicit, "ranks": [1]}) == 0
    assert len(calls) == 1


# What sweep wrote for _SMALL, ranks [1, 3] and the top-level "bandwidth": 0.5
# that used to fill in every matern and rbf entry.
_GLOBAL_BANDWIDTH_CSV = {
    "matern12": (
        b"rank,max_entry_error,frobenius_error,spectral_error,tail_abs_sum,sup_norm_tail\n"
        b"1,0.99824029571019091,5.025135562368316,3.6632336923229878,13.038667665119549,0.9778467807014406\n"
        b"3,0.98955937720754172,2.5957684200990965,1.6947575707990152,7.1182913887260142,0.9778467807014406\n"),
    "rbf": (
        b"rank,max_entry_error,frobenius_error,spectral_error,tail_abs_sum,sup_norm_tail\n"
        b"1,0.99991157098823436,5.8499581517865851,4.805183233737722,10.858227625838737,0.97161410447988328\n"
        b"3,0.99539835439818358,1.9180265797547675,1.5225808312847242,3.3229530919400787,0.97161410447988328\n"),
}


def test_per_kernel_bandwidths_give_the_old_global_bandwidths_bytes(tmp_path, capsys):
    kernels = [{"family": "matern", "nu": 0.5}, {"family": "rbf"}]
    config = {"dataset": _SMALL, "kernels": kernels, "ranks": [1, 3], "bandwidth": 0.5}
    assert _run_config(tmp_path, config) == 2
    assert _assert_one_error_line(capsys).startswith("error: unknown config key 'bandwidth'; ")
    assert not (tmp_path / "o").exists()
    del config["bandwidth"]
    for entry in kernels:
        entry["bandwidth"] = 0.5
    assert _run_config(tmp_path, config) == 0
    for label, text in _GLOBAL_BANDWIDTH_CSV.items():
        assert (tmp_path / "o" / f"sweep_{label}.csv").read_bytes() == text


@pytest.mark.parametrize("argv, needle", [
    (["--upsilon", "-1"], "error: upsilon must be a real number in [1e-323, inf), got -1.0"),
    (["--upsilon", "0"], "error: upsilon must be a real number in [1e-323, inf), got 0.0"),
    # the smallest subnormal: sigma = sqrt(upsilon / 2) would round to 0
    (["--upsilon", "5e-324"], "error: upsilon must be a real number in [1e-323, inf), got 5e-324"),
    (["--upsilon", "2", "--count", "0"], "error: --count must be an integer >= 1, got 0"),
    (["--upsilon", "2", "--count", "-3"], "error: --count must be an integer >= 1, got -3"),
])
def test_spectrum_bad_input_exits_2(capsys, argv, needle):
    assert main(["spectrum"] + argv) == 2
    assert needle in _assert_one_error_line(capsys)
    assert capsys.readouterr().out == ""


def test_eigensolver_failure_exits_1_and_names_stage(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    config = {"dataset": _SMALL, "kernels": [{"family": "rbf"}], "ranks": [1]}
    assert _run_config(tmp_path, config) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: kernel rbf: symmetric eigensolver did not converge: "
                   "Eigenvalues did not converge"]


@pytest.mark.parametrize("suite, solver", [("eigdev", "qr"), ("subspace", "solve")])
def test_linalg_failure_outside_eigendecompose_exits_1(tmp_path, capsys, monkeypatch,
                                                       suite, solver):
    # LinAlgError is a ValueError; it must not be reported as a usage error.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    assert main(["verify", suite, "--quick", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure")


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_eigensolver_failure_on_the_second_kernel_names_it(tmp_path, capsys, monkeypatch, command):
    eigh, calls = np.linalg.eigh, []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", fail_second)
    config = {"dataset": _SMALL, "kernels": [{"family": "matern", "nu": 0.5}, {"family": "rbf"}],
              "ranks": [1], "jl_trials": 2}
    assert _run_config(tmp_path, config, command) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: kernel rbf: symmetric eigensolver"), err
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [f"{command}_matern12.csv"]


def test_floating_point_fault_is_a_numerical_failure(tmp_path, capsys):
    # Squared distances of data at 1e200 overflow, here first in the median
    # bandwidth, which no one kernel owns; the run stops on one line and writes
    # no output file.
    config = {"dataset": {"kind": "gaussian", "n": 5, "sigma": 1e200},
              "kernels": [{"family": "rbf"}], "ranks": [1]}
    assert _run_config(tmp_path, config) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ") and "encountered" in err[0], err
    config["kernels"] = [{"family": "rbf", "bandwidth": 1.0}]  # now the Gram build overflows
    assert _run_config(tmp_path, config) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: kernel rbf: overflow encountered in square"], err
    assert not list(tmp_path.glob("o/*"))


def test_tiny_bandwidths_run_or_are_refused(tmp_path, capsys):
    # A Matern bandwidth of 1e-308 gives the identity Gram matrix on distinct
    # points; an rbf bandwidth whose 2 w^2 is subnormal is refused.
    matern = {"family": "matern", "nu": 0.5, "bandwidth": 1.1125369292536007e-308}
    assert _run_config(tmp_path, {"dataset": {"kind": "gmm", "n": 2}, "kernels": [matern],
                                  "ranks": [1]}) == 0
    _, rows = _read_csv(tmp_path / "o" / "sweep_matern12.csv")
    assert [float(v) for v in rows[0][1:3]] == [1.0, 1.0]  # K - K_1 = diag(0, 1)
    rbf = {"family": "rbf", "bandwidth": 1e-200}
    assert _run_config(tmp_path, {"dataset": {"kind": "gmm", "n": 5}, "kernels": [rbf]}) == 2
    assert "bandwidth must be a real number in [1.0547686614863e-154, inf)" in _assert_one_error_line(capsys)


def test_verify_rejects_ranks(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["verify", "identity", "--quick", "--ranks", "banana", "--out", str(tmp_path)])
    assert info.value.code == 2


def _memory_for(monkeypatch, n):
    # Physical memory that holds the n x n working set of n points and no more.
    monkeypatch.setattr(cli, "_physical_memory", lambda: 8 * cli._SQUARE_ARRAYS * n * n)


def test_physical_memory_is_read():
    assert cli._physical_memory() > 2**20


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("dataset", [{"kind": "gaussian", "n": 11755273248},
                                     {"kind": "gmm", "n": 6.664094404587546e+16},
                                     {"kind": "sphere", "n": 31}, {"kind": "gmm"}])
def test_oversized_dataset_is_refused_before_it_is_generated(tmp_path, capsys, monkeypatch,
                                                            command, dataset):
    # 30 points fit; the generator is never called, so nothing is allocated.
    _memory_for(monkeypatch, 30)
    monkeypatch.setattr(np.random, "default_rng", None)
    config = {"dataset": dataset, "kernels": [{"family": "rbf"}], "ranks": [1]}
    assert _run_config(tmp_path, config, command) == 2
    n, arrays = int(dataset.get("n", 1000)), cli._SQUARE_ARRAYS
    assert _assert_one_error_line(capsys).rstrip() == (
        f"error: dataset n={n} needs {arrays} n x n arrays, {8 * arrays * n * n / 2**30:.3g} GiB, "
        f"against {8 * arrays * 30 * 30 / 2**30:.3g} GiB of memory; the largest n that fits is 30")


def test_dataset_that_fits_runs(tmp_path, monkeypatch):
    _memory_for(monkeypatch, 30)
    config = {"dataset": {"kind": "sphere", "n": 30}, "kernels": [{"family": "rbf"}],
              "ranks": [1], "jl_trials": 1}
    assert _run_config(tmp_path, config, "compare") == 0


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_subsampled_csv_is_judged_by_what_the_run_holds(tmp_path, monkeypatch, command):
    # A 20000-row file would need six 20000 x 20000 arrays; 30 rows drawn from
    # it fit in memory for 30 points.
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{i},{i % 7}\n" for i in range(20000)))
    _memory_for(monkeypatch, 30)
    config = {"dataset": {"kind": "csv", "path": str(path), "subsample": 30},
              "kernels": [{"family": "rbf"}], "ranks": [1, 10], "jl_trials": 1}
    assert _run_config(tmp_path, config, command) == 0


@pytest.mark.parametrize("kind", ["gmm", "gaussian", "sphere"])
def test_subsample_of_a_generated_dataset_is_refused(tmp_path, capsys, monkeypatch, kind):
    # m of n i.i.d. generated rows have the law of n = m rows, so n alone sets
    # the size; the refusal comes before anything is generated.
    monkeypatch.setattr(np.random, "default_rng", None)
    config = {"dataset": {"kind": kind, "n": 40, "subsample": 10}, "kernels": [{"family": "rbf"}]}
    assert _run_config(tmp_path, config) == 2
    assert _assert_one_error_line(capsys) == (
        f"error: dataset '{kind}' takes no 'subsample'; its 'n' sets the size\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_kernels_sharing_a_label_are_refused(tmp_path, capsys, command):
    # Output files are named by the label: a second rbf kernel would overwrite
    # the first one's sweep_rbf.csv and draw a second curve labelled rbf.
    config = {"dataset": {"kind": "gmm", "n": 200},
              "kernels": [{"family": "rbf", "bandwidth": 1.0}, {"family": "matern", "nu": 0.5},
                          {"family": "rbf", "bandwidth": 5.0}]}
    assert _run_config(tmp_path, config, command) == 2
    assert _assert_one_error_line(capsys) == "error: kernels share the label 'rbf'\n"
    assert not (tmp_path / "o").exists()  # refused before any Gram matrix is built


def test_invalid_n_keeps_its_message_under_the_preflight(tmp_path, capsys, monkeypatch):
    _memory_for(monkeypatch, 30)
    config = {"dataset": {"kind": "gmm", "n": 0}, "kernels": [{"family": "rbf"}]}
    assert _run_config(tmp_path, config) == 2
    assert "n must be an integer >= 1, got 0" in _assert_one_error_line(capsys)


def test_csv_dataset_is_refused_after_loading_and_subsampling(tmp_path, capsys, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{i},{i % 7}\n" for i in range(40)))
    _memory_for(monkeypatch, 30)
    config = {"dataset": {"kind": "csv", "path": str(path)}, "kernels": [{"family": "rbf"}],
              "ranks": [1]}
    assert _run_config(tmp_path, config) == 2
    assert "n=40" in _assert_one_error_line(capsys)
    config["dataset"]["subsample"] = 30
    assert _run_config(tmp_path, config) == 0


@pytest.mark.parametrize("has_header", ["false", 1])
def test_csv_has_header_must_be_a_json_bool(tmp_path, capsys, has_header):
    # Five data rows and no header: a string or number must not drop the first row.
    path = tmp_path / "d.csv"
    path.write_text("".join(f"{i},{i % 3}\n" for i in range(5)))
    config = {"dataset": {"kind": "csv", "path": str(path), "has_header": has_header},
              "kernels": [{"family": "rbf"}], "ranks": [1, 5]}  # rank 5 needs all 5 rows
    assert _run_config(tmp_path, config) == 2
    assert "dataset 'csv': has_header must be true or false" in _assert_one_error_line(capsys)
    config["dataset"]["has_header"] = False
    assert _run_config(tmp_path, config) == 0
    _, rows = _read_csv(tmp_path / "o" / "sweep_rbf.csv")
    assert [row[0] for row in rows] == ["1", "5"]


@pytest.mark.parametrize("path", [0, True])
def test_csv_path_must_be_a_file_path(tmp_path, path):
    # open() takes an int as a file descriptor: path 0 would read the CSV on
    # stdin and close it, path true would hit fd 1. A child runs with a CSV
    # file as its stdin, so this process's own descriptors stay out of it.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"kind": "csv", "path": path},
                               "kernels": [{"family": "rbf"}]}))
    stdin = tmp_path / "stdin.csv"
    stdin.write_text("1,2\n3,4\n5,7\n")
    env = {**os.environ, "PYTHONPATH": str(Path(kernlr.__file__).parents[1])}
    with open(stdin) as handle:
        run = subprocess.run([sys.executable, "-m", "kernlr.cli", "sweep", "--config", str(cfg),
                              "--out", str(tmp_path / "o")], stdin=handle, env=env,
                             capture_output=True, text=True)
        assert os.lseek(handle.fileno(), 0, os.SEEK_CUR) == 0  # stdin was not read
    assert run.returncode == 2
    assert run.stderr == (f"error: dataset 'csv': path must be a str, bytes or os.PathLike "
                          f"file path, got {path!r}\n")
    assert not (tmp_path / "o").exists()


def test_unallocatable_dataset_exits_2(tmp_path, capsys):
    # n fits; p makes the n x p data too large for numpy to even try to allocate.
    config = {"dataset": {"kind": "gaussian", "n": 2, "p": 6.6e16}, "kernels": [{"family": "rbf"}]}
    assert _run_config(tmp_path, config) == 2
    assert "allocate" in _assert_one_error_line(capsys)


# Peak RSS is read in a child process, because numpy's copy of the input and
# eigh's LAPACK workspace are malloc'd where tracemalloc cannot see them. The
# child reads VmHWM, the peak of its own address space: its ru_maxrss would
# also hold this process's peak, which Linux carries across exec. The peak is
# fitted from n = 1000 to 2000, so the interpreter, the imports and BLAS's
# buffers cancel, and reported in n x n float64 arrays.
_PEAK_KIB = "int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"


def _peak_rss_slope(tmp_path, code, args_for):
    # The child's last output token is a peak in KiB.
    env = {**os.environ, "PYTHONPATH": str(Path(kernlr.__file__).parents[1])}
    peaks = []
    for n in (1000, 2000):
        out = subprocess.run([sys.executable, "-c", code, *args_for(n)], cwd=tmp_path, env=env,
                             capture_output=True, text=True, check=True)
        peaks.append(1024 * int(out.stdout.split()[-1]))
    return (peaks[1] - peaks[0]) / (8 * (2000**2 - 1000**2))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_run_peak_rss_fits_the_preflight_count(tmp_path, command):
    # 5.2 arrays for both commands, inside eigh; 6.1 for sweep if one kernel's
    # eigenvectors outlive it into the next kernel's eigh.
    def args_for(n):
        cfg = tmp_path / f"cfg{n}.json"
        cfg.write_text(json.dumps({"dataset": {**DEFAULT_CONFIG["dataset"], "n": n},
                                   "kernels": [{"family": "matern", "nu": 0.5}, {"family": "rbf"}],
                                   "ranks": [0, 1, 10], "jl_trials": 1}))
        return [command, "--config", str(cfg), "--out", str(tmp_path / "o")]

    code = f"import sys; from kernlr.cli import main; rc = main(sys.argv[1:]); print({_PEAK_KIB}); sys.exit(rc)"
    assert _peak_rss_slope(tmp_path, code, args_for) <= cli._SQUARE_ARRAYS


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_eigendecompose_peak_rss_is_four_matrices_above_its_input(tmp_path):
    # numpy's copy of the input, the eigenvectors and syevd's 2 n^2 workspace:
    # the rise measured 4.03 arrays.
    code = ("import sys; from kernlr import eigendecompose, gaussian_synthetic, gram_matrix, rbf; "
            "K = gram_matrix(rbf(1.0), gaussian_synthetic(int(sys.argv[1]), 3)); "
            f"before = {_PEAK_KIB}; eig = eigendecompose(K); print({_PEAK_KIB} - before)")
    assert _peak_rss_slope(tmp_path, code, lambda n: [str(n)]) <= 4.3


# Fuzzing the 0/1/2 exit contract: a config that is valid but for at most one
# field, drawn from the valid keys plus misspellings. Every dataset has 40
# points or fewer.
_INTS = st.integers(-3, 40)
_ANY = st.recursive(
    _INTS | st.floats() | st.booleans() | st.none() | st.text(max_size=4)
    | st.sampled_from(["gmm", "sphere", "csv", "rbf", "auto", "median", "1,2", "0.5"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text("xyz", max_size=2), inner, max_size=2)),
    max_leaves=6)
_N = st.integers(2, 40)
_DATASET = st.one_of(
    st.fixed_dictionaries({"kind": st.just("gmm"), "n": _N},
                          optional={"components": st.integers(1, 10)}),
    st.fixed_dictionaries({"kind": st.just("gaussian"), "n": _N},
                          optional={"p": st.integers(1, 3), "sigma": st.floats(0.1, 3.0),
                                    "subsample": st.integers(2, 10)}),
    st.fixed_dictionaries({"kind": st.just("sphere"), "n": _N},
                          optional={"p": st.integers(2, 4)}))
_KERNEL = st.sampled_from([{"family": "matern", "nu": 0.5}, {"family": "matern", "nu": 2.5},
                           {"family": "rbf"}, {"family": "rbf", "bandwidth": 0.7},
                           {"family": "dot_product", "coefficients": [1.0, 0.5]}]).map(dict)
_CONFIG = st.fixed_dictionaries(
    {"dataset": _DATASET, "kernels": st.lists(_KERNEL, min_size=1, max_size=3)},
    optional={"standardize": st.booleans(),
              "ranks": st.just("auto") | st.lists(st.integers(0, 40), max_size=4),
              "jl_trials": st.integers(1, 5)})
_EDIT = st.one_of(
    st.tuples(st.just(()), st.sampled_from(
        sorted(DEFAULT_CONFIG) + ["jl_trail", "sed", "bandwidth", "seed", "out"]), _ANY),
    st.tuples(st.just(("dataset",)), st.sampled_from(
        ["kind", "n", "p", "components", "mean_scale", "sigma", "subsample", "seed",
         "path", "sigm"]), _ANY),
    st.tuples(st.just(("kernels", 0)), st.sampled_from(
        ["family", "nu", "bandwidth", "coefficients", "nuu"]), _ANY))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_CONFIG, edit=st.none() | _EDIT, command=st.sampled_from(["sweep", "compare"]))
def test_fuzzed_configs_keep_exit_contract(tmp_path, capsys, monkeypatch, config, edit,
                                           command):
    if edit is not None:
        path, key, value = edit
        target = config
        for step in path:
            target = target[step]
        target[key] = value
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    rc = _run_config(tmp_path, config, command)
    assert rc in (0, 1, 2)
    if rc == 2:
        _assert_one_error_line(capsys)


def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy.special alone takes ~0.3 s to import; the CLI must not pay for it.
    probe = ("import sys, kernlr, kernlr.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(kernlr.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_runs_load_neither_numpy_ma_nor_scipy(tmp_path):
    # np.median's nan check imports numpy.ma (9-15 ms, about 1 MB of peak RSS);
    # the median heuristic, compare's trial medians and eigdev's seed medians
    # go through spectral._median, so no run pays for it.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"kind": "gaussian", "n": 30, "p": 2},
                               "kernels": [{"family": "rbf"}], "ranks": [1, 5], "jl_trials": 3}))
    probe = ("import sys, kernlr.cli; "
             f"runs = [['sweep', '--config', {str(cfg)!r}], ['compare', '--config', {str(cfg)!r}], "
             "['verify', 'eigdev', '--quick']]; "
             "codes = [kernlr.cli.main(argv + ['--out', 'o']) for argv in runs]; "
             "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
             "or m == 'numpy.ma' or m.startswith('numpy.ma.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(kernlr.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # Each run starts in a fresh interpreter; beside cli and spectral
    # (which argument parsing and config loading use), a command imports only
    # the library modules it calls.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": {"kind": "gaussian", "n": 30, "p": 2},
                               "kernels": [{"family": "rbf"}], "ranks": [1, 5], "jl_trials": 3}))
    base = {"cli", "spectral"}
    runs = {
        "sweep": (["sweep", "--config", str(cfg), "--out", "o"], {"datasets", "kernels", "svgplot"}),
        "compare": (["compare", "--config", str(cfg), "--out", "o"],
                    {"datasets", "kernels", "random_projection"}),
        "verify": (["verify", "eigdev", "--quick", "--out", "o"],
                   {"analytic", "datasets", "kernels", "verification"}),
        "rates": (["rates", "--hypothesis", "E", "--beta", "1"], {"analytic"}),
    }
    env = {**os.environ, "PYTHONPATH": str(Path(kernlr.__file__).parents[1])}
    for command, (argv, extra) in runs.items():
        probe = ("import sys, kernlr.cli; rc = kernlr.cli.main(sys.argv[1:]); "
                 "print(rc, sorted(m[7:] for m in sys.modules if m.startswith('kernlr.')))")
        out = subprocess.run([sys.executable, "-c", probe, *argv], cwd=tmp_path, env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == f"0 {sorted(base | extra)}", command


def test_the_package_and_cli_run_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, the
    # package, the CLI and the one special function (exp_tail_bound) work.
    probe = ("import sys; sys.modules['scipy'] = None; "
             "import kernlr, kernlr.cli; "
             "print(repr(kernlr.exp_tail_bound(5, 1.0, 0.5))); "
             "sys.exit(kernlr.cli.main(['rates', '--hypothesis', 'E', '--beta', '1']))")
    env = {**os.environ, "PYTHONPATH": str(Path(kernlr.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.splitlines()[0]) == pytest.approx(kernlr.exp_tail_bound(5, 1.0, 0.5), rel=0)
    assert "required_rank" in out.stdout
