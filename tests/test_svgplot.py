import hashlib

import pytest

from kernlr.svgplot import line_plot

# Each digest pins the exact bytes of one plot: a log axis, the linear fallback
# when no y is positive, and a constant y on each axis kind (the widened
# degenerate range). Re-record a digest only for an intended drawing change.
_PLOTS = {
    "log_axis": ([("a", [0, 1, 2, 3], [1.0, 0.1, 0.01, 0.0]), ("b", [0, 3], [0.5, 2e-3])],
                 "2df8b74982082b558dae403d9da12b94ac26fce67e093ccf77768e0435c4f1f6"),
    "linear_fallback": ([("a", [0, 1, 2], [0.0, -1.0, -2.5]), ("b", [1, 2], [-0.5, -0.25])],
                        "dfbad8ca90f744cd8ab5b1849b87b3e8c1cb03622824fb7079f6831f0ffacf29"),
    "constant_positive": ([("a", [0, 1, 2], [0.5, 0.5, 0.5])],
                          "ca3151432186037f3394ef19c434c7a56b7b4fe93021fef790ef0d1297423011"),
    "constant_zero": ([("a", [0, 1, 2], [0.0, 0.0, 0.0])],
                      "1fb1dd35a8a253bee5e4bd291e2664d1450a716967d527fd912952affc6e0b0c"),
}


@pytest.mark.parametrize("name", list(_PLOTS))
def test_line_plot_bytes_are_pinned(name, tmp_path):
    curves, digest = _PLOTS[name]
    path = tmp_path / f"{name}.svg"
    line_plot(path, curves, xlabel="rank", ylabel="error", title=name)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_line_plot_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        line_plot(tmp_path / "plot.svg", [("a", [], [])])
