# Importing kernlr.cli first sets its OpenBLAS worker timeout before any test
# module loads numpy, so the suite's BLAS calls run as CLI runs do.
import kernlr.cli  # noqa: F401
