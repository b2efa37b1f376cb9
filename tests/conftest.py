"""Pin the BLAS thread pools before any test module imports numpy.

``gprates.cli.main`` pins them for every command-line run; in-process tests
call the library directly, so they pin here to get the same one-thread
results as the CLI.  Importing ``gprates.cli`` does not load numpy.
"""

import gprates.cli

gprates.cli._pin_blas_threads()
