"""Legacy setup shim: the offline environment lacks the ``wheel``
package, so editable installs go through ``setup.py develop``.

Also the one build recipe of the optional ``repro._native`` extension,
the C loop the columnar issue engine runs.  Nobody has to run it by hand:
in a checkout, the first columnar SM of a process runs

    python setup.py build_ext --inplace --force

in a child process when the binary is missing or was built from another
``nativemodule.c`` (``repro.sim.native``).  The source's SHA-256 is
compiled in as ``SOURCE_DIGEST``, so any build made here, whatever
CFLAGS it used, is accepted as it is.  The extension stays optional: on
a machine without a C compiler the build warns and continues, and
``repro.sim.sm`` builds columnar configs on the scan stepper, with
identical results.
"""

import hashlib
import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the native extension if we can; warn and continue if not.

    Any toolchain failure (no compiler, CC=/bin/false, broken headers)
    downgrades to a warning so `pip install -e .` / `setup.py` never
    hard-fails on the optional speedup.
    """

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            warnings.warn(
                "repro._native extension build failed "
                f"({type(exc).__name__}: {exc}); columnar configs "
                "will run the scan stepper instead",
                RuntimeWarning,
                stacklevel=2,
            )

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            warnings.warn(
                f"building {ext.name} failed "
                f"({type(exc).__name__}: {exc}); columnar configs "
                "will run the scan stepper instead",
                RuntimeWarning,
                stacklevel=2,
            )


NATIVE_SOURCE = "src/repro/sim/csrc/nativemodule.c"
with open(NATIVE_SOURCE, "rb") as fh:
    NATIVE_DIGEST = hashlib.sha256(fh.read()).hexdigest()

setup(
    ext_modules=[
        Extension(
            "repro._native",
            sources=[NATIVE_SOURCE],
            define_macros=[
                ("REPRO_NATIVE_SOURCE_DIGEST", f'"{NATIVE_DIGEST}"'),
            ],
            optional=True,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
