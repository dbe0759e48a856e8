"""Legacy setup shim: the offline environment lacks the ``wheel``
package, so editable installs go through ``setup.py develop``.

Also builds the optional ``repro._native`` extension, the C loop the
columnar issue path runs whenever it is importable.  The extension is
strictly optional: on a machine without a C compiler the build warns
and continues, and ``repro.sim.sm`` runs the pure-Python columnar
stepper with identical behaviour.  Build in place for the
PYTHONPATH=src layout:

    python setup.py build_ext --inplace
"""

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
                f"({type(exc).__name__}: {exc}); the pure-Python "
                "columnar engine will be used instead",
                RuntimeWarning,
                stacklevel=2,
            )

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            warnings.warn(
                f"building {ext.name} failed "
                f"({type(exc).__name__}: {exc}); the pure-Python "
                "columnar engine will be used instead",
                RuntimeWarning,
                stacklevel=2,
            )


setup(
    ext_modules=[
        Extension(
            "repro._native",
            sources=["src/repro/sim/csrc/nativemodule.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
