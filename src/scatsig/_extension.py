"""Compiled scipy modules loaded by file, without the packages that hold them.

This is the one module that names a compiled scipy module. The package
needs four of them and none of the packages around them:

- ``BLAS`` and ``LAPACK`` hold the routines that ``scipy.linalg.blas``
  and ``.lapack`` export, the very same objects. Their package is about
  half of a CLI start; only the eigensolver in ``spectra`` imports
  ``scipy.linalg`` itself.
- ``BRENT`` holds Brent's method, where the scipy.optimize package
  costs about 0.3 s.
- ``ARPACK`` holds the Lanczos iteration, where scipy.sparse loads all
  of scipy.linalg.

scipy >= 1.17 ships all four files. A missing one is an ImportError
naming it, and nothing falls back: a fallback through the package would
load the very code this loader exists to skip, and ARPACK's eigsh draws
its restart vectors unseeded, so reruns would not be byte-identical.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

BLAS = "scipy.linalg._fblas"
LAPACK = "scipy.linalg._flapack"
BRENT = "scipy.optimize._zeros"
ARPACK = "scipy.sparse.linalg._eigen.arpack._arpacklib"


def load(name):
    """The extension module of dotted name ``name``; ImportError when it has no file.

    A module already in sys.modules is reused. Otherwise the file is loaded
    under the canonical name, skipping the packages above it, and a later
    ordinary import finds the module in sys.modules and reuses it.
    """
    if name in sys.modules:
        return sys.modules[name]
    top, *packages, leaf = name.split(".")
    folder = Path(importlib.import_module(top).__file__).parent.joinpath(*packages)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"{leaf}{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return sys.modules.setdefault(name, module)
    raise ImportError(f"{name} has no extension file in {folder}; scatsig needs "
                      f"scipy >= 1.17, which ships it", name=name)
