"""Compiled scipy modules loaded by file, without the packages that hold them.

Importing scipy.optimize costs a CLI start about 0.3 s and scipy.sparse loads
all of scipy.linalg, while the package needs one compiled module of each.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path


def load(name):
    """The extension module of dotted name ``name``, or None when it has no file.

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
    return None
