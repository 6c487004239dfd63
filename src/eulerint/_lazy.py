"""numpy, imported on first use.

`vol`, `gkz` and the parsing that refuses a malformed problem run in
pure-Python integer arithmetic and never call numpy, yet importing numpy
takes longer than the rest of such a CLI call.  The modules that do call it
(`laurent`, `critical`, `twisted`, `relations`) take `np` from here.  When
numpy is not loaded yet, `np` is a module whose `__init__` runs at the first
attribute access, which is the first numpy call of a command (the
`importlib.util.LazyLoader` recipe of the standard library).  When a caller
loaded numpy first, `np` is that module.

eulerint's own modules do not load through here: the package and `cli`
import them with plain imports where they are first needed, which take the
import lock.  Only numpy's first access does not: on Python 3.10 and 3.11,
if two threads make it at once, both run numpy's `__init__` and numpy
refuses the second with an ImportError.  A threaded program should import
numpy before its threads use eulerint.
"""

import importlib.util
import sys

_spec = None if "numpy" in sys.modules else importlib.util.find_spec("numpy")
if _spec is None:
    # imported already, or not installed: a plain import returns the module
    # or raises ModuleNotFoundError
    import numpy as np
else:
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
