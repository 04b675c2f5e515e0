"""Prompt-conditioned neural audio codec with source-aware bitstreams.

A mixture is encoded once; lightweight prompt conditioning then splits the
shared latents into per-source token streams that one shared residual
quantizer and decoder turn back into audio.  The package also carries the
cost model used to compare this layout against conventional one-pass and
multi-branch codecs, plus fixtures, evaluation, and serialization for the
full loop.  Forward passes only; there is no training code here.

The package re-exports every name in the `__all__` of the modules in
`_REEXPORTED`, so each module's `__all__` is the one place its public API
is declared.  Nothing is imported until it is read: the first read of a
public name imports those modules in order until one lists it, and a
submodule is imported when it is read by name.  So `import sunac` followed
by `sunac.init_weights(sunac.default_config("SUNAC"), seed=0)` imports only
`errors`, `audio`, `numerics` and `codec`; `__all__`, `dir()` and
`from sunac import *` import every re-exported module.
"""

import importlib

__version__ = "0.1.0"

_REEXPORTED = ("errors", "audio", "codec", "extractor", "rvq", "assignment",
               "analysis", "fixtures", "bitstream", "pipeline")


def __getattr__(name: str):
    if name == "__all__":
        names = ["__version__"]
        for module in _REEXPORTED:
            names += importlib.import_module(f"{__name__}.{module}").__all__
        globals()["__all__"] = names
        return names
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    for module in _REEXPORTED:
        module = importlib.import_module(f"{__name__}.{module}")
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
