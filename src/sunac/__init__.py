"""Prompt-conditioned neural audio codec with source-aware bitstreams.

A mixture is encoded once; lightweight prompt conditioning then splits the
shared latents into per-source token streams that one shared residual
quantizer and decoder turn back into audio.  The package also carries the
cost model used to compare this layout against conventional one-pass and
multi-branch codecs, plus fixtures, evaluation, and serialization for the
full loop.  Forward passes only; there is no training code here.

The package re-exports every name in the `__all__` of the modules below,
so each module's `__all__` is the one place its public API is declared.
"""

from .errors import *
from .audio import *
from .codec import *
from .extractor import *
from .rvq import *
from .assignment import *
from .analysis import *
from .fixtures import *
from .bitstream import *
from .pipeline import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += audio.__all__
__all__ += codec.__all__
__all__ += extractor.__all__
__all__ += rvq.__all__
__all__ += assignment.__all__
__all__ += analysis.__all__
__all__ += fixtures.__all__
__all__ += bitstream.__all__
__all__ += pipeline.__all__
