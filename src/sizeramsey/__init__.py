"""Constructive size-Ramsey bounds: adversary colorings with exact
verification, tree embeddings, random-host trials, and a brute-force
oracle for small targets."""

from . import colorings, embed, errors, expander, geometry, graphs, oracle, verify
from .colorings import *
from .embed import *
from .errors import *
from .expander import *
from .geometry import *
from .graphs import *
from .oracle import *
from .verify import *

__all__ = [name for module in (colorings, embed, errors, expander, geometry,
                               graphs, oracle, verify)
           for name in module.__all__]

__version__ = "0.1.0"
