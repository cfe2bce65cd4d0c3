"""Census of orthogonal-flag symmetry classes.

Exact combinatorics (partition counts, flag equivalence, Weyl groups, the
mod-4 double-partition families, generated-group structure) paired with
numerical verification (Lie-bracket closure and tangent ranks, polynomial
fixed-space intersections).

The package root re-exports every library module's ``__all__``; each public
name is listed once, in its own module.
"""

from . import errors, partitions, flags, special, pairs, lieverify, invverify, published
from .errors import *
from .partitions import *
from .flags import *
from .special import *
from .pairs import *
from .lieverify import *
from .invverify import *
from .published import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(
        name
        for module in (errors, partitions, flags, special, pairs, lieverify, invverify, published)
        for name in module.__all__
    ),
]
