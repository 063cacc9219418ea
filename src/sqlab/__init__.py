"""sqlab: squares of long cycles in dense subgraphs of random graphs.

Library layers:

* :mod:`sqlab.graph` -- immutable bitset graphs, seeded G(n, p), dense matrices
* :mod:`sqlab.adversary` -- budgeted deletion and lower-bound constructions
* :mod:`sqlab.squarewalk` -- square paths/cycles, exact and greedy search
* :mod:`sqlab.regularity` -- density and sampled regularity testing
* :mod:`sqlab.blowup` -- chain partitions, pruning, expansion, path counts
* :mod:`sqlab.embedder` -- the window-by-window square-cycle embedder
"""

__version__ = "0.1.0"

from .graph import Graph, complete, empty, from_edges, gnp

__all__ = [
    "Graph",
    "complete",
    "empty",
    "from_edges",
    "gnp",
    "__version__",
]
