"""splitfinder: a desk-scale laboratory for greedy binary hypothesis search.

Builds finite test/hypothesis instances, runs the greedy splitting rule
(one numpy step, `engine.best_split_test`) against one oracle or, as a
decision tree, against every possible oracle, computes the structural
constants that govern its query cost (neighborliness, coherence, edge split
certificates), and verifies the derived worst/average-case bounds
exhaustively.

The package exports nothing but ``__version__``.  Its interface is the
``splitfinder`` command; Python callers import the submodules
(``splitfinder.analysis``, ``.engine``, ``.persistence``, ...) directly.
"""

__version__ = "0.1.0"
