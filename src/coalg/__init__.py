"""Reachability and tree unravelling of pointed coalgebras.

The functor grammar (products, coproducts, exponents, constants, bags,
powersets, compositions) fixes the shape of successor structures; this
package computes least bounds and precise factorizations of maps into such
shapes, iterates them into reachability levels and tree unravellings, and
instantiates both for partial DFAs and rooted multigraphs.  Brute-force
oracles validate the definitional properties on tiny instances.
"""

from .automata import (DefinedInputs, PartialDFA, RootedPaths,
                       defined_inputs, dfa_functor, dfa_to_coalgebra,
                       rooted_paths)
from .base import (CoalgebraError, FiniteSet, FunctorSyntaxError,
                   NotAHomomorphism, NotIsomorphic, PowNotPrecise,
                   SearchSpaceTooLarge, ShapeError, SpecFormatError, StateId,
                   TotalMap, fresh_namer)
from .coalgebra import (Edge, HomReport, Multigraph, PointedCoalgebra,
                        canonical_graph, check_morphism, coproduct,
                        is_acyclic, multigraph_to_bag, reachable_subgraph)
from .dot import to_dot
from .factorization import (FMap, LeastBound, PreciseFactorization,
                            factorization_iso, is_precise, least_bound,
                            precise_factorize)
from .functors import (BOTTOM, Bag, BagVal, Compose, Const, ConstVal,
                       Coproduct, Exponent, FunVal, FunctorExpr, FValue,
                       IdVal, Identity, Pow, Product, SetVal, TagVal,
                       TupleVal, fmap, format_functor, parse_functor,
                       used_states, validate_value)
from .oracles import (Counterexample, HomSet, bfs_reachable, enumerate_homs,
                      is_split_epi, reachable_by_definition,
                      tree_refute_by_definition, value_preimages)
from .reachability import (LevelSequence, ReachablePart, is_reachable,
                           reach_levels, reachable_part)
from .specfile import emit_spec, format_value, parse_spec, parse_value
from .unravelling import (TreeLevels, TreeReport, UnravelResult, copy_counts,
                          is_tree, tree_check, tree_fingerprint, tree_levels,
                          tree_unravelling, unravel)

__version__ = "0.1.0"

import types as _types

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
