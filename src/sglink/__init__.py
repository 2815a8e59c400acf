"""Divisor-chain linking invariants for two-component spatial-graph diagrams.

The pipeline: parse or build a diagram (``sgd``), take fundamental cycle
bases of both components (``homology``), assemble the inter-component
linking matrix (``linking``), and reduce it to its elementary divisors
(``smith``).  The resulting divisor chain is unchanged by crossing changes
within a component, clasps within a component, edge contractions, and
vertex splittings (``moves``), which is what the classifier relies on
(``classify``).
"""

from .classify import Result, Verdict, classify
from .errors import DomainError, FrozenValueError, SelfCheckError, SgdParseError, SglinkError
from .homology import Cycle, CycleBasis, cycle_basis, spanning_tree
from .linking import (
    LinkingMatrix,
    diagram_invariant,
    linking_matrix,
    linking_number,
    over_under_consistent,
)
from .moves import MoveRecord, apply_move, canonical_diagram, random_homotopy_walk
from .sgd import Diagram, Edge, Violation, parse_sgd, serialize_sgd, validate
from .smith import (
    IntMatrix,
    LkInvariant,
    SnfCertificate,
    lk_invariant,
    smith_normal_form,
    verify_certificate,
)

__version__ = "0.1.0"
