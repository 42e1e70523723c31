"""Fundamental groups of singular schemes from dual-graph gluing data.

The package computes a finite presentation of the fundamental group of
a scheme described combinatorially (components of the normalisation,
connected pieces of the singular locus, branches with their attaching
maps) and certifies every presentation against an oracle that counts
finite covers as descent data, summed over the conjugacy classes of
the pieces' actions and contracted over the incidence graph.  The
oracle never sees the computed presentation and shares no counting code
with the hom counter behind the other side of the identity: it finds
each piece's actions on the fiber with its own search.
"""

from .errors import Error, InputError, ResourceError, SchemaError
from .groups import GroupSpec
from .homcount import count_homs, transitive_counts
from .homomorphism import Homo
from .limits import DEFAULT_LIMITS, Limits
from .oracle import (OracleReport, attach_connected, compare,
                     enumerate_descent_data, groupoid_cardinality)
from .pi1 import Pi1Result, pi1_devissage, pi1_graph_of_groups
from .presentation import (Presentation, free_presentation,
                           quotient_by_relations, tietze_simplify)
from .scheme import (Branch, Component, SchemeConfig, Singular, Split,
                     ValidationResult, devissage_order, devissage_splits,
                     free_rank, validate)
from .schema import (parse_scheme_config, pi1_result_to_json,
                     presentation_to_json, parse_presentation,
                     scheme_config_to_json)

__version__ = "0.1.0"
