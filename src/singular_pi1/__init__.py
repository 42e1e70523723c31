"""Fundamental groups of singular schemes from dual-graph gluing data.

The package computes a finite presentation of the fundamental group of
a scheme described combinatorially (components of the normalisation,
connected pieces of the singular locus, branches with their attaching
maps) and certifies every presentation against an independent oracle
that enumerates finite covers as descent data.
"""

from .errors import Error, InputError, ResourceError, SchemaError
from .expression import (Atom, CoproductNode, FiberedCoproductNode,
                         FreeGroupNode, QuotientNode, VKLegRef, VKNode,
                         closure_witness)
from .groups import GroupSpec
from .homcount import (count_homs, evaluate_word, iter_homs,
                       transitive_counts, words_all_trivial)
from .homomorphism import Homo, iter_homs_between, standard_hom
from .limits import DEFAULT_LIMITS, Limits
from .oracle import (DescentDatum, OracleReport, attach_connected, compare,
                     enumerate_descent_data, groupoid_cardinality,
                     iter_descent_data)
from .pi1 import (DerivationStep, Pi1Result, class_witness, pi1_devissage,
                  pi1_graph_of_groups)
from .presentation import (Presentation, fibered_coproduct, free_presentation,
                           free_product, quotient_by_relations, retag,
                           tietze_simplify)
from .scheme import (Branch, Component, IntersectionReport, SchemeConfig,
                     Singular, ValidationResult, build_patch,
                     build_patch_complement, build_union, check_order,
                     devissage_order, devissage_splits, ensure_valid,
                     free_rank, spanning_tree, validate)
from .schema import (parse_scheme_config, pi1_result_to_json,
                     presentation_to_json, parse_presentation,
                     scheme_config_to_json)
from .vk import (FormsReport, VKData, copy_shift, shift_free_group,
                 verify_copy_collapse, verify_vk_forms, vk_assemble, vk_build)
from .words import GeneratorSymbol, Word, sym

__version__ = "0.1.0"
