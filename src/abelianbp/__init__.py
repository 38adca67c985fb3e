"""Quantum belief propagation over finite abelian groups.

Messages are character-indexed eigen lists of group-covariant pure-state
channels; local factor updates (check, equality, homomorphism,
marginalization, automorphism) keep tree message passing inside the class of
finite heralded mixtures.  A dense linear-algebra oracle certifies every rule
at small group orders, and polar/convolutional/turbo trackers plus Monte-Carlo
density evolution build on the same calculus.

Importing the package sets the BLAS and OpenMP thread variables to 1 unless
the environment sets them: the dense products here are small, so a thread
pool gains nothing and contends with other work (it acts if numpy loads later).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import NumericalError, ValidationError
from .groups import (
    GroupElement,
    GroupSpec,
    HomSpec,
    compose_homs,
    direct_product,
    group_inv,
    group_op,
    hom_eval,
    hom_image,
    hom_kernel,
    hom_validate,
    identity_hom,
    inversion_automorphism,
    invert_automorphism,
    is_automorphism,
    is_surjective,
    join_element,
    permute_coordinates,
    projection_hom,
    split_element,
    surjection_onto_image,
)
from .characters import (
    CharIndex,
    CosetTable,
    DualSubgroup,
    char_eval,
    coset_table,
    coset_table_for_hom,
    dual_image,
    dual_inv,
    dual_map,
    dual_op,
    trivial_char,
)
from .eigenlists import (
    EigenList,
    GramRow,
    channel_fidelity,
    eigenlist_from_gram_row,
    gram_row_from_eigenlist,
    holevo_info,
    perfect_list,
    pgm_error,
    useless_list,
)
from .messages import (
    HeraldedMessage,
    avg_holevo,
    avg_pgm_error,
    merge_duplicates,
    prune,
    pure,
)
from .factors import (
    adjoin_uniform,
    apply_automorphism,
    check_combine,
    equality_combine,
    equality_fold,
    hom_push,
    hom_push_supported,
    lift_along_hom,
    marginalize_split,
)

__version__ = "0.1.0"
SCHEMA_VERSION = 1
