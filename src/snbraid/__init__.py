"""
snbraid: exact braid-group computations for deciding strong Nielsen
equivalence of periodic orbits of disc homeomorphisms relative to an
invariant point set.

The library layers are:

- `words`: braid words, free reduction, permutations, exponent sums.
- `garside`: left canonical form, word problem, conjugacy with witnesses.
- `mixed`: the block-preserving subgroup B_{n,m}, its split projection onto
  B_n, kernel membership and generators, and the semidirect-product action.
- `invariants`: cheap conjugacy invariants used as certificates.
- `decision`: the strong Nielsen equivalence procedures and class partition.
- `cli`: the `snbraid` command-line tool.
"""

from .words import (
    BraidWord,
    PermutationTable,
    StrandMismatchError,
    WordSyntaxError,
    compose,
    exponent_sum,
    free_reduce,
    invert,
    permutation,
)
from .garside import (
    CanonicalForm,
    ConjugacyResult,
    canonical_form,
    delta,
    equal,
    full_twist,
    is_conjugate,
)
from .mixed import (
    BlockViolationError,
    Decomposition,
    KernelMembershipError,
    MixedBraid,
    act,
    decompose,
    delete_strand,
    is_kernel,
    kernel_generators,
    project,
    section,
    validate,
)
from .invariants import (
    InvariantReport,
    burau_charpoly,
    cycle_type,
    linking_matrix,
)
from .decision import (
    Budget,
    Certificate,
    EQUIVALENT,
    INCONCLUSIVE,
    NOT_EQUIVALENT,
    PartitionResult,
    SNInstance,
    SNVerdict,
    braid_type_equal,
    partition_sn_classes,
    sn_equivalent_rel_A,
    sn_equivalent_twisted,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
