"""A completeness ledger: decisions on instances whose kernel witness is
known by construction, the larger-shape probe of tests/output_digest.py,
read from the digest's own pass (`larger_shape_verdicts`), so each runs
once per process. None of them may be decided NotEquivalent, and the number
left Inconclusive is pinned, so a change that decides fewer fails here; one
that decides more lowers the pin."""

import collections

import pytest

import output_digest
from snbraid import decision

O = output_digest.O

BUDGET = output_digest.LARGER_BUDGETS[0]
# Inconclusive verdicts of each formulation on the 168 instances at BUDGET,
# Budget(4, 4000): every search that does not find a witness ends at the
# length bound.
MAX_INCONCLUSIVE = 54


def verifies(inst, letters):
    """Whether the oracle finds the word a kernel element that conjugates
    beta_y to beta_x."""
    n, m = inst["n"], inst["m"]
    base, ox, oy = (O.parse(inst[key]) for key in ("beta_A", "ox", "oy"))
    return O.is_kernel(n, m, letters) and O.conjugates_to(n + m, letters, base + oy, base + ox)


@pytest.mark.filterwarnings("ignore:.*treating it as a formal instance")
def test_larger_shape_ledger():
    """Every known witness verifies; at BUDGET each formulation decides no
    instance NotEquivalent, every Equivalent witness verifies, and at most
    MAX_INCONCLUSIVE are Inconclusive."""
    instances = list(output_digest.larger_shape(5, 24))
    assert len(instances) == 168
    for inst in instances:
        assert verifies(inst, O.parse(inst["witness"])), inst
    statuses = collections.defaultdict(collections.Counter)
    for _, inst, budget, decide, verdict in output_digest.larger_shape_verdicts():
        if budget != BUDGET:
            continue
        statuses[decide.__name__][verdict.status] += 1
        if verdict.status == decision.EQUIVALENT:
            assert verifies(inst, verdict.witness.letters), (decide.__name__, inst)
    assert set(statuses) == {decide.__name__ for decide in output_digest.FORMULATIONS}
    for name, counts in statuses.items():
        assert counts[decision.NOT_EQUIVALENT] == 0, name
        assert counts[decision.INCONCLUSIVE] <= MAX_INCONCLUSIVE, (name, counts)
        assert counts[decision.EQUIVALENT] > 0, name
