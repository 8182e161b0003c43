"""The post-mortem gives one answer whichever float rule ``sum`` has.

The builtin ``sum`` adds floats left to right up to CPython 3.11 and with
Neumaier compensation from 3.12.  Every float total that reaches a
culprit score, a relation score or a pattern is summed in order instead,
so diagnosis, relations and patterns must be the same bytes under both
rules (``tests.oracles.sums.summing_as`` emulates either on any
interpreter).  Checked end to end on the Fig. 10 post-mortem fixture,
and on the sub-threshold group whose total once exceeded its own root
aggregate's weight under the compensated rule.
"""

from unittest import mock

import pytest

from repro.aggregation.patterns import PatternAggregator
from repro.core import MicroscopeEngine, causal_relations
from repro.core.report import CausalRelation
from repro.nfv.packet import FiveTuple
from tests.aggregation.test_autofocus_parity import postmortem_relations  # noqa: F401
from tests.oracles.patterns import OraclePatternAggregator
from tests.oracles.sums import summing_as


@pytest.fixture(scope="module")
def postmortem_inputs(request):
    """The trace and victims the ``postmortem_relations`` fixture
    diagnoses (Fig. 10 chain, 8 ms, seed 3)."""
    captured = []
    diagnose_all = MicroscopeEngine.diagnose_all

    def spy(self, victims, **kwargs):
        captured.append((self.trace, list(victims)))
        return diagnose_all(self, victims, **kwargs)

    with mock.patch.object(MicroscopeEngine, "diagnose_all", spy):
        _relations, nf_types = request.getfixturevalue("postmortem_relations")
    trace, victims = captured[0]
    return trace, victims, nf_types


def postmortem_outputs(trace, victims, nf_types):
    diagnoses = MicroscopeEngine(trace).diagnose_all(victims)
    relations = causal_relations(diagnoses, trace)
    result = PatternAggregator(nf_types).aggregate(relations)
    culprits = [[c.score.hex() for c in d.culprits] for d in diagnoses]
    patterns = [(str(p), p.score.hex()) for p in result.patterns]
    return culprits, relations.score.tobytes(), patterns, result.n_intermediate


def test_postmortem_is_the_same_under_either_rule(postmortem_inputs):
    outputs = []
    for compensated in (False, True):
        with summing_as(compensated):
            outputs.append(postmortem_outputs(*postmortem_inputs))
    plain, compensated = outputs
    assert plain[0] == compensated[0], "culprit scores"
    assert plain[1] == compensated[1], "relation scores"
    assert plain[2:] == compensated[2:], "patterns"
    assert plain[2]


def test_sub_threshold_group_keeps_its_root_aggregate():
    """Ten victims of 0.1 each behind one culprit, below 1 % of the
    total: the group runs AutoFocus at its own total, which its root
    aggregate reaches, so it reports one intermediate, not its ten
    leaves — under either rule, as the reference does."""
    culprit = FiveTuple.of("10.0.0.1", "20.0.0.1", 1_000, 80)
    relations = [
        CausalRelation(
            culprit, "fw1", FiveTuple.of(f"100.0.{i}.1", "32.0.0.1", 2_000 + i, 80),
            "vpn1", 0.1, 0, "local",
        )
        for i in range(10)
    ]
    heavy = FiveTuple.of("151.0.0.1", "20.0.0.9", 9, 9)
    relations.append(CausalRelation(heavy, "fw1", heavy, "fw1", 100.0, 0, "local"))
    nf_types = {"fw1": "firewall", "vpn1": "vpn"}
    for compensated in (False, True):
        with summing_as(compensated):
            ours = PatternAggregator(nf_types, threshold_fraction=0.01).aggregate(relations)
            theirs = OraclePatternAggregator(nf_types, threshold_fraction=0.01)
            theirs = theirs.aggregate(relations)
        assert ours.n_intermediate == theirs.n_intermediate == 2
        assert [(str(p), p.score.hex()) for p in ours.patterns] == [
            (str(p), p.score.hex()) for p in theirs.patterns
        ]
