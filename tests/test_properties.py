"""Property-based tests (hypothesis) on core data structures and invariants."""


from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.chi import single_loss_confidence
from repro.core.validation import reorder_metric
from repro.crypto.fingerprint import fingerprint
from repro.crypto.keys import KeyInfrastructure
from repro.crypto.signatures import Signed
from repro.dist.consensus import Equivocator, Silent, SignedConsensus
from repro.dist.reconcile import (
    P,
    CharacteristicPolynomialSet,
    _to_field,
    poly_divmod,
    poly_eval,
    poly_mul,
    reconcile,
)
from repro.dist.sync import ClockModel
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, REDParams, red_drop_probability
from tests.consensus_adversaries import (
    FORGED,
    Forger,
    Replayer,
    SelectiveRelay,
    decisions,
    reference_decisions,
)


# -- set reconciliation -------------------------------------------------------

small_fp_sets = st.sets(st.integers(min_value=0, max_value=2**64 - 1),
                        max_size=30)


@settings(max_examples=40, deadline=None)
@given(common=small_fp_sets, a_only=small_fp_sets, b_only=small_fp_sets)
def test_reconciliation_roundtrip(common, a_only, b_only):
    a_only = a_only - common - b_only
    b_only = b_only - common - a_only
    assume(len(a_only) + len(b_only) <= 12)
    set_a = common | a_only
    set_b = common | b_only
    message = CharacteristicPolynomialSet.from_set(set_a, max_diff=12)
    remote_only, local_only = reconcile(set_b, message, max_diff=12)
    assert remote_only == {_to_field(x) for x in a_only}
    assert local_only == b_only


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(st.integers(min_value=0, max_value=P - 1), min_size=1,
               max_size=8),
    b=st.lists(st.integers(min_value=0, max_value=P - 1), min_size=1,
               max_size=8),
    x=st.integers(min_value=0, max_value=P - 1),
)
def test_poly_mul_is_pointwise_product(a, b, x):
    assume(any(c != 0 for c in a) and any(c != 0 for c in b))
    product = poly_mul(a, b)
    assert poly_eval(product, x) == \
        poly_eval(a, x) * poly_eval(b, x) % P


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(st.integers(min_value=0, max_value=P - 1), min_size=1,
               max_size=10),
    b=st.lists(st.integers(min_value=1, max_value=P - 1), min_size=1,
               max_size=6),
)
def test_poly_divmod_identity(a, b):
    assume(b[-1] != 0)
    q, r = poly_divmod(a, b)
    # a == q*b + r (as functions)
    for x in (0, 1, 12345):
        lhs = poly_eval(a, x)
        rhs = (poly_eval(q, x) * poly_eval(b, x) + poly_eval(r, x)) % P
        assert lhs == rhs
    assert len(r) <= max(len(b) - 1, 1)


# -- reorder metric -----------------------------------------------------------

@settings(max_examples=100)
@given(st.lists(st.integers(), unique=True, max_size=40))
def test_reorder_metric_zero_for_identical(seq):
    assert reorder_metric(tuple(seq), tuple(seq)) == 0


@settings(max_examples=100)
@given(st.lists(st.integers(), unique=True, max_size=30), st.randoms())
def test_reorder_metric_bounded(seq, rng):
    shuffled = list(seq)
    rng.shuffle(shuffled)
    metric = reorder_metric(tuple(seq), tuple(shuffled))
    assert 0 <= metric <= max(0, len(seq) - 1)


@settings(max_examples=50)
@given(st.lists(st.integers(), unique=True, min_size=2, max_size=20),
       st.data())
def test_reorder_metric_ignores_losses(seq, data):
    keep = data.draw(st.lists(st.booleans(), min_size=len(seq),
                              max_size=len(seq)))
    received = tuple(x for x, k in zip(seq, keep) if k)
    assert reorder_metric(tuple(seq), received) == 0


def _brute_force_reorder(sent, received):
    # longest common subsequence via DP, then |common| - |lcs|
    common = [fp for fp in received if fp in set(sent)]
    n, m = len(sent), len(common)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if sent[i - 1] == common[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return len(common) - table[n][m]


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=30), unique=True,
                max_size=12),
       st.randoms())
def test_reorder_metric_matches_lcs_bruteforce(seq, rng):
    shuffled = list(seq)
    rng.shuffle(shuffled)
    assert reorder_metric(tuple(seq), tuple(shuffled)) == \
        _brute_force_reorder(tuple(seq), tuple(shuffled))


# -- crypto -------------------------------------------------------------------

packet_strategy = st.builds(
    Packet,
    src=st.text(min_size=1, max_size=6),
    dst=st.text(min_size=1, max_size=6),
    size=st.integers(min_value=1, max_value=9000),
    flow_id=st.text(max_size=6),
    seq=st.integers(min_value=0, max_value=1 << 30),
    payload=st.binary(max_size=64),
)


@settings(max_examples=100)
@given(packet_strategy, st.integers(min_value=0, max_value=10))
def test_fingerprint_invariant_under_hops(packet, hops):
    before = fingerprint(packet)
    for i in range(hops):
        packet.hop(f"r{i}")
    assert fingerprint(packet) == before


@settings(max_examples=100)
@given(st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
              st.binary(max_size=16)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=10,
))
def test_signature_roundtrip(payload):
    keys = KeyInfrastructure()
    signed = Signed.sign(payload, "r", keys.signing_key("r"))
    assert signed.verify(keys.signing_key("r"))
    assert not signed.verify(keys.signing_key("other"))


@settings(max_examples=50)
@given(st.text(min_size=1, max_size=20),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_clock_offsets_bounded(name, epsilon):
    clock = ClockModel(epsilon=epsilon, seed=1)
    assert abs(clock.offset(name)) <= epsilon + 1e-12


# -- queues -------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=40, max_value=1500)),
                max_size=80))
def test_droptail_occupancy_invariant(operations):
    q = DropTailQueue(limit_bytes=8000)
    live = []
    for is_offer, size in operations:
        if is_offer:
            packet = Packet(src="a", dst="b", size=size)
            accepted, _, _ = q.offer(packet, 0.0)
            if accepted:
                live.append(size)
        else:
            popped = q.pop(0.0)
            if popped is not None:
                assert popped.size == live.pop(0)
        assert q.occupancy == sum(live)
        assert q.occupancy <= q.limit_bytes


@settings(max_examples=80)
@given(st.floats(min_value=0, max_value=200_000, allow_nan=False),
       st.floats(min_value=0, max_value=200_000, allow_nan=False))
def test_red_probability_monotone_in_average(avg1, avg2):
    params = REDParams(min_th=10_000, max_th=50_000, max_p=0.1)
    lo, hi = sorted((avg1, avg2))
    p_lo = red_drop_probability(lo, params)
    p_hi = red_drop_probability(hi, params)
    assert 0.0 <= p_lo <= p_hi <= 1.0


# -- chi confidence -----------------------------------------------------------

@settings(max_examples=80)
@given(st.floats(min_value=0, max_value=60_000, allow_nan=False),
       st.floats(min_value=1, max_value=5_000, allow_nan=False))
def test_single_loss_confidence_in_unit_interval(q_pred, sigma):
    c = single_loss_confidence(60_000, q_pred, 1000, 0.0, sigma)
    assert 0.0 <= c <= 1.0


# -- consensus ----------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2), st.randoms())
def test_consensus_agreement_random_faults(n_faulty, rng):
    members = ["a", "b", "c", "d", "e"]
    faulty_names = rng.sample(members, n_faulty)
    keys = KeyInfrastructure()
    faulty = {}
    for name in faulty_names:
        faulty[name] = (Silent() if rng.random() < 0.5
                        else Equivocator(rng.random(), rng.random()))
    inputs = {m: f"value-{m}" for m in members if m not in faulty}
    cons = SignedConsensus(members, keys, max_faults=max(1, n_faulty))
    results = cons.run(inputs, faulty=faulty)
    vectors = {r.agreed_vector() for r in results.values()}
    assert len(vectors) == 1  # agreement
    decided = next(iter(results.values()))
    for member in members:
        if member not in faulty:  # validity for correct members
            assert decided.values[member] == inputs[member]


@st.composite
def hostile_consensus_cases(draw):
    """(members, max_faults, inputs, faulty): 3..6 members in any order,
    f <= n - 2, at most f of them faulty, each with any behaviour."""
    n = draw(st.integers(min_value=3, max_value=6))
    members = draw(st.permutations([f"m{i}" for i in range(n)]))
    max_faults = draw(st.integers(min_value=0, max_value=n - 2))
    bad = draw(st.lists(st.sampled_from(members), unique=True,
                        max_size=max_faults))
    inputs = {m: f"value-{m}" for m in members if m not in bad}
    faulty = {}
    for name in bad:
        kind = draw(st.sampled_from(
            ["silent", "equivocator", "forger", "replayer", "selective"]))
        if kind == "silent":
            faulty[name] = Silent()
        elif kind == "equivocator":
            faulty[name] = Equivocator(f"{name}-x", f"{name}-y")
        elif kind == "forger":
            faulty[name] = Forger(dict(inputs))
        elif kind == "replayer":
            faulty[name] = Replayer(f"own-{name}")
        else:
            favoured = draw(st.sets(st.sampled_from(members)))
            faulty[name] = SelectiveRelay(f"own-{name}", favoured)
    return members, max_faults, inputs, faulty


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hostile_consensus_cases())
def test_consensus_properties_under_relaying_adversaries(case):
    members, max_faults, inputs, faulty = case
    keys = KeyInfrastructure()
    results = SignedConsensus(members, keys, max_faults).run(
        inputs, faulty=faulty)
    assert set(results) == set(inputs)
    assert len({r.agreed_vector() for r in results.values()}) == 1  # agreement
    for r in results.values():
        for member, value in inputs.items():  # validity
            assert r.values[member] == value
        assert r.equivocators <= set(faulty)
        assert r.silent <= set(faulty)
        assert FORGED not in r.values.values()
    # ...and, inbox for inbox, what validate-first would have decided.
    assert decisions(results) == reference_decisions(
        members, keys, max_faults, inputs, faulty)
