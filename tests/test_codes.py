"""Finite-field code construction tests: MDS collection, aligned repair,
rank conditions, bandwidth accounting, and the search harness."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clustercap.capacity import Variant, min_alpha, system_capacity, weight_sequence
from clustercap.codes import (
    ALL_NODES,
    INSTANCE,
    SEPARATE_NODE,
    AlignmentFailure,
    CodeInstance,
    NodeContents,
    PrimeField,
    RepairPlan,
    SearchExhausted,
    SingularSystem,
    _cluster_info,
    _interference,
    _may_align,
    _mds_ok,
    _solve_decode,
    check_rank_conditions,
    data_collect,
    encode,
    repair,
    repair_bandwidth,
    search_construction,
    verify_instance,
)
from clustercap.model import validate_config
from itertools import combinations


@pytest.fixture(scope="module")
def inst():
    return search_construction(13, seed=0)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(12)
    field = PrimeField(13)
    assert field.inv(5) * 5 % 13 == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_field_rank():
    field = PrimeField(13)
    assert field.rank([[1, 2], [2, 4]]) == 1
    assert field.rank([[1, 2], [2, 5]]) == 2
    assert field.rank([[0, 0], [0, 0]]) == 0


def test_encode_zero_message(inst):
    contents = encode([0] * 6, inst)
    assert all((c.x, c.y) == (0, 0) for c in contents)


def test_encode_unit_message_parity_columns(inst):
    contents = encode([1, 0, 0, 0, 0, 0], inst)
    assert (contents[0].x, contents[0].y) == (1, 0)
    assert contents[3] == NodeContents(node=4, x=inst.a[0][0], y=0)
    assert contents[4] == NodeContents(node=5, x=inst.a[0][1], y=0)


def test_collect_systematic_subset(inst):
    message = [3, 1, 4, 1, 5, 9]
    contents = encode(message, inst)
    assert data_collect(contents[:3], inst) == message


def test_collect_all_subsets_roundtrip(inst):
    rng = random.Random(5)
    for _ in range(100):
        message = [rng.randrange(13) for _ in range(6)]
        contents = encode(message, inst)
        for subset in combinations(range(5), 3):
            assert data_collect([contents[i] for i in subset], inst) == message


def test_collect_requires_three_distinct(inst):
    contents = encode([1, 2, 3, 4, 5, 6], inst)
    with pytest.raises(ValueError):
        data_collect(contents[:2], inst)
    with pytest.raises(ValueError):
        data_collect([contents[0], contents[0], contents[1]], inst)


def test_collect_singular_instance_detected(inst):
    # force a repeated parity column: nodes {2,4,5} cannot decode x
    degenerate = CodeInstance(
        q=13,
        a=((1, 1), (2, 2), (3, 3)),
        b=inst.b,
        plans=inst.plans,
    )
    message = [1, 2, 3, 0, 0, 0]
    contents = encode(message, degenerate)
    with pytest.raises(SingularSystem):
        data_collect([contents[1], contents[3], contents[4]], degenerate)


def test_repair_zero_message(inst):
    contents = encode([0] * 6, inst)
    for failed in ALL_NODES:
        rebuilt = repair(failed, inst, [c for c in contents if c.node != failed])
        assert rebuilt == NodeContents(node=failed, x=0, y=0)


def test_repair_exact_on_basis_and_random(inst):
    rng = random.Random(11)
    messages = [[1 if i == j else 0 for i in range(6)] for j in range(6)]
    messages += [[rng.randrange(13) for _ in range(6)] for _ in range(20)]
    for message in messages:
        contents = encode(message, inst)
        for failed in ALL_NODES:
            rebuilt = repair(failed, inst, [c for c in contents if c.node != failed])
            assert rebuilt == contents[failed - 1], (message, failed)


def test_repair_bandwidth_contract(inst):
    assert repair_bandwidth(inst, 3) == 4  # d * beta_C symbols
    for node in (1, 2, 4, 5):
        assert repair_bandwidth(inst, node) == 5  # beta_I + 3 * beta_C


def test_instance_sits_on_the_tradeoff(inst):
    """The constructed code meets the closed form: capacity 6 stores the
    6-symbol file at the least alpha, 2; at tau = 2 the capacity falls
    below 6 once beta_C drops to 9/10; and each repair reads the
    bandwidth of its helper counts."""
    nd, rp = INSTANCE.nodes, INSTANCE.repair
    assert (nd.n, nd.k, nd.L, nd.R, nd.E, rp.d_intra, rp.d_cross) == (5, 3, 2, 2, 1, 1, 3)
    assert (rp.beta_intra, rp.beta_cross, rp.alpha) == (2, 1, 2)
    assert system_capacity(INSTANCE) == 6
    assert min_alpha(weight_sequence(INSTANCE, Variant.CSN_ONE_SEPARATE), 6) == 2
    below = validate_config(
        n=5, k=3, L=2, R=2, E=1, d_cross=3,
        beta_intra=Fraction(9, 5), beta_cross=Fraction(9, 10), alpha=2,
    )
    assert system_capacity(below) == Fraction(29, 5)
    homogeneous = validate_config(
        n=5, k=3, L=2, R=2, E=1, d_cross=3, beta_intra=1, beta_cross=1, alpha=2
    )
    assert system_capacity(homogeneous) == 6
    assert repair_bandwidth(inst, SEPARATE_NODE) == (rp.d_intra + rp.d_cross) * rp.beta_cross
    for node in ALL_NODES:
        if node != SEPARATE_NODE:
            assert repair_bandwidth(inst, node) == (
                rp.d_intra * rp.beta_intra + rp.d_cross * rp.beta_cross
            )


def test_repair_detects_corrupted_decode(inst):
    plan = inst.plans[3]
    bad_decode = tuple(
        tuple((v + 1) % 13 for v in row) for row in plan.decode
    )
    corrupted = CodeInstance(
        q=13,
        a=inst.a,
        b=inst.b,
        plans={**inst.plans, 3: RepairPlan(
            failed=3, partner=None, helpers=plan.helpers,
            coefficients=plan.coefficients, decode=bad_decode,
        )},
    )
    contents = encode([1, 2, 3, 4, 5, 6], corrupted)
    with pytest.raises(AlignmentFailure):
        repair(3, corrupted, [c for c in contents if c.node != 3])


def test_rank_conditions_hold_for_searched_instance(inst):
    assert check_rank_conditions(inst)


def test_rank_conditions_trivial_aligned_case():
    # hand-built coefficients: both interference stacks are repeated rows
    # (rank 1) while the residual system is invertible (rank 2)
    plan = RepairPlan(
        failed=3,
        partner=None,
        helpers=(1, 2, 4, 5),
        coefficients={1: (1, 1), 2: (1, 1), 4: (1, 1), 5: (1, 1)},
        decode=((0, 0, 0, 0), (0, 0, 0, 0)),
    )
    aligned = CodeInstance(
        q=13,
        a=((1, 1), (1, 1), (1, 2)),
        b=((1, 1), (1, 1), (1, 3)),
        plans={3: plan},
    )
    assert check_rank_conditions(aligned)


def test_rank_conditions_reject_zero_coefficients(inst):
    plan = inst.plans[3]
    zeroed = CodeInstance(
        q=13, a=inst.a, b=inst.b,
        plans={**inst.plans, 3: RepairPlan(
            failed=3, partner=None, helpers=plan.helpers,
            coefficients={h: (0, 0) for h in plan.helpers},
            decode=plan.decode,
        )},
    )
    assert not check_rank_conditions(zeroed)


def test_rank_conditions_scale_invariant(inst):
    plan = inst.plans[3]
    for helper in plan.helpers:
        for factor in (2, 5, 12):
            scaled = {
                h: (
                    (c1 * factor % 13, c2 * factor % 13) if h == helper else (c1, c2)
                )
                for h, (c1, c2) in plan.coefficients.items()
            }
            candidate = CodeInstance(
                q=13, a=inst.a, b=inst.b,
                plans={**inst.plans, 3: RepairPlan(
                    failed=3, partner=None, helpers=plan.helpers,
                    coefficients=scaled, decode=plan.decode,
                )},
            )
            assert check_rank_conditions(candidate)


def test_search_is_deterministic():
    a = search_construction(13, seed=4)
    b = search_construction(13, seed=4)
    assert a == b
    other = search_construction(13, seed=5)
    assert other.q == 13


def test_search_small_fields_rejected():
    with pytest.raises(ValueError):
        search_construction(2, seed=0)
    with pytest.raises(ValueError):
        search_construction(9, seed=0)  # not prime


def test_search_exhaustion_reported():
    with pytest.raises(SearchExhausted) as err:
        search_construction(13, seed=0, budget=0)
    assert err.value.attempts == 0


def test_search_gf7():
    inst7 = search_construction(7, seed=0, budget=50_000)
    verify_instance(inst7)


def test_serialization_roundtrip_and_stability(inst):
    text = inst.to_text()
    assert CodeInstance.from_text(text) == inst
    assert inst.to_text() == text
    assert text.endswith("\n")
    assert text.splitlines()[0] == "q 13"


def test_verify_instance_passes(inst):
    verify_instance(inst)


def _with_plans(inst, changes):
    """`inst` with the plan of each node in `changes` replaced by its
    value, or dropped where the value is None."""
    plans = {**inst.plans, **changes}
    return CodeInstance(q=inst.q, a=inst.a, b=inst.b,
                        plans={node: p for node, p in plans.items() if p is not None})


def _reading(plan, helpers):
    """`plan` with its downloads cut to `helpers`, coefficients kept."""
    return RepairPlan(
        failed=plan.failed, partner=plan.partner, helpers=helpers,
        coefficients=plan.coefficients, decode=plan.decode,
    )


def test_verify_instance_names_each_planted_defect(inst):
    """Each acceptance step of verify_instance raises on its own defect,
    with the earlier steps passing."""
    separate = inst.plans[SEPARATE_NODE]
    zeroed = RepairPlan(
        failed=3, partner=None, helpers=separate.helpers,
        coefficients={h: (0, 0) for h in separate.helpers}, decode=separate.decode,
    )
    planted = [
        (CodeInstance(q=13, a=((1, 1), (2, 2), (3, 3)), b=inst.b, plans=inst.plans),
         SingularSystem, "a 3-subset of columns is singular"),
        (_with_plans(inst, {3: zeroed}),
         AlignmentFailure, "separate-node rank conditions violated"),
        (_with_plans(inst, {3: _reading(separate, (1, 2, 4))}),
         AlignmentFailure, "separate repair must read exactly 4 symbols"),
        (_with_plans(inst, {1: _reading(inst.plans[1], (3, 4))}),
         AlignmentFailure, "cluster repair must read exactly 5 symbols"),
    ]
    for defective, kind, message in planted:
        with pytest.raises(kind) as err:
            verify_instance(defective)
        assert type(err.value) is kind and str(err.value) == message


def test_from_text_names_the_expected_label(inst):
    text = inst.to_text()
    planted = {
        text.replace("\nA ", "\nZ ", 1):
            "expected 'A', got ['Z', '8', '1', '6', '7', '5', '5']",
        text.replace("plan 1 partner 2", "plan 1 mate 2", 1):
            "expected 'partner' in plan line, got 'mate'",
    }
    for bad, message in planted.items():
        with pytest.raises(ValueError) as err:
            CodeInstance.from_text(bad)
        assert str(err.value) == message


def test_code_functions_reject_missing_inputs(inst):
    with pytest.raises(ValueError) as err:
        encode([1, 2, 3], inst)
    assert str(err.value) == "message must have 6 symbols"
    contents = encode([1, 2, 3, 4, 5, 6], inst)
    with pytest.raises(ValueError) as err:
        repair(1, _with_plans(inst, {1: None}), contents[1:])
    assert str(err.value) == "no repair plan for node 1"
    with pytest.raises(ValueError) as err:
        check_rank_conditions(_with_plans(inst, {3: None}))
    assert str(err.value) == "instance has no separate-node repair plan"
    with pytest.raises(ValueError) as err:
        _cluster_info(SEPARATE_NODE)
    assert str(err.value) == "node 3 is not a cluster node"


# SHA-256 of to_text() per (q, seed), recorded before the alignment filter
# went in front of the decode solver: the filter must not change any
# accepted instance
CONSTRUCTION_DIGESTS = {
    (13, 0): "476ed099a09e0989daf29d84b4527fc12c43273d35f249a7ad131ffcfbdd5f21",
    (13, 1): "397b072151a8dde11890a494677499b613751d42c359cadf7f0006434a45fd18",
    (13, 2): "e74c775375e8d979c5fcb811fd713610d0a78b36e3e3fd113c5dcfd492ab3ed4",
    (13, 3): "ba906e5e168046273718538adc21065ac46f17056e7199709017de78c7b96ee7",
    (13, 4): "1616af9e8d5348c04f5446048d871ec5f39a49b6031e7e42ee13d9f28f5a6bc5",
    (13, 5): "41f260e9a6d7e4d484c9070526cefe682c6e044393ab4d628f53589fe814fa18",
    (13, 339569): "d635a15625136df0855268866fc7571f9366ed4b5dd9886982389d3cdf113cb5",
    (7, 0): "8d21847bd1c41d7cd0de80d26eddb63be40575e68c6959982f4b08b99115ec82",
}


@pytest.mark.parametrize("q, seed", sorted(CONSTRUCTION_DIGESTS))
def test_search_output_is_pinned(q, seed):
    text = search_construction(q, seed=seed).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCTION_DIGESTS[q, seed]


_NONZERO_PAIRS = st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
                          min_size=3, max_size=3)


@given(
    q=st.sampled_from((7, 11, 13, 17)),
    a=_NONZERO_PAIRS,
    b=_NONZERO_PAIRS,
    draws=st.lists(st.integers(0, 10**6), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_alignment_filter_rejects_only_undecodable_candidates(q, a, b, draws, seed):
    """Differential check of the necessary condition against the exact
    solver: whatever the filter rejects, _solve_decode cannot decode."""
    a = tuple((x % (q - 1) + 1, y % (q - 1) + 1) for x, y in a)
    b = tuple((x % (q - 1) + 1, y % (q - 1) + 1) for x, y in b)
    inst = CodeInstance(q=q, a=a, b=b, plans={})
    assume(_mds_ok(inst))
    rng = random.Random(seed)
    for failed in (1, 2, 4, 5):
        partner, helpers = _cluster_info(failed)
        interference = _interference(inst, failed, partner, helpers)
        # one candidate from the drawn values, then random ones as the
        # search draws them (an all-zero pair is bumped to (1, 0))
        candidates = [tuple((draws[2 * t] % q, draws[2 * t + 1] % q) for t in range(3))]
        candidates += [
            tuple((rng.randrange(q), rng.randrange(q)) for _ in helpers) for _ in range(20)
        ]
        for drawn in candidates:
            drawn = tuple((1, 0) if pair == (0, 0) else pair for pair in drawn)
            if _may_align(interference, drawn, q):
                continue
            coefficients = dict(zip(helpers, drawn))
            assert _solve_decode(inst, failed, partner, helpers, coefficients) is None, (
                failed, drawn,
            )


@pytest.mark.parametrize("text", ["", "\n\n", "q 13", "q 13\nA 1 2 3 4 5 6"],
                         ids=["empty", "blank", "header-only", "no-B-row"])
def test_from_text_rejects_truncated_text(text):
    with pytest.raises(ValueError):
        CodeInstance.from_text(text)


def test_from_text_rejects_truncated_plan(inst):
    lines = inst.to_text().splitlines()
    for cut in range(4, len(lines)):
        if lines[cut - 1].startswith("decode"):
            continue  # a text ending after a whole plan is a valid instance
        with pytest.raises(ValueError):
            CodeInstance.from_text("\n".join(lines[:cut]))


def test_from_text_rejects_short_matrix_rows(inst):
    lines = inst.to_text().splitlines()
    for row in (1, 2):
        bad = lines[:row] + [lines[row][0] + " 1 2"] + lines[row + 1 :]
        with pytest.raises(ValueError, match="6 entries"):
            CodeInstance.from_text("\n".join(bad))


def test_from_text_rejects_wrong_decode_width(inst):
    text = inst.to_text()
    plan = inst.plans[1]
    decode = "decode " + " ".join(str(v) for row in plan.decode for v in row)
    assert decode in text
    for bad in (decode.rsplit(" ", 1)[0], decode + " 0"):
        with pytest.raises(ValueError, match=f"{2 * plan.download_count} entries"):
            CodeInstance.from_text(text.replace(decode, bad, 1))
