"""PCC hashing codec."""

import pytest

from repro.ccencoding.base import MASK64, splitmix64
from repro.ccencoding.instrumentation import InstrumentationPlan
from repro.ccencoding.pcc import PCCScheme
from repro.ccencoding.targeting import Strategy
from repro.program.callgraph import CallGraph


@pytest.fixture
def graph():
    graph = CallGraph()
    graph.add_call_site("main", "a")
    graph.add_call_site("main", "b")
    graph.add_call_site("a", "malloc")
    graph.add_call_site("b", "malloc")
    return graph


@pytest.fixture
def codec(graph):
    plan = InstrumentationPlan.build(graph, ["malloc"], Strategy.FCS)
    return PCCScheme().build(plan)


def test_mix_is_3v_plus_c(codec, graph):
    site = graph.site("a", "malloc")
    t = 12345
    expected = (3 * t + codec.site_constant(site)) & MASK64
    assert codec.mix(t, site) == expected


def test_site_constants_dispersed(codec, graph):
    constants = [codec.site_constant(site) for site in graph.sites]
    assert len(set(constants)) == len(constants)
    # SplitMix64 output should not be tiny sequential values.
    assert all(constant > 1 << 32 for constant in constants)


def test_distinct_contexts_distinct_ids(codec, graph):
    table = codec.context_table("malloc")
    assert len(table) == 2
    assert codec.is_injective_for("malloc")
    assert codec.collisions("malloc") == []


def test_encode_path_folds_in_order(codec, graph):
    context = graph.enumerate_contexts("malloc")[0]
    value = codec.seed()
    for site in context:
        value = codec.mix(value, site)
    assert codec.encode_path(context) == value


def test_encode_skips_uninstrumented_sites(graph):
    plan = InstrumentationPlan.build(graph, ["malloc"], Strategy.SLIM)
    codec = PCCScheme().build(plan)
    # Slim prunes a->malloc and b->malloc (non-branching nodes); only
    # main's two sites encode.
    context = graph.enumerate_contexts("malloc")[0]
    encoded = codec.encode_path(context)
    main_site = context[0]
    assert encoded == codec.mix(codec.seed(), main_site)


def test_no_decoding(codec):
    assert not codec.supports_decoding
    from repro.ccencoding.base import EncodingError
    with pytest.raises(EncodingError):
        codec.decode("malloc", 123)


def test_collision_is_tolerated_not_fatal():
    """A hash collision may only cause spurious enhancement (paper §IV).

    Encoding two contexts to one id is representable: context_table just
    groups them.  This test pins the API contract the defense relies on —
    collisions() reports rather than raises.
    """
    graph = CallGraph()
    graph.add_call_site("main", "malloc", "only")
    plan = InstrumentationPlan.build(graph, ["malloc"], Strategy.FCS)
    codec = PCCScheme().build(plan)
    assert codec.collisions("malloc") == []


def test_splitmix64_known_vector():
    # SplitMix64 with seed 0 produces this well-known first output.
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_seed_is_zero(codec):
    assert codec.seed() == 0


def test_recursion_supported():
    graph = CallGraph()
    graph.add_call_site("main", "rec")
    graph.add_call_site("rec", "rec", "self")
    graph.add_call_site("rec", "malloc")
    plan = InstrumentationPlan.build(graph, ["malloc"], Strategy.TCS)
    codec = PCCScheme().build(plan)
    # Depth-1 and depth-2 recursive contexts hash differently.
    main_rec = graph.site("main", "rec")
    self_rec = graph.site("rec", "rec", "self")
    leaf = graph.site("rec", "malloc")
    shallow = codec.encode_path([main_rec, leaf])
    deep = codec.encode_path([main_rec, self_rec, leaf])
    assert shallow != deep
