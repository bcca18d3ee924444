"""Observation equivalence of the page-columnar origin plane.

``ShadowState`` keeps origins per page (absent / uniform ``int`` /
``array('q')``) instead of one dict entry per byte.  None of that may be
observable: against the per-byte ``dict`` reference below — the
original implementation — every read-back must agree byte for byte,
across overlapping and page-straddling fills, copies and clears.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.layout import PAGE_SIZE
from repro.shadow.bits import ShadowState


class ReferenceOrigins:
    """The original per-byte ``Dict[int, int]`` origin bookkeeping."""

    def __init__(self):
        self._origins = {}

    def set_invalid(self, address, size, origin=None):
        if origin is not None:
            for offset in range(size):
                self._origins[address + offset] = origin

    def origins(self, address, size):
        return [self._origins.get(address + i) for i in range(size)]

    def set_origins(self, address, origins):
        for offset, origin in enumerate(origins):
            if origin is None:
                self._origins.pop(address + offset, None)
            else:
                self._origins[address + offset] = origin

    def copy_shadow(self, dst, src, size):
        self.set_origins(dst, self.origins(src, size))

    def write_shadow(self, address, size, masks, origin):
        if masks is None:
            self.set_origins(address, [None] * size)
        else:
            self.set_origins(address, [origin if mask != 0xFF else None
                                       for mask in masks])

    def first_origins(self, address, size):
        out, seen = [], set()
        for offset, origin in enumerate(self.origins(address, size)):
            if origin not in seen:
                seen.add(origin)
                out.append((address + offset, origin))
        return out


#: Operations stay inside a 6-page window so ranges collide often.
WINDOW = 6 * PAGE_SIZE

address = st.integers(min_value=0, max_value=WINDOW - 1)
size = st.one_of(st.integers(min_value=1, max_value=64),
                 st.integers(min_value=1, max_value=2 * PAGE_SIZE + 50))
serial = st.integers(min_value=0, max_value=5)

op = st.one_of(
    st.tuples(st.just("invalid"), address, size,
              st.one_of(st.none(), serial)),
    st.tuples(st.just("origins"), address,
              st.lists(st.one_of(st.none(), serial), min_size=1,
                       max_size=40)),
    st.tuples(st.just("copy"), address, address, size),
    st.tuples(st.just("clear"), address, size),
    st.tuples(st.just("store"), address,
              st.lists(st.sampled_from([0x00, 0x0F, 0xFF]), min_size=1,
                       max_size=PAGE_SIZE + 20),
              st.one_of(st.none(), serial)),
)


def apply(shadow, step):
    kind = step[0]
    if kind == "invalid":
        _, at, length, origin = step
        shadow.set_invalid(at, length, origin=origin)
    elif kind == "origins":
        _, at, origins = step
        shadow.set_origins(at, origins)
    elif kind == "copy":
        _, dst, src, length = step
        shadow.copy_shadow(dst, src, length)
    elif kind == "clear":
        _, at, length = step
        shadow.write_shadow(at, length, None, None)
    else:
        _, at, masks, origin = step
        shadow.write_shadow(at, len(masks), bytes(masks), origin)


class TestOriginPlaneEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(op, min_size=1, max_size=20),
           st.lists(st.tuples(address, size), min_size=1, max_size=4))
    def test_random_operations_read_back_identically(self, ops, probes):
        fast = ShadowState()
        slow = ReferenceOrigins()
        for step in ops:
            apply(fast, step)
            apply(slow, step)
        span = WINDOW + 3 * PAGE_SIZE
        assert fast.origins(0, span) == slow.origins(0, span)
        for at, length in probes:
            assert fast.origin_of(at) == slow.origins(at, 1)[0]
            assert (fast.first_origins(at, length)
                    == slow.first_origins(at, length))

    def test_overlapping_copy_has_memmove_semantics(self):
        fast, slow = ShadowState(), ReferenceOrigins()
        for shadow in (fast, slow):
            shadow.set_invalid(100, PAGE_SIZE, origin=1)
            shadow.set_invalid(PAGE_SIZE + 100, 300, origin=2)
            shadow.copy_shadow(250, 100, PAGE_SIZE + 200)   # forwards
            shadow.copy_shadow(50, 250, PAGE_SIZE)          # backwards
        span = 3 * PAGE_SIZE
        assert fast.origins(0, span) == slow.origins(0, span)

    def test_whole_page_fill_stays_uniform(self):
        shadow = ShadowState()
        shadow.set_invalid(0, 4 * PAGE_SIZE, origin=7)
        assert shadow._origins._pages == {page: 7 for page in range(4)}
        shadow.write_shadow(0, 2 * PAGE_SIZE, None, None)
        assert shadow._origins._pages == {2: 7, 3: 7}
        assert shadow.first_origins(0, 4 * PAGE_SIZE) == [
            (0, None), (2 * PAGE_SIZE, 7)]

    def test_serial_zero_is_an_origin(self):
        shadow = ShadowState()
        shadow.set_invalid(PAGE_SIZE - 3, 6, origin=0)
        assert shadow.origins(PAGE_SIZE - 4, 8) == (
            [None] + [0] * 6 + [None])
        assert shadow.first_origins(PAGE_SIZE - 4, 8) == [
            (PAGE_SIZE - 4, None), (PAGE_SIZE - 3, 0)]
