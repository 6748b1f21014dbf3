"""Unit tests for messages, invocation marshalling and comm objects."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.comm.endpoint import CommunicationObject, RequestTimeout
from repro.comm.invocation import (
    InvocationCodecError,
    MarshalledInvocation,
    decode_invocation,
    encode_invocation,
)
from repro.comm.message import (
    ENVELOPE_OVERHEAD,
    Message,
    envelope_cost,
    estimate_size,
)
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.kernel import Simulator


def reference_size(value):
    """``estimate_size``'s documented rule, written out as a plain walk."""
    kind = type(value)
    if value is None or kind is bool:
        return 1
    if kind is int or kind is float:
        return 8
    if kind is str:
        return len(value.encode("utf-8"))
    if kind is bytes:
        return len(value)
    if kind is dict:
        return sum(2 + reference_size(k) + reference_size(v)
                   for k, v in value.items())
    if kind is list or kind is tuple:
        return sum(2 + reference_size(item) for item in value)
    raise AssertionError(f"not plain data: {kind.__name__}")


@dataclasses.dataclass
class _Record:
    page: str = "index.html"


plain_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(), st.binary(),
)
plain_keys = st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                       st.floats(allow_nan=False), st.binary())
plain_data = st.recursive(
    plain_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(plain_keys, children, max_size=4),
    ),
    max_leaves=24,
)
non_plain_leaves = st.sampled_from(
    [Message("probe", {"a": 1}), {"a", "b"}, frozenset(), _Record(),
     object()]
)
buried_non_plain = st.recursive(
    non_plain_leaves,
    lambda children: st.one_of(
        st.tuples(st.lists(plain_data, max_size=2), children,
                  st.lists(plain_data, max_size=2))
        .map(lambda t: [*t[0], t[1], *t[2]]),
        st.tuples(children, st.lists(plain_data, max_size=2))
        .map(lambda t: (*t[1], t[0])),
        st.tuples(st.text(), children,
                  st.dictionaries(plain_keys, plain_data, max_size=2))
        .map(lambda t: {**t[2], t[0]: t[1]}),
    ),
    max_leaves=6,
)


class TestEstimateSize:
    def test_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(3) == 8
        assert estimate_size(3.5) == 8
        assert estimate_size("abcd") == 4
        assert estimate_size(b"abc") == 3

    def test_containers_sum_elements(self):
        assert estimate_size(["aa", "bb"]) == 2 + 2 + 2 + 2
        assert estimate_size({"k": "vv"}) == 1 + 2 + 2

    def test_unicode_counts_bytes(self):
        assert estimate_size("é") == 2

    @given(plain_data)
    def test_plain_data_sizes_by_the_documented_rule(self, value):
        assert estimate_size(value) == reference_size(value)

    @given(buried_non_plain)
    def test_non_plain_leaf_at_any_depth_is_a_type_error(self, value):
        with pytest.raises(TypeError, match="plain data"):
            estimate_size(value)


class TestEnvelopeCost:
    def test_payload_size_is_envelope_plus_body(self):
        # The documented identity the request-size arithmetic in
        # ``replication.client`` relies on.
        for kind, body in (
            ("read", {"invocation": {"method": "m"}, "session": {}}),
            ("write", {"record": {"wid": "w:1"}}),
            ("x", {}),
        ):
            message = Message(kind, body)
            assert message.payload_size() == \
                envelope_cost(kind) + estimate_size(body)

    def test_cached_size_survives_repeat_calls(self):
        message = Message("k", {"a": "bb"})
        first = message.payload_size()
        message.body["grown"] = "later"  # size is fixed at first call
        assert message.payload_size() == first


class TestMessage:
    def test_ids_unique(self):
        assert Message("a").msg_id != Message("a").msg_id

    def test_reply_correlates(self):
        request = Message("read", {"page": "x"})
        response = request.reply("read_reply", {"result": 1})
        assert response.reply_to == request.msg_id

    def test_payload_size_includes_envelope(self):
        message = Message("k", {"a": "bb"})
        assert message.payload_size() > ENVELOPE_OVERHEAD


invocations = st.builds(
    MarshalledInvocation,
    st.text(min_size=1, max_size=20).filter(str.strip),
    st.lists(st.one_of(st.integers(), st.text(max_size=10)),
             max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=8),
                    st.one_of(st.integers(), st.text(max_size=10)),
                    max_size=3).map(lambda kw: tuple(sorted(kw.items()))),
    st.booleans(),
)


class TestInvocationCodec:
    def test_roundtrip(self):
        invocation = MarshalledInvocation(
            "write_page", ("index", "content"),
            (("content_type", "text/html"),), read_only=False)
        encoded = encode_invocation(invocation)
        assert encoded == {"method": "write_page",
                           "args": ["index", "content"],
                           "kwargs": {"content_type": "text/html"},
                           "read_only": False}
        decoded = decode_invocation(encoded)
        assert decoded == invocation
        assert decoded.kwargs_dict() == {"content_type": "text/html"}
        assert decoded.read_only is False

    def test_is_a_tuple_value(self):
        invocation = MarshalledInvocation("read_page", ("p",))
        assert invocation == ("read_page", ("p",), (), True)
        assert hash(invocation) == hash(("read_page", ("p",), (), True))
        assert repr(invocation) == ("MarshalledInvocation(method='read_page',"
                                    " args=('p',), kwargs=(), read_only=True)")

    def test_kwargs_decode_sorted(self):
        decoded = decode_invocation(
            {"method": "m", "args": [], "kwargs": {"b": 2, "a": 1}})
        assert decoded.kwargs == (("a", 1), ("b", 2))

    def test_defaults(self):
        decoded = decode_invocation({"method": "read_page"})
        assert decoded.args == ()
        assert decoded.read_only is True

    def test_missing_method_rejected(self):
        with pytest.raises(InvocationCodecError):
            decode_invocation({"args": []})

    def test_empty_method_rejected(self):
        with pytest.raises(InvocationCodecError):
            decode_invocation({"method": ""})

    @pytest.mark.parametrize("field, value", [
        ("args", "index.html"),  # a string would split into characters
        ("args", {"a": 1}),      # a dict would decode to its keys
        ("args", None),
        ("args", 3),
        ("kwargs", [("a", 1)]),  # no encoder writes pairs
        ("kwargs", "a"),
        ("kwargs", []),
        ("kwargs", {1: "x", "a": "y"}),  # keys that cannot be sorted
    ])
    def test_malformed_arguments_rejected(self, field, value):
        encoded = {"method": "read_page", "args": ["p"], "kwargs": {}}
        encoded[field] = value
        with pytest.raises(InvocationCodecError):
            decode_invocation(encoded)

    def test_non_dict_message_rejected(self):
        with pytest.raises(InvocationCodecError):
            decode_invocation(["read_page"])

    @given(invocations)
    def test_roundtrip_property(self, invocation):
        encoded = encode_invocation(invocation)
        assert list(encoded) == ["method", "args", "kwargs", "read_only"]
        decoded = decode_invocation(encoded)
        assert type(decoded) is MarshalledInvocation
        assert decoded == invocation
        assert hash(decoded) == hash(invocation)


class TestCommunicationObject:
    def build(self, reliable=True, loss_rate=0.0, seed=1):
        sim = Simulator(seed=seed)
        net = Network(sim, latency=ConstantLatency(0.01), loss_rate=loss_rate)
        a = CommunicationObject(sim, net, "a", reliable=reliable)
        b = CommunicationObject(sim, net, "b", reliable=reliable)
        return sim, net, a, b

    def test_send_reaches_handler(self):
        sim, _, a, b = self.build()
        received = []
        b.set_handler(lambda src, msg: received.append((src, msg.kind)))
        a.send("b", Message("ping"))
        sim.run_until_idle()
        assert received == [("a", "ping")]

    def test_request_reply_roundtrip(self):
        sim, _, a, b = self.build()

        def answer(src, msg):
            b.reply(src, msg.reply("pong", {"n": msg.body["n"] + 1}))

        b.set_handler(answer)
        future = a.request("b", Message("ping", {"n": 1}))
        sim.run_until_idle()
        assert future.result().body["n"] == 2

    def test_request_timeout_without_reply(self):
        sim, _, a, b = self.build()
        b.set_handler(lambda src, msg: None)  # never replies
        future = a.request("b", Message("ping"), timeout=0.5)
        sim.run_until_idle()
        with pytest.raises(RequestTimeout):
            future.result()

    def test_request_retries_over_lossy_link(self):
        sim, _, a, b = self.build(reliable=False, loss_rate=0.4, seed=7)

        def answer(src, msg):
            b.reply(src, msg.reply("pong"))

        b.set_handler(answer)
        future = a.request("b", Message("ping"), timeout=0.3, retries=30)
        sim.run_until_idle()
        assert future.result().kind == "pong"

    def test_close_fails_pending_requests(self):
        sim, _, a, b = self.build()
        b.set_handler(lambda src, msg: None)
        future = a.request("b", Message("ping"), timeout=10.0)
        a.close()
        with pytest.raises(RequestTimeout):
            future.result()

    def test_traffic_counters(self):
        sim, _, a, b = self.build()
        b.set_handler(lambda src, msg: None)
        a.send("b", Message("one"))
        a.send("b", Message("two"))
        sim.run_until_idle()
        assert a.messages_sent == 2
        assert a.bytes_sent > 2 * ENVELOPE_OVERHEAD

    def test_multicast_excludes_self(self):
        sim, net, a, b = self.build()
        received = []
        b.set_handler(lambda src, msg: received.append(msg.kind))
        a.multicast(["a", "b"], Message("m"))
        sim.run_until_idle()
        assert received == ["m"]
