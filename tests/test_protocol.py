import itertools
import multiprocessing
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hvactrade import coordinator, protocol
from hvactrade.agent import LocalAgent
from hvactrade.coordinator import CoordinatorState, run
from hvactrade.errors import (
    DecodeError,
    HvacTradeError,
    ProtocolViolation,
    SynchronizationTimeout,
)
from hvactrade.model import Tariff, UserParams
from hvactrade.protocol import (
    MAX_FRAME,
    TAG_BROADCAST,
    TAG_PROPOSAL,
    CoordinatorBroadcast,
    InProcTransport,
    SocketTransport,
    TradeProposal,
    barrier_collect,
    decode,
    encode,
    read_frame,
    run_agent_loop,
)
from hvactrade.reports import write_report
from hvactrade.scenario import build_synth_scenario, load_scenario

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


def proposal(uid=1, iteration=1, trades=None):
    if trades is None:
        trades = {2: np.array([0.5, -0.25])}
    return TradeProposal(uid, iteration, trades)


def broadcast(iteration=1, ids=(2,), h=2, rho=1.0, done=False):
    aux = {j: np.full(h, 0.125 * j) for j in ids}
    dual = {j: np.full(h, -0.5 * j) for j in ids}
    return CoordinatorBroadcast(iteration, aux, dual, rho, done)


# --- serialization -------------------------------------------------------

def test_proposal_roundtrip_is_bit_exact():
    msg = TradeProposal(7, 3, {
        2: np.array([0.1, -2.5, 1e-9, 0.0]),
        9: np.array([1.0 / 3.0, -0.0, 7e300, 5e-324]),
    })
    back = decode(encode(msg))
    assert isinstance(back, TradeProposal)
    assert back.user_id == 7 and back.iteration == 3
    assert set(back.trades) == {2, 9}
    for j in (2, 9):
        assert back.trades[j].dtype == np.float64
        assert np.array_equal(back.trades[j], msg.trades[j])


def test_broadcast_roundtrip_is_bit_exact():
    msg = CoordinatorBroadcast(
        iteration=5,
        aux_row={1: np.array([0.25, -0.125]), 4: np.array([1e-16, 3.5])},
        dual_row={1: np.array([-1.0, 0.0]), 4: np.array([2.0, -0.3])},
        rho=1.0 / 3.0,
        done=True)
    back = decode(encode(msg))
    assert isinstance(back, CoordinatorBroadcast)
    assert back.iteration == 5 and back.done is True
    assert back.rho == msg.rho
    for j in (1, 4):
        assert np.array_equal(back.aux_row[j], msg.aux_row[j])
        assert np.array_equal(back.dual_row[j], msg.dual_row[j])


def test_proposal_byte_layout():
    """Little-endian header, one tag byte, id-sorted rows of doubles."""
    msg = TradeProposal(1, 1, {2: np.array([1.5, -0.25])})
    payload = (struct.pack("<IIII", 1, 1, 1, 2)
               + struct.pack("<I", 2)
               + np.array([1.5, -0.25]).astype("<f8").tobytes())
    expected = (struct.pack("<I", 1 + len(payload))
                + struct.pack("<B", TAG_PROPOSAL) + payload)
    assert encode(msg) == expected
    assert len(expected) == 41


@pytest.mark.parametrize("h", [1, 2, 4, 24])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_proposal_frame_size_formula(h, p):
    # size depends only on the counterparty count and horizon
    trades = {j + 2: np.full(h, float(j)) for j in range(p)}
    frame = encode(TradeProposal(1, 9, trades))
    assert len(frame) == 4 + 1 + 16 + p * (4 + 8 * h)


def test_empty_proposal_frame_is_header_only():
    frame = encode(TradeProposal(1, 1, {}))
    assert len(frame) == 21
    back = decode(frame)
    assert back.trades == {}


@pytest.mark.parametrize("h", [1, 6, 24])
@pytest.mark.parametrize("p", [1, 4])
def test_broadcast_frame_size_formula(h, p):
    msg = broadcast(ids=tuple(range(2, 2 + p)), h=h)
    assert len(encode(msg)) == 4 + 1 + 21 + p * (4 + 16 * h)


def test_rows_serialize_in_id_order():
    a = encode(TradeProposal(1, 1, {5: np.ones(1), 2: np.zeros(1)}))
    b = encode(TradeProposal(1, 1, {2: np.zeros(1), 5: np.ones(1)}))
    assert a == b


@st.composite
def row_blocks(draw, n_vecs):
    """Distinct u32 ids and n_vecs blocks of M x H arbitrary doubles, NaN
    payloads and signed zeros included, for M in {0, 1, 15}, H in {0, 1, 24}."""
    m = draw(st.sampled_from([0, 1, 15]))
    h = draw(st.sampled_from([0, 1, 24]))
    ids = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=m, max_size=m,
                        unique=True))
    blocks = [np.frombuffer(draw(st.binary(min_size=8 * m * h,
                                           max_size=8 * m * h)),
                            dtype="<f8").reshape(m, h) for _ in range(n_vecs)]
    return ids, blocks


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(rows=row_blocks(1), user_id=st.integers(0, 2 ** 32 - 1),
       iteration=st.integers(1, 2 ** 32 - 1))
def test_proposal_roundtrip_any_rows_is_bit_exact(rows, user_id, iteration):
    ids, (trades,) = rows
    assume(user_id not in ids)
    msg = TradeProposal(user_id, iteration, dict(zip(ids, trades)))
    frame = encode(msg)
    back = decode(frame)
    assert (back.user_id, back.iteration) == (user_id, iteration)
    assert list(back.trades) == sorted(ids)
    for j, row in zip(ids, trades):
        assert same_bits(back.trades[j], row)
    assert encode(back) == frame


@settings(max_examples=60, deadline=None)
@given(rows=row_blocks(2), iteration=st.integers(0, 2 ** 32 - 1),
       rho=st.floats(min_value=5e-324, allow_infinity=False),
       done=st.booleans())
def test_broadcast_roundtrip_any_rows_is_bit_exact(rows, iteration, rho, done):
    ids, (aux, dual) = rows
    msg = CoordinatorBroadcast(iteration, dict(zip(ids, aux)),
                               dict(zip(ids, dual)), rho, done)
    frame = encode(msg)
    back = decode(frame)
    assert (back.iteration, back.rho, back.done) == (iteration, rho, done)
    assert list(back.aux_row) == list(back.dual_row) == sorted(ids)
    for j, a, d in zip(ids, aux, dual):
        assert same_bits(back.aux_row[j], a)
        assert same_bits(back.dual_row[j], d)
    assert encode(back) == frame


@pytest.mark.parametrize("tag,head", [
    (TAG_PROPOSAL, struct.pack("<IIII", 1, 1, 2 ** 32 - 1, 24)),
    (TAG_PROPOSAL, struct.pack("<IIII", 1, 1, 1, 2 ** 32 - 1)),
    (TAG_BROADCAST, struct.pack("<IdBII", 1, 1.0, 0, 2 ** 32 - 1, 24)),
    (TAG_BROADCAST, struct.pack("<IdBII", 1, 1.0, 0, 1, 2 ** 32 - 1)),
])
def test_decode_rejects_sizes_beyond_the_frame_without_allocating(tag, head):
    """A header promising more rows or slots than the frame holds is a
    DecodeError, raised before any block of that size is built."""
    body = struct.pack("<B", tag) + head + struct.pack("<I", 2) + b"\x00" * 64
    frame = struct.pack("<I", len(body)) + body
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError, match="truncated"):
            decode(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- decode failure modes -------------------------------------------------

def test_decode_rejects_short_frame():
    with pytest.raises(DecodeError, match="header"):
        decode(b"\x01\x00")


def test_decode_rejects_length_mismatch():
    frame = bytearray(encode(proposal()))
    frame[0] ^= 0x01
    with pytest.raises(DecodeError, match="does not match"):
        decode(bytes(frame))


def test_decode_rejects_oversize_length_prefix():
    frame = struct.pack("<I", MAX_FRAME + 1) + b"\x01" + b"\x00" * 8
    with pytest.raises(DecodeError, match="exceeds"):
        decode(frame)


def test_decode_rejects_unknown_tag():
    body = struct.pack("<B", 9) + b"\x00" * 4
    frame = struct.pack("<I", len(body)) + body
    with pytest.raises(DecodeError, match="tag 9"):
        decode(frame)


def test_decode_names_truncation_offset():
    # header promises two rows but the payload carries one
    payload = (struct.pack("<IIII", 1, 1, 2, 2)
               + struct.pack("<I", 2) + b"\x00" * 16)
    body = struct.pack("<B", TAG_PROPOSAL) + payload
    frame = struct.pack("<I", len(body)) + body
    with pytest.raises(DecodeError, match="offset 41"):
        decode(frame)


def test_decode_rejects_trailing_bytes():
    good = encode(proposal())
    body = good[4:] + b"\xde\xad"
    frame = struct.pack("<I", len(body)) + body
    with pytest.raises(DecodeError, match="trailing"):
        decode(frame)


def test_decode_rejects_repeated_counterparty():
    row = struct.pack("<I", 2) + b"\x00" * 8
    payload = struct.pack("<IIII", 1, 1, 2, 1) + row + row
    body = struct.pack("<B", TAG_PROPOSAL) + payload
    frame = struct.pack("<I", len(body)) + body
    with pytest.raises(DecodeError, match="repeated counterparty 2"):
        decode(frame)


def test_decode_rejects_out_of_order_counterparties():
    rows = struct.pack("<I", 5) + b"\x00" * 8 + struct.pack("<I", 2) + b"\x00" * 8
    payload = struct.pack("<IIII", 1, 1, 2, 1) + rows
    body = struct.pack("<B", TAG_PROPOSAL) + payload
    frame = struct.pack("<I", len(body)) + body
    with pytest.raises(DecodeError, match="ascending"):
        decode(frame)


def test_decode_names_the_offset_of_a_repeated_counterparty():
    # ids 3, 1, 3: the repeat is reported where the third row's values start
    rows = b"".join(struct.pack("<I", j) + b"\x00" * 8 for j in (3, 1, 3))
    payload = struct.pack("<IIII", 1, 1, 3, 1) + rows
    body = struct.pack("<B", TAG_PROPOSAL) + payload
    frame = struct.pack("<I", len(body)) + body
    with pytest.raises(DecodeError, match="repeated counterparty 3 at "
                                          "offset 49$"):
        decode(frame)


def test_rows_hold_one_block_in_id_order():
    rows = protocol.Rows.of({5: np.ones(2), 2: np.zeros(2)})
    assert rows.ids == (2, 5)
    assert rows.block.dtype == np.float64 and rows.block.shape == (2, 2)
    assert np.shares_memory(rows[5], rows.block)
    assert 3 not in rows and list(rows) == [2, 5]
    with pytest.raises(ValueError, match="one length"):
        protocol.Rows.of({2: np.zeros(2), 5: np.zeros(3)})
    with pytest.raises(ValueError, match="ascending"):
        protocol.Rows((5, 2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="block"):
        protocol.Rows((2, 5), np.zeros((3, 2)))


def test_decode_rejects_self_trade():
    payload = (struct.pack("<IIII", 2, 1, 1, 1)
               + struct.pack("<I", 2) + b"\x00" * 8)
    body = struct.pack("<B", TAG_PROPOSAL) + payload
    frame = struct.pack("<I", len(body)) + body
    with pytest.raises(DecodeError):
        decode(frame)


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), 0.0, -1.0])
def test_broadcast_penalty_must_be_positive_and_finite(rho):
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        broadcast(rho=rho)
    # the penalty is the double after the tag and the u32 iteration
    frame = bytearray(encode(broadcast(rho=1.0)))
    struct.pack_into("<d", frame, 9, rho)
    with pytest.raises(DecodeError, match="rho must be positive and finite"):
        decode(bytes(frame))


@pytest.mark.parametrize("value", [2, 7, 255])
def test_decode_rejects_a_done_byte_other_than_0_or_1(value):
    """encode writes the done flag as 0 or 1; any other value is a
    corrupt frame, named with its offset, not a done broadcast."""
    # the flag is the byte after the tag, the u32 iteration and the penalty
    frame = bytearray(encode(broadcast(done=True)))
    assert frame[17] == 1
    frame[17] = value
    with pytest.raises(DecodeError, match=f"done byte {value} at offset 17"):
        decode(bytes(frame))
    frame[17] = 0
    assert decode(bytes(frame)).done is False


@pytest.mark.parametrize("template", ["proposal", "broadcast"])
def test_single_byte_corruption_never_escapes_decode(template):
    """Any one-byte corruption either still parses or raises DecodeError;
    no other exception may escape."""
    frame = encode(proposal() if template == "proposal"
                   else broadcast(ids=(2, 3)))
    for pos in range(len(frame)):
        mutated = bytearray(frame)
        mutated[pos] ^= 0xFF
        try:
            decode(bytes(mutated))
        except DecodeError:
            pass


# --- whole-frame reads ------------------------------------------------------

class TrickleSocket:
    """Serves a byte string at most `step` bytes per `recv`, then b""
    as a closed connection does."""

    def __init__(self, data: bytes, step: int = 1):
        self.data = data
        self.step = step
        self.read = 0

    def recv(self, n):
        chunk = self.data[self.read:self.read + min(n, self.step)]
        self.read += len(chunk)
        return chunk


def test_read_frame_joins_a_frame_sent_one_byte_at_a_time():
    frame = encode(broadcast(ids=(2, 3)))
    sock = TrickleSocket(frame + encode(proposal()))
    assert read_frame(sock, "closed") == frame
    assert sock.read == len(frame)


def test_read_frame_rejects_an_oversize_prefix_before_the_body():
    sock = TrickleSocket(struct.pack("<I", MAX_FRAME + 1) + b"\x00" * 16,
                         step=64)
    with pytest.raises(DecodeError, match="exceeds"):
        read_frame(sock, "closed")
    assert sock.read == 4


@pytest.mark.parametrize("cut", [0, 2, 7], ids=["between", "prefix", "body"])
def test_read_frame_close_is_a_protocol_violation(cut):
    sock = TrickleSocket(encode(proposal())[:cut], step=3)
    with pytest.raises(ProtocolViolation, match="closed by user 4"):
        read_frame(sock, "connection closed by user 4")


# --- in-process transport --------------------------------------------------

def pair_agents():
    """Users 1 and 2 of a two-slot fleet, each trading with the other."""
    return [loop_agent(uid=1, partner=2), loop_agent(uid=2, partner=1)]


def test_inproc_agents_take_their_first_step_on_construction():
    tr = InProcTransport(pair_agents())
    got = [tr.recv(1, 0.0), tr.recv(2, 0.0)]
    assert all(isinstance(m, TradeProposal) for m in got)
    assert [(m.user_id, m.iteration) for m in got] == [(1, 1), (2, 1)]
    assert tr.recv(1, 0.0) is None and tr.recv(2, 0.0) is None


def test_inproc_broadcast_is_answered_by_one_proposal():
    tr = InProcTransport(pair_agents())
    tr.recv(1, 0.0), tr.recv(2, 0.0)  # the first round
    tr.send_to(1, broadcast(iteration=1, ids=(2,), h=2, rho=0.5))
    answer = tr.recv(1, 0.0)
    assert isinstance(answer, TradeProposal)
    assert (answer.user_id, answer.iteration) == (1, 2)
    assert answer.trades.ids == (2,)
    assert tr.recv(1, 0.0) is None and tr.recv(2, 0.0) is None


def test_inproc_done_broadcast_yields_no_proposal():
    tr = InProcTransport(pair_agents())
    tr.recv(1, 0.0), tr.recv(2, 0.0)  # the first round
    tr.send_to(2, broadcast(iteration=1, ids=(1,), h=2, done=True))
    assert tr.recv(2, 0.0) is None
    # only the user told it is done stops
    tr.send_to(1, broadcast(iteration=1, ids=(2,), h=2))
    answer = tr.recv(1, 0.0)
    assert (answer.user_id, answer.iteration) == (1, 2)
    assert tr.recv(1, 0.0) is None and tr.recv(2, 0.0) is None


def test_inproc_agent_exception_names_the_user(monkeypatch):
    tr = InProcTransport(pair_agents())

    def faulty(agent, *args, **kwargs):
        raise ValueError("injected fault")

    monkeypatch.setattr(LocalAgent, "solve_llp", faulty)
    with pytest.raises(HvacTradeError, match="agent for user 2 failed: "
                                             "injected fault"):
        tr.send_to(2, broadcast(iteration=1, ids=(1,), h=2))


def test_inproc_run_neither_encodes_nor_decodes(monkeypatch):
    """The messages themselves cross the in-process transport, so no
    frame is built or parsed, and the report holds no frames."""
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called in an in-process run")
        return call

    monkeypatch.setattr(protocol, "encode", refuse("encode"))
    monkeypatch.setattr(protocol, "decode", refuse("decode"))
    report = run(load_scenario(FIXTURES / "two_user_complementary.yaml"))
    assert report.converged
    assert report.wire_frames == []


def test_inproc_messages_share_no_array_with_their_sender():
    agents = pair_agents()
    tr = InProcTransport(agents)
    first = tr.recv(1, 0.0)
    assert not np.shares_memory(first.trades[2], agents[0].last_trades)
    reply = broadcast(iteration=1, ids=(2,), h=2, rho=0.5)
    tr.send_to(1, reply)
    reply.aux_row[2][:] = 99.0
    assert np.array_equal(agents[0].received_aux[0], np.full(2, 0.25))


def test_inproc_unknown_user_rejected():
    tr = InProcTransport(pair_agents())
    with pytest.raises(ProtocolViolation, match="unknown"):
        tr.send_to(5, broadcast(ids=(2,), h=2))


# --- socket transport --------------------------------------------------------

def socket_transport(ids=(1, 2)):
    """A SocketTransport over one connected pair per user, and the agents'
    ends {uid: socket}."""
    pairs = {u: socket.socketpair() for u in ids}
    tr = SocketTransport({u: ours for u, (ours, _) in pairs.items()})
    return tr, {u: theirs for u, (_, theirs) in pairs.items()}


def close_all(tr, agent_ends):
    tr.close()
    for end in agent_ends.values():
        end.close()


def test_socket_recv_raises_when_a_bound_agent_disconnects():
    tr, agents = socket_transport()
    try:
        agents[1].sendall(encode(proposal(uid=1)))
        assert tr.recv(1, 5.0).user_id == 1
        agents[1].close()
        t0 = time.monotonic()
        with pytest.raises(ProtocolViolation, match="closed by user 1"):
            tr.recv(1, 5.0)
        assert time.monotonic() - t0 < 1.0
    finally:
        close_all(tr, agents)


def test_socket_recv_raises_when_an_unbound_agent_disconnects():
    """An agent that closes before any proposal is named by its pair."""
    tr, agents = socket_transport()
    try:
        agents[2].close()
        t0 = time.monotonic()
        with pytest.raises(ProtocolViolation, match="closed by user 2"):
            tr.recv(2, 5.0)
        assert time.monotonic() - t0 < 1.0
    finally:
        close_all(tr, agents)


def test_socket_send_names_a_user_that_reads_nothing(monkeypatch):
    """A broadcast larger than the pair's buffers, to an agent that never
    reads, ends the round after the barrier timeout instead of hanging."""
    monkeypatch.setattr(protocol, "BARRIER_TIMEOUT", 0.2)
    tr, agents = socket_transport()
    try:
        t0 = time.monotonic()
        with pytest.raises(SynchronizationTimeout,
                           match="round 3: user 2 took no broadcast") as exc:
            tr.send_to(2, broadcast(iteration=3, ids=(1,), h=1 << 17))
        assert time.monotonic() - t0 < 2.0
        assert exc.value.missing == (2,)
    finally:
        close_all(tr, agents)


def test_socket_rejects_a_proposal_for_another_user():
    tr, agents = socket_transport()
    try:
        agents[2].sendall(encode(proposal(uid=1)))
        with pytest.raises(ProtocolViolation,
                           match="user 2 sent a proposal for user 1"):
            tr.recv(2, 5.0)
    finally:
        close_all(tr, agents)


# --- collection barrier -----------------------------------------------------

class ScriptedTransport:
    """Feeds each user's agent a fixed script, then nothing: the messages
    in `script` are dealt to their senders' queues in order."""

    def __init__(self, script, expected_ids=(1, 2)):
        self.expected_ids = tuple(expected_ids)
        self.script = {u: [] for u in self.expected_ids}
        for m in script:
            self.script[m.user_id].append(m)

    def recv(self, user_id, timeout):
        queue = self.script[user_id]
        return queue.pop(0) if queue else None


def p_for(uid, iteration, partner=None):
    partner = 3 - uid if partner is None else partner
    return TradeProposal(uid, iteration, {partner: np.zeros(1)})


def test_barrier_sorts_by_user_id():
    for order in itertools.permutations((1, 2, 3)):
        tr = ScriptedTransport([p_for(u, 1, partner=4) for u in order],
                               expected_ids=(1, 2, 3))
        got = barrier_collect(tr, 1)
        assert [m.user_id for m in got] == [1, 2, 3]


def test_barrier_second_stale_message_is_fatal():
    """The first stale proposal already ends the round; the second is
    never read."""
    tr = ScriptedTransport([p_for(1, 1), p_for(1, 1)])
    with pytest.raises(ProtocolViolation, match="round 1"):
        barrier_collect(tr, 2)
    assert len(tr.script[1]) == 1


def test_barrier_stale_without_replay_is_fatal():
    """A stale proposal after a current one from the other user is
    fatal at once, with nothing re-sent."""
    tr = ScriptedTransport([p_for(2, 2), p_for(1, 1), p_for(1, 2)])
    with pytest.raises(ProtocolViolation, match="tagged for round 1"):
        barrier_collect(tr, 2)
    assert len(tr.script[1]) == 1


def test_barrier_timeout_names_silent_users(monkeypatch):
    monkeypatch.setattr(protocol, "BARRIER_TIMEOUT", 0.05)
    tr = ScriptedTransport([p_for(1, 1)])
    with pytest.raises(SynchronizationTimeout) as exc:
        barrier_collect(tr, 1)
    assert exc.value.missing == (2,)
    assert "users [2]" in str(exc.value)


def test_barrier_timeout_names_every_silent_user(monkeypatch):
    """Once user 2's read has used up the round's time, user 3 is still
    read, and found silent too."""
    monkeypatch.setattr(protocol, "BARRIER_TIMEOUT", 0.05)
    tr = ScriptedTransport([p_for(1, 1, partner=2)], expected_ids=(1, 2, 3))
    with pytest.raises(SynchronizationTimeout) as exc:
        barrier_collect(tr, 1)
    assert exc.value.missing == (2, 3)
    assert "2 of 3 proposals missing" in str(exc.value)


def test_barrier_names_a_user_stopped_mid_frame(monkeypatch):
    """Half a frame and then silence ends the round once the barrier
    timeout is spent: the read of the rest times out, and user 2's whole
    proposal, read after the deadline, still arrives."""
    monkeypatch.setattr(protocol, "BARRIER_TIMEOUT", 0.2)
    tr, agents = socket_transport()
    # ends a read that would otherwise wait for ever, failing the test
    watchdog = threading.Timer(5.0, agents[1].shutdown, (socket.SHUT_WR,))
    watchdog.start()
    try:
        agents[1].sendall(encode(proposal(uid=1))[:7])
        agents[2].sendall(encode(proposal(uid=2, trades={1: np.zeros(2)})))
        t0 = time.monotonic()
        with pytest.raises(SynchronizationTimeout, match="users \\[1\\]") as exc:
            barrier_collect(tr, 1)
        assert time.monotonic() - t0 < 2 * 0.2
        assert exc.value.missing == (1,)
    finally:
        watchdog.cancel()
        close_all(tr, agents)


# --- agent loop -------------------------------------------------------------

class ScriptedChannel:
    def __init__(self, replies):
        self.replies = list(replies)
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def recv(self):
        return self.replies.pop(0)


def loop_agent(uid=1, partner=2):
    h = 2
    params = UserParams(
        id=uid, thermal_capacitance=3.3, thermal_resistance=1.35,
        hvac_efficiency=2.5, comfort_weight=0.1, temp_ref=22.0,
        temp_min=20.0, temp_max=24.0, grid_cap=6.0,
        renewable_avail=np.zeros(h), inflexible_load=np.full(h, 1.0),
        outdoor_temp=np.full(h, 22.0))
    tariff = Tariff(0.25, 0.5, np.full(h, 0.1))
    return LocalAgent(params, tariff, partner_ids=(partner,))


def test_agent_step_advances_one_round_per_broadcast():
    agent = loop_agent()
    first = agent.step()
    assert (first.user_id, first.iteration) == (1, 1)
    second = agent.step(broadcast(iteration=1, ids=(2,), h=2, rho=0.5))
    assert second.iteration == 2 and agent.rho == 0.5
    assert np.array_equal(agent.received_aux[0], np.full(2, 0.25))
    assert agent.step(broadcast(iteration=2, ids=(2,), h=2, done=True)) is None
    assert agent.iteration == 2


def test_agent_step_rejects_a_broadcast_for_another_round():
    agent = loop_agent()
    agent.step()
    with pytest.raises(ProtocolViolation, match="got round 3"):
        agent.step(broadcast(iteration=3, ids=(2,), h=2))


def test_agent_loop_rejects_broadcast_from_the_future():
    channel = ScriptedChannel([broadcast(iteration=7, ids=(2,), h=2)])
    with pytest.raises(ProtocolViolation, match="round 7"):
        run_agent_loop(loop_agent(), channel)


def test_agent_loop_rejects_a_repeated_broadcast():
    """A broadcast of the round before is fatal, not answered again."""
    channel = ScriptedChannel([broadcast(iteration=0, ids=(2,), h=2)])
    with pytest.raises(ProtocolViolation, match="got round 0"):
        run_agent_loop(loop_agent(), channel)
    assert [m.iteration for m in channel.sent] == [1]


def test_agent_loop_advances_until_done():
    replies = [broadcast(iteration=1, ids=(2,), h=2, rho=1.0),
               broadcast(iteration=2, ids=(2,), h=2, rho=0.5),
               broadcast(iteration=3, ids=(2,), h=2, rho=0.25, done=True)]
    channel = ScriptedChannel(replies)
    agent = run_agent_loop(loop_agent(), channel)
    assert [m.iteration for m in channel.sent] == [1, 2, 3]
    assert agent.iteration == 3
    assert agent.rho == 0.25


# --- transport equivalence ---------------------------------------------------

def test_socket_run_matches_inproc_run():
    """The negotiated outcome must not depend on the wire."""
    import json

    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    a = run(scenario, transport="inproc")
    b = run(scenario, transport="socket")
    dump = lambda r: json.dumps(r.to_dict(), sort_keys=True)
    assert dump(a) == dump(b)
    assert a.iterations == b.iterations


def test_socket_capture_is_the_same_from_run_to_run():
    """Each round reads the proposals by user id, so two socket runs of
    one scenario capture the same frames in the same order."""
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    first = run(scenario, transport="socket").wire_frames
    assert first
    assert run(scenario, transport="socket").wire_frames == first


@pytest.mark.parametrize("make", [
    # agents negotiate the traces the caller drew with its seed override
    lambda: load_scenario(FIXTURES / "reference_10user.yaml", seed=7),
    # a scenario that was never saved has no file to read
    lambda: build_synth_scenario(4, 6, seed=2),
], ids=["seed_override", "unsaved"])
def test_socket_report_is_byte_identical_to_inproc(make, tmp_path):
    scenario = make()
    write_report(run(scenario), tmp_path / "inproc")
    write_report(run(scenario, transport="socket"), tmp_path / "socket")
    assert (tmp_path / "inproc" / "report.json").read_bytes() == \
        (tmp_path / "socket" / "report.json").read_bytes()


def test_socket_run_opens_no_listener(monkeypatch, tmp_path):
    """Each agent gets a connected socket pair made before its fork, so a
    socket run listens on no address and still reports what an
    in-process run does."""
    def refused(*args, **kwargs):
        raise OSError("a socket run must not listen")

    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    write_report(run(scenario), tmp_path / "inproc")
    monkeypatch.setattr(socket, "create_server", refused)
    monkeypatch.setattr(socket.socket, "listen", refused)
    write_report(run(scenario, transport="socket"), tmp_path / "socket")
    assert (tmp_path / "inproc" / "report.json").read_bytes() == \
        (tmp_path / "socket" / "report.json").read_bytes()


def test_import_and_inproc_run_leave_the_socket_stack_unloaded():
    """Importing the package and negotiating in process load none of
    the modules only a socket run uses; the first socket run loads
    them."""
    src = str(Path(protocol.__file__).resolve().parent.parent)
    stack = ("multiprocessing", "selectors", "socket")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         f"stack = {stack!r}\n"
         "before = {m for m in stack if m in sys.modules}\n"
         "loaded = lambda: sorted(m for m in stack\n"
         "                        if m in sys.modules and m not in before)\n"
         "import hvactrade\n"
         "print(loaded())\n"
         "scenario = hvactrade.load_scenario(sys.argv[1])\n"
         "print(hvactrade.run(scenario).converged, loaded())\n"
         "hvactrade.run(scenario, transport='socket')\n"
         "print(sorted(m for m in stack if m in sys.modules))",
         str(FIXTURES / "two_user_complementary.yaml")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True, timeout=120)
    assert out.stdout.split("\n")[:3] == [
        "[]", "True []", str(sorted(stack))]


def test_inproc_run_starts_no_thread(monkeypatch):
    solve_llp = LocalAgent.solve_llp
    seen = set()

    def recording(agent, *args, **kwargs):
        seen.add((threading.current_thread().name, threading.active_count()))
        return solve_llp(agent, *args, **kwargs)

    monkeypatch.setattr(LocalAgent, "solve_llp", recording)
    before = threading.active_count()
    run(load_scenario(FIXTURES / "two_user_complementary.yaml"))
    assert seen == {(threading.main_thread().name, before)}
    assert threading.active_count() == before


def test_socket_run_names_a_crashed_agent_at_once(monkeypatch):
    """An agent process that dies ends the run well before the 60 s
    barrier timeout, and the error names its user."""
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    assert protocol.BARRIER_TIMEOUT == 60.0
    coordinator_pid = os.getpid()
    solve_llp = LocalAgent.solve_llp

    def faulty(agent, *args, **kwargs):
        # the forked agents inherit the patch; the coordinator's own
        # solves go through
        if (os.getpid() != coordinator_pid and agent.user_id == 2
                and agent.iteration >= 3):
            raise ValueError("injected fault")
        return solve_llp(agent, *args, **kwargs)

    monkeypatch.setattr(LocalAgent, "solve_llp", faulty)
    t0 = time.monotonic()
    with pytest.raises(HvacTradeError, match="agent for user 2 failed"):
        run(scenario, transport="socket")
    assert time.monotonic() - t0 < 15.0


def test_socket_run_names_an_agent_that_dies_before_its_first_proposal(
        monkeypatch):
    """Agents that fail before their first proposal send nothing; the run
    still ends well before the 60 s barrier timeout, naming a user."""
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    assert protocol.BARRIER_TIMEOUT == 60.0

    def unreachable(channel, sock):
        raise ConnectionError("injected fault")

    monkeypatch.setattr(protocol.SocketChannel, "__init__", unreachable)
    t0 = time.monotonic()
    with pytest.raises(HvacTradeError, match="agent for user [12] failed"):
        run(scenario, transport="socket")
    assert time.monotonic() - t0 < 10.0


def test_agent_sees_its_own_connection_close_at_once():
    """Closing the coordinator's end of user 1's pair ends user 1's agent,
    which the transport then names, while user 2's agent, forked after
    that end was made, keeps waiting: no agent holds a copy of another
    agent's coordinator end."""
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    users = sorted(scenario.users, key=lambda u: u.id)
    state = CoordinatorState.initial([u.id for u in users],
                                     scenario.grid.horizon_len)
    tr = SocketTransport.fork(
        [LocalAgent(u, scenario.tariff, scenario.grid, partner_ids=partners)
         for u, partners in zip(users, state.partners)])
    assert len(barrier_collect(tr, 1)) == 2
    tr._conns[1].close()
    tr._procs[1].join(timeout=1.0)
    assert tr._procs[1].exitcode not in (0, None)
    assert tr._procs[2].is_alive()
    with pytest.raises(HvacTradeError, match="agent for user 1 failed"):
        tr.close(finished=False)
    assert multiprocessing.active_children() == []


def test_no_agent_process_outlives_a_socket_run(monkeypatch):
    """Every agent process has ended and been reaped when `run` returns,
    and also when an agent crashed."""
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    assert run(scenario, transport="socket").converged
    assert multiprocessing.active_children() == []

    coordinator_pid = os.getpid()
    solve_llp = LocalAgent.solve_llp

    def faulty(agent, *args, **kwargs):
        if os.getpid() != coordinator_pid and agent.user_id == 1:
            raise ValueError("injected fault")
        return solve_llp(agent, *args, **kwargs)

    monkeypatch.setattr(LocalAgent, "solve_llp", faulty)
    with pytest.raises(HvacTradeError, match="agent for user 1 failed"):
        run(scenario, transport="socket")
    assert multiprocessing.active_children() == []


def test_a_coordinator_failure_ends_the_socket_agents_at_once(monkeypatch):
    """When the coordinator itself fails, no agent's connection has
    closed, so none is awaited: the error propagates well within a
    second and every agent process has been ended and reaped."""
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")

    def broken(p, state):
        raise RuntimeError("injected coordinator fault")

    monkeypatch.setattr(coordinator, "hlp_update", broken)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="injected coordinator fault"):
        run(scenario, transport="socket")
    assert time.monotonic() - t0 < 1.0
    assert multiprocessing.active_children() == []


def test_a_fork_that_fails_part_way_ends_the_agents_started(monkeypatch,
                                                            capfd):
    """When the second agent cannot be started, the first is stopped
    before the error propagates, without a traceback of its own."""
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    fork_process = multiprocessing.get_context("fork").Process
    start = fork_process.start
    starts = []

    def flaky_start(process):
        starts.append(process.name)
        if len(starts) == 2:
            raise OSError("injected fork failure")
        start(process)

    monkeypatch.setattr(fork_process, "start", flaky_start)
    with pytest.raises(OSError, match="injected fork failure"):
        run(scenario, transport="socket")
    assert starts == ["agent-1", "agent-2"]
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err
