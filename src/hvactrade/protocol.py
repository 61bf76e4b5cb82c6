"""Messages and transports between user agents and the coordinator.

Two message types cross the boundary: a `TradeProposal` carrying one
user's pairwise trade vectors, and a `CoordinatorBroadcast` carrying
that user's consensus row, dual row, the next penalty weight, and a
completion flag.  Both serialize to length-prefixed binary frames
(`[u32 length][u8 tag][payload]`, little-endian, length counting tag
plus payload) so the privacy property can be checked on raw bytes.

A message's rows are one `Rows` value: the counterparty ids in
ascending order and one float64 block with a row per id.  The wire
carries the same block: each row is a u32 counterparty id followed by
the row's doubles (trades, or consensus then duals), and the codec
reads or writes the whole block as one numpy structured array.

Both transports take the agents `run` built, and every agent advances
through `LocalAgent.step`, one call per round.  The in-process
transport calls it directly in the coordinator's thread and hands each
message object across as it is.  `SocketTransport.fork` makes one
connected socket pair per agent, forks the agent over one end and keeps
the other, so it knows each connection's user from the start; the
agent calls `step` from `run_agent_loop`, and closing the transport
ends the processes.  Each connection carries one frame a round in each
direction, and both ends read it whole with `read_frame`: the length
prefix, then exactly the body it announces.  The socket transport
captures every frame it sends or receives in `wire_frames` for
auditing.  The in-process transport encodes nothing and its
`wire_frames` stays empty: the codec carries float64 exactly, so the
message an agent gets is the one a decode would have produced, and
sharing one step keeps runs bit-identical across the transports.
Checks sit where data enters: `decode` and the public constructors of
`Rows` and both messages.  A round's own rows are built unchecked, and
each receiver checks what it reads.

The socket stack (`multiprocessing`, `socket`, `selectors`) loads with
the first socket run, not with the package: an in-process run never
imports it.
"""

from __future__ import annotations

import bisect
import functools
import struct
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DecodeError, HvacTradeError, ProtocolViolation,
                     SynchronizationTimeout)

if TYPE_CHECKING:
    import multiprocessing
    import socket

TAG_PROPOSAL = 1
TAG_BROADCAST = 2
MAX_FRAME = 1 << 26
# an agent's wait for each broadcast
AGENT_RECV_TIMEOUT = 300.0
# the coordinator's wait for a round's proposals, and for each read of
# a frame or send of a broadcast on an agent's connection
BARRIER_TIMEOUT = 60.0


class Rows(Mapping):
    """One message's rows: ascending counterparty ids and one float64
    block with a row per id.  Reads as the mapping {id: row}, each row a
    view into the block.  `Rows(...)` and `Rows.of` check their parts;
    `_trusted` takes parts the library built as they are."""

    __slots__ = ("ids", "block")

    @classmethod
    def _trusted(cls, ids: tuple[int, ...], block: np.ndarray) -> "Rows":
        rows = cls.__new__(cls)  # ascending distinct ints, 2-D float64
        rows.ids, rows.block = ids, block
        return rows

    def __init__(self, ids, block):
        ids = tuple(map(int, ids))
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != len(ids):
            raise ValueError(f"{len(ids)} ids need a block of {len(ids)} "
                             f"rows, got shape {block.shape}")
        if ids != tuple(sorted(set(ids))):
            raise ValueError("counterparty ids must be distinct and ascending")
        self.ids, self.block = ids, block

    @classmethod
    def of(cls, rows) -> "Rows":
        """`rows` itself if it is a Rows, else the Rows of a mapping
        {id: vector}."""
        if isinstance(rows, Rows):
            return rows
        ids = sorted(rows)
        vecs = [np.asarray(rows[j], dtype=np.float64) for j in ids]
        if any(v.ndim != 1 for v in vecs) or len({v.shape for v in vecs}) > 1:
            raise ValueError("rows must be vectors of one length")
        return cls(ids, np.array(vecs) if vecs else np.empty((0, 0)))

    def __getitem__(self, j) -> np.ndarray:
        pos = bisect.bisect_left(self.ids, j)
        if pos == len(self.ids) or self.ids[pos] != j:
            raise KeyError(j)
        return self.block[pos]

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"Rows({self.ids}, block of shape {self.block.shape})"


@dataclass
class TradeProposal:
    """One user's trade vectors for one round, one row per counterparty.

    `trades` may be given as a mapping {id: vector}; it is held as Rows."""

    user_id: int
    iteration: int
    trades: Rows = field(default_factory=dict)

    def __post_init__(self):
        self.user_id = int(self.user_id)
        self.iteration = int(self.iteration)
        if self.iteration < 1:
            raise ValueError("iteration counts from 1")
        self.trades = Rows.of(self.trades)
        if self.user_id in self.trades:
            raise ValueError(f"user {self.user_id} cannot trade with itself")


@dataclass
class CoordinatorBroadcast:
    """Per-user reply: consensus row, dual row, next penalty weight, done.

    The rows may be given as mappings {id: vector}; they are held as Rows."""

    iteration: int
    aux_row: Rows
    dual_row: Rows
    rho: float
    done: bool

    def __post_init__(self):
        self.iteration = int(self.iteration)
        self.rho = float(self.rho)
        self.done = bool(self.done)
        if not 0 < self.rho < np.inf:  # False at a NaN
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        self.aux_row = Rows.of(self.aux_row)
        self.dual_row = Rows.of(self.dual_row)
        if (self.aux_row.ids != self.dual_row.ids
                or self.aux_row.block.shape != self.dual_row.block.shape):
            raise ValueError("aux_row and dual_row must cover the same ids "
                             "and slots")


@functools.lru_cache(maxsize=64)
def _row_dtype(n_vecs: int, h: int) -> np.dtype:
    """One wire row: a u32 counterparty id, then n_vecs runs of h doubles."""
    return np.dtype([("id", "<u4"), ("v", "<f8", (n_vecs, h))])


def _encode_rows(*fields: Rows) -> tuple[bytes, int, int]:
    """Serialize Rows that share their ids as one block; no rows write
    zero slots.  Returns (block bytes, row count, slots per vector)."""
    ids = fields[0].ids
    if not ids:
        return b"", 0, 0
    h = fields[0].block.shape[1]
    block = np.empty(len(ids), dtype=_row_dtype(len(fields), h))
    block["id"] = ids
    for f, rows in enumerate(fields):
        block["v"][:, f] = rows.block
    return block.tobytes(), len(ids), h


def encode(message) -> bytes:
    """Serialize a message to one wire frame (length prefix included)."""
    if isinstance(message, TradeProposal):
        rows, n_rows, h = _encode_rows(message.trades)
        head = struct.pack("<IIII", message.user_id, message.iteration,
                           n_rows, h)
        tag = TAG_PROPOSAL
    elif isinstance(message, CoordinatorBroadcast):
        rows, n_rows, h = _encode_rows(message.aux_row, message.dual_row)
        head = struct.pack("<IdBII", message.iteration, message.rho,
                           int(message.done), n_rows, h)
        tag = TAG_BROADCAST
    else:
        raise TypeError(f"cannot encode {type(message).__name__}")
    body = struct.pack("<B", tag) + head + rows
    if len(body) > MAX_FRAME:
        raise ValueError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME}")
    return struct.pack("<I", len(body)) + body


def _take(frame: bytes, offset: int, fmt: str):
    size = struct.calcsize(fmt)
    if offset + size > len(frame):
        raise DecodeError(f"truncated payload at offset {offset}")
    return struct.unpack_from(fmt, frame, offset), offset + size


def _decode_rows(frame: bytes, off: int, n_rows: int, h: int,
                 n_vecs: int) -> tuple[list[int], np.ndarray]:
    """Read a row block: (ids, values of shape rows x n_vecs x h).

    The values are one aligned float64 copy of the block.  A malformed
    block raises the DecodeError, and names the offset, that reading it
    row by row would have met first; the sizes are checked against the
    bytes left before any array is built.
    """
    row = 4 + 8 * n_vecs * h
    left = len(frame) - off
    whole = min(n_rows, left // row)
    ids: list[int] = []
    values = np.empty((0, n_vecs, h))
    if whole:
        block = np.frombuffer(frame, dtype=_row_dtype(n_vecs, h),
                              count=whole, offset=off)
        ids = block["id"].tolist()
        if len(set(ids)) < whole:
            seen = set()
            for r, j in enumerate(ids):
                if j in seen:
                    raise DecodeError(f"repeated counterparty {j} at offset "
                                      f"{off + r * row + 4}")
                seen.add(j)
        values = block["v"].astype(np.float64)
    end = off + whole * row
    if whole < n_rows:
        if len(frame) - end < 4:
            raise DecodeError(f"truncated payload at offset {end}")
        (j,) = struct.unpack_from("<I", frame, end)
        if j in ids:
            raise DecodeError(f"repeated counterparty {j} at offset {end + 4}")
        # the bytes left hold an id but not the whole row, so h > 0
        done = (len(frame) - end - 4) // (8 * h)
        raise DecodeError(f"truncated float block at offset "
                          f"{end + 4 + 8 * h * done}")
    if end != len(frame):
        raise DecodeError(f"{len(frame) - end} trailing bytes at offset {end}")
    return ids, values


def decode(frame: bytes):
    """Parse one full wire frame back into a message."""
    if len(frame) < 5:
        raise DecodeError(f"frame of {len(frame)} bytes is shorter than the "
                          f"5-byte header")
    (length,) = struct.unpack_from("<I", frame, 0)
    if length > MAX_FRAME:
        raise DecodeError(f"length prefix {length} at offset 0 exceeds the "
                          f"{MAX_FRAME} byte cap")
    if length != len(frame) - 4:
        raise DecodeError(f"length prefix {length} at offset 0 does not match "
                          f"body of {len(frame) - 4} bytes")
    tag = frame[4]
    try:
        if tag == TAG_PROPOSAL:
            (user_id, iteration, n_rows, h), off = _take(frame, 5, "<IIII")
            ids, values = _decode_rows(frame, off, n_rows, h, 1)
            return TradeProposal(user_id, iteration, Rows(ids, values[:, 0]))
        if tag == TAG_BROADCAST:
            (iteration, rho, done, n_rows, h), off = _take(frame, 5, "<IdBII")
            if done > 1:  # encode writes 0 or 1
                raise DecodeError(f"done byte {done} at offset 17 is not 0 or 1")
            ids, values = _decode_rows(frame, off, n_rows, h, 2)
            return CoordinatorBroadcast(iteration, Rows(ids, values[:, 0]),
                                        Rows(ids, values[:, 1]), rho,
                                        bool(done))
    except ValueError as exc:
        raise DecodeError(str(exc)) from exc
    raise DecodeError(f"unknown message tag {tag} at offset 4")


def _recv_exactly(sock, n: int, closed: str) -> bytes:
    chunks = []
    while n:
        try:
            chunk = sock.recv(n)
        except TimeoutError:
            raise
        except OSError:
            chunk = b""
        if not chunk:
            raise ProtocolViolation(closed)
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(sock, closed: str) -> bytes:
    """Read one whole frame, length prefix included, from a socket.

    Reads the 4-byte prefix, then exactly the body it announces, looping
    over `recv`.  A prefix over MAX_FRAME is a DecodeError raised before
    any of the body is read.  A connection that closes, between frames
    or inside one, is a ProtocolViolation whose message is `closed`.  A
    socket timeout propagates as TimeoutError.
    """
    head = _recv_exactly(sock, 4, closed)
    (length,) = struct.unpack("<I", head)
    if length > MAX_FRAME:
        raise DecodeError(f"length prefix {length} exceeds the "
                          f"{MAX_FRAME} byte cap")
    return head + _recv_exactly(sock, length, closed)


class InProcTransport:
    """Transport that runs the agents in the caller's thread.

    Each agent takes its first step on construction.  `send_to` hands a
    broadcast to its agent, which answers at once with its next
    proposal; `poll` returns the proposals in the order they were made.
    Every message is handed over as the object itself, never encoded: a
    sender builds each message from fresh arrays, so the receiver shares
    nothing mutable with it.
    """

    def __init__(self, agents):
        self._agents = {a.user_id: a for a in agents}
        self.expected_ids = tuple(sorted(self._agents))
        self.wire_frames: list[bytes] = []
        self._ready: list[TradeProposal] = []
        for uid in self.expected_ids:
            self._step(uid, None)

    def _step(self, user_id: int, broadcast: CoordinatorBroadcast | None):
        agent = self._agents[user_id]
        try:
            message = agent.step(broadcast)
        except Exception as exc:
            raise HvacTradeError(f"agent for user {user_id} failed: {exc}") from exc
        if message is not None:
            self._ready.append(message)

    def poll(self, timeout: float):
        return self._ready.pop(0) if self._ready else None

    def send_to(self, user_id: int, broadcast: CoordinatorBroadcast):
        if int(user_id) not in self._agents:
            raise ProtocolViolation(f"unknown user id {user_id}")
        self._step(int(user_id), broadcast)

    def close(self, finished: bool = True):
        pass


class SocketChannel:
    """Agent endpoint of the socket transport: the agent's end of the
    connected socket pair the coordinator made for it."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.settimeout(AGENT_RECV_TIMEOUT)

    def send(self, message):
        self._sock.sendall(encode(message))

    def recv(self):
        try:
            frame = read_frame(self._sock, "coordinator closed the connection")
        except TimeoutError:
            raise SynchronizationTimeout("no broadcast before the socket timeout")
        return decode(frame)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class SocketTransport:
    """Coordinator side of the socket transport.

    Holds the coordinator's end of each user's connected socket pair,
    given as {user id: socket}, so every connection's user is known by
    construction; broadcasts go back over the user's own connection.
    `fork` builds one over agent processes it starts itself.
    Single-threaded: `poll` waits on one selector over every connection,
    registered once, and reads one whole frame from a connection that is
    ready.  Each end times out after BARRIER_TIMEOUT, so a frame that
    stops half-way, or a broadcast that cannot be sent, is a
    SynchronizationTimeout naming the user rather than a hang.  A
    proposal that names another user than its connection's, or a
    connection that closes mid-run (as it does when the agent's process
    exits), is a protocol violation; the transport remembers whose
    connection it saw close.
    """

    def __init__(self, conns: Mapping[int, socket.socket]):
        self._conns = {int(u): conn for u, conn in conns.items()}
        self.expected_ids = tuple(sorted(self._conns))
        self.wire_frames: list[bytes] = []
        self._procs: dict[int, multiprocessing.Process] = {}
        self._dropped: set[int] = set()  # users whose connection closed
        import selectors
        self._sel = selectors.DefaultSelector()
        for uid, conn in self._conns.items():
            conn.settimeout(BARRIER_TIMEOUT)
            self._sel.register(conn, selectors.EVENT_READ, uid)

    @classmethod
    def fork(cls, agents) -> "SocketTransport":
        """Fork one process per agent, each running the agent object it
        was given over its own connected socket pair, and return the
        transport over the coordinator's ends.

        A pair is made just before its agent's fork, and the agent's end
        is closed here once the fork has copied it.  A fork that fails
        part-way stops the agents already started before the error
        propagates."""
        import multiprocessing
        import socket
        ctx = multiprocessing.get_context("fork")
        procs, ends = {}, {}
        try:
            for agent in agents:
                uid = agent.user_id
                ends[uid], agent_end = socket.socketpair()
                pr = ctx.Process(target=_agent_main,
                                 args=(agent, agent_end, tuple(ends.values())),
                                 daemon=True, name=f"agent-{uid}")
                try:
                    pr.start()
                finally:
                    agent_end.close()
                procs[uid] = pr
        except BaseException:
            _terminate(procs.values())
            for end in ends.values():
                end.close()
            raise
        tr = cls(ends)
        tr._procs = procs
        return tr

    def poll(self, timeout: float):
        for key, _ in self._sel.select(timeout=max(timeout, 0.0)):
            uid = key.data
            try:
                frame = read_frame(key.fileobj,
                                   f"connection closed by user {uid}")
            except TimeoutError:
                raise SynchronizationTimeout(
                    f"user {uid} stopped in the middle of a frame for "
                    f"{key.fileobj.gettimeout()}s", missing=(uid,))
            except DecodeError:
                raise
            except ProtocolViolation:  # the connection closed
                self._dropped.add(uid)
                raise
            self.wire_frames.append(frame)
            message = decode(frame)
            if not isinstance(message, TradeProposal):
                raise ProtocolViolation(
                    f"expected a trade proposal, got {type(message).__name__}")
            if message.user_id != uid:
                raise ProtocolViolation(
                    f"connection of user {uid} sent a proposal for user "
                    f"{message.user_id}")
            return message
        return None

    def send_to(self, user_id: int, broadcast: CoordinatorBroadcast):
        conn = self._conns.get(int(user_id))
        if conn is None:
            raise ProtocolViolation(f"unknown user id {user_id}")
        frame = encode(broadcast)
        self.wire_frames.append(frame)
        try:
            conn.sendall(frame)
        except TimeoutError:
            raise SynchronizationTimeout(
                f"round {broadcast.iteration}: user {user_id} took no "
                f"broadcast for {conn.gettimeout()}s", missing=(int(user_id),))
        except OSError:
            self._dropped.add(int(user_id))
            raise

    def close(self, finished: bool = True):
        """End the agent processes, close every connection, and raise
        HvacTradeError for the first user whose process failed on its own.

        After a finished run every agent has been told to stop and gets
        30 s to exit.  After a failure only an agent whose connection was
        seen to close is awaited, briefly, since its process is ending;
        every agent still running then is terminated at once.  A process
        that failed is named if it has exited by then.
        """
        procs = self._procs
        if finished:
            for pr in procs.values():
                pr.join(timeout=30.0)
        else:
            dropped = [procs[u] for u in self._dropped if u in procs]
            if dropped:
                from multiprocessing.connection import wait
                ended = wait([pr.sentinel for pr in dropped], timeout=2.0)
                for pr in dropped:
                    if pr.sentinel in ended:
                        pr.join()  # reap it: the sentinel can close first
        failed = {uid: pr.exitcode for uid, pr in procs.items()
                  if pr.exitcode not in (0, None)}
        _terminate(procs.values())
        self._sel.close()
        for conn in self._conns.values():
            conn.close()
        if failed:
            uid = min(failed)
            raise HvacTradeError(f"agent for user {uid} failed: agent "
                                 f"process exited with {failed[uid]}")


def _terminate(procs):
    """Terminate the processes still running, then reap them."""
    survivors = [pr for pr in procs if pr.is_alive()]
    for pr in survivors:
        pr.terminate()
    for pr in survivors:
        pr.join(timeout=5.0)


def barrier_collect(transport, iteration: int) -> list[TradeProposal]:
    """Collect exactly one proposal from each of `transport.expected_ids`
    for the given round, in ascending user id.

    A proposal from a user the transport does not expect, one tagged for
    another round, or a second proposal from one user, is a protocol
    violation: a connection neither loses nor reorders frames, so an
    agent that answers each broadcast once never sends either.  Running
    out of BARRIER_TIMEOUT names the silent users.
    """
    expected = transport.expected_ids
    timeout = BARRIER_TIMEOUT
    proposals: dict[int, TradeProposal] = {}
    deadline = time.monotonic() + timeout
    while len(proposals) < len(expected):
        left = deadline - time.monotonic()
        if left <= 0:
            missing = tuple(u for u in expected if u not in proposals)
            raise SynchronizationTimeout(
                f"round {iteration}: {len(missing)} of {len(expected)} "
                f"proposals missing after {timeout}s (users {list(missing)})",
                missing=missing)
        message = transport.poll(left)
        if message is None:
            continue
        uid = message.user_id
        if uid not in expected:
            raise ProtocolViolation(
                f"round {iteration}: proposal from unknown user {uid}")
        if uid in proposals:
            raise ProtocolViolation(
                f"round {iteration}: duplicate proposal from user {uid}")
        if message.iteration != iteration:
            raise ProtocolViolation(
                f"round {iteration}: user {uid} sent a proposal tagged for "
                f"round {message.iteration}")
        proposals[uid] = message
    return [proposals[u] for u in expected]


def run_agent_loop(agent, channel):
    """Drive one agent over a channel until the coordinator signals
    completion: send a proposal, answer the broadcast it gets back with
    the next one.  A broadcast for any round but the agent's own is a
    protocol violation (raised by `agent.step`)."""
    message = agent.step()
    while message is not None:
        channel.send(message)
        message = agent.step(channel.recv())
    return agent


def _agent_main(agent, sock, inherited):
    """Entry point of one forked agent process.

    `sock` is the agent's end of its own connected socket pair.  The
    process first closes `inherited`, the coordinator's ends that the
    fork copied: an agent holding the coordinator's end of another
    agent's pair would keep that agent from seeing the connection close.
    """
    for end in inherited:
        end.close()
    channel = SocketChannel(sock)
    try:
        run_agent_loop(agent, channel)
    finally:
        channel.close()
