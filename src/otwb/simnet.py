"""Deterministic discrete-event harness.

A Schedule fixes an execution completely: which client generates what, and
in which order the FIFO channels (or the broadcast) deliver. run() replays
a schedule under one protocol, records a Trace of do/send/receive events
with vector-time metadata, and returns each space's steps as a StepHistory
of its marks over its final snapshot. Identical inputs give byte-identical JSON.
random_schedule draws seeded schedules over BufferJupiter, a 1D-buffer
Jupiter that needs ot_core alone. Steps are slotted frozen records, and
the schedules built here share equal deliveries and equal reads.
"""

from __future__ import annotations

import collections
import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .css_space import CssSnapshot, Oid, OidIndex, ProtocolError, StepHistory
from .ot_core import Element, ListOp, ListState, apply, to_text, transform
from .protocols import SERVER_ID, CJClient, CJServer, DJReplica, JServer, Sequencer, _fill_del

SCHEDULE_FORMAT = 1
TRACE_FORMAT = 1
PRNG_NAME = "py-mt19937/v1"
# The one insert tie-break: the smaller client id wins. Schedules and
# traces still name it, so that their bytes and digests stay as they were.
PRIORITY_RULE = "smaller_wins"
BROADCAST = -1

GLYPH_POOL = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

PROTOCOLS = ("cjupiter", "jupiter", "djupiter")

_tuple_new = tuple.__new__


class ScheduleError(ValueError):
    """A schedule that no run could execute: bad ids, dangling delivery,
    or a FIFO channel drawn below empty."""


@dataclass(frozen=True, slots=True)
class OpSpec:
    kind: str  # "ins" | "del" | "read"
    glyph: Optional[str] = None
    pos: Optional[int] = None


@dataclass(frozen=True, slots=True)
class GenerateStep:
    cid: int
    op: OpSpec


@dataclass(frozen=True, slots=True)
class DeliverStep:
    to: int  # replica id, 0 = server
    frm: int


Step = GenerateStep | DeliverStep  # a types.UnionType: typing's cache would keep both classes alive


def _shared(steps: Iterable[Step]) -> Tuple[Step, ...]:
    """The steps, with equal deliveries one object and equal reads one
    object: n clients have at most 2n deliveries and n plain reads."""
    one: Dict[Step, Step] = {}
    return tuple(s if isinstance(s, GenerateStep) and s.op.kind != "read" else one.setdefault(s, s) for s in steps)


@dataclass(frozen=True)
class Schedule:
    n_clients: int
    steps: Tuple[Step, ...]
    prng: Optional[Tuple[str, int]] = None  # (generator name, seed)

    @cached_property
    def sha256(self) -> str:
        """Hex sha256 of schedule_to_json(self), computed once per object."""
        return hashlib.sha256(schedule_to_json(self).encode()).hexdigest()


def _replica_name(rid: int) -> str:
    return "server" if rid == SERVER_ID else f"c{rid}"


def _replica_id(name: object) -> int:
    """Only names that _replica_name writes: c0, c01 or a non-ASCII digit would be written back as another."""
    if name == "server":
        return SERVER_ID
    if isinstance(name, str) and name[1:].isdecimal() and _replica_name(int(name[1:])) == name:
        return int(name[1:])
    raise ScheduleError(f"unknown replica name {name!r}")


def _whole(value: object, least: int, what: str) -> int:
    """An integer >= least; booleans are not integers here."""
    if type(value) is not int or value < least:
        raise ScheduleError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScheduleError(f"{what} must be a JSON object, got {value!r}")
    return value


def schedule_to_json(schedule: Schedule) -> str:
    steps = []
    for s in schedule.steps:
        if isinstance(s, GenerateStep):
            op: Dict[str, object] = {"kind": s.op.kind}
            if s.op.glyph is not None:
                op["glyph"] = s.op.glyph
            if s.op.pos is not None:
                op["pos"] = s.op.pos
            steps.append({"type": "generate", "cid": s.cid, "op": op})
        else:
            steps.append(
                {"type": "deliver", "to": _replica_name(s.to), "from": _replica_name(s.frm)}
            )
    doc = {
        "format": SCHEDULE_FORMAT,
        "n_clients": schedule.n_clients,
        "priority_rule": PRIORITY_RULE,
        "steps": steps,
    }
    if schedule.prng is not None:
        doc["prng"] = list(schedule.prng)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def schedule_from_json(text: str) -> Schedule:
    """The schedule a document holds; ScheduleError if it is malformed.
    Equal deliveries and equal reads of one document are one object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"schedule is not valid JSON: {exc}") from exc
    doc = _object(doc, "a schedule document")
    if doc.get("format") != SCHEDULE_FORMAT:
        raise ScheduleError(f"unsupported schedule format {doc.get('format')!r}")
    try:
        steps: List[Step] = []
        for raw in doc.get("steps", []):
            raw = _object(raw, "a step")
            if raw.get("type") == "generate":
                op = _object(raw.get("op", {}), "an op")
                pos = op.get("pos")
                glyph = op.get("glyph")
                if glyph is not None and not isinstance(glyph, str):
                    raise ScheduleError(f"glyph must be a string, got {glyph!r}")
                steps.append(
                    GenerateStep(
                        _whole(raw["cid"], 1, "cid"),
                        OpSpec(op["kind"], glyph, None if pos is None else _whole(pos, 0, "pos")),
                    )
                )
            elif raw.get("type") == "deliver":
                steps.append(DeliverStep(_replica_id(raw["to"]), _replica_id(raw["from"])))
            else:
                raise ScheduleError(f"unknown step type {raw.get('type')!r}")
        if doc.get("priority_rule", PRIORITY_RULE) != PRIORITY_RULE:
            raise ScheduleError(f"priority_rule must be {PRIORITY_RULE!r}, got {doc['priority_rule']!r}")
        prng = doc.get("prng")
        if "prng" in doc:
            if type(prng) is not list or len(prng) != 2 or type(prng[0]) is not str:
                raise ScheduleError(f"prng must be [generator name, seed], got {prng!r}")
            prng = (prng[0], _whole(prng[1], 0, "prng seed"))
        return Schedule(_whole(doc["n_clients"], 1, "n_clients"), _shared(steps), prng)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScheduleError):
            raise
        raise ScheduleError(f"malformed schedule document: {exc}") from exc


# --------------------------------------------------------------------------
# Trace model


class OpRecord(NamedTuple):
    kind: str
    oid: Optional[str] = None
    element: Optional[Element] = None
    pos: Optional[int] = None


class TraceEvent(NamedTuple):
    """A traced event. Its index field hides tuple.index; nothing calls that."""

    index: int
    replica: int
    kind: str  # "do" | "send" | "receive"
    vclock: Tuple[int, ...]
    op: Optional[OpRecord] = None
    value: Optional[ListState] = None  # the replica's own state, shared, not copied
    msg_id: Optional[str] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    ot_seq: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class Trace:
    protocol: str
    n_clients: int
    schedule_sha256: str
    events: Tuple[TraceEvent, ...]
    prng: Optional[Tuple[str, int]] = None


def _peer_name(rid: int) -> str:
    return "broadcast" if rid == BROADCAST else _replica_name(rid)


# A trace event's members in key order; an absent member is "".
_EVENT = '{%s"i":%d,"kind":"%s"%s%s%s,"replica":%d%s%s,"vc":[%s]}'


def trace_to_json(trace: Trace) -> str:
    """Canonical trace JSON: compact, every object's keys in sorted order.

    It writes the traces that run() makes, whose event members are of
    these types; a hand-built trace must use them too:
    - index and replica: int; kind: "do", "send" or "receive";
    - vclock: a tuple of ints;
    - op: an OpRecord of (str, str or None, Element or None, int or
      None), or None;
    - value: a tuple of Elements, or None;
    - msg_id: a str or None;
    - src and dst: ids of the trace's replicas, BROADCAST for the
      broadcast, or None;
    - ot_seq: a tuple of str, or None.

    Each event is written by one template that holds its members in key
    order. Each element's array, each list's "text" and "value" members
    and each op record's object are made once per call, keyed by
    identity: reads and replicas that did not change share one list.
    Only the header goes through json.dumps."""
    head = json.dumps({
        "format": TRACE_FORMAT,
        "n_clients": trace.n_clients,
        "priority_rule": PRIORITY_RULE,
        "prng": list(trace.prng) if trace.prng else None,
        "protocol": trace.protocol,
        "schedule_sha256": trace.schedule_sha256,
    }, sort_keys=True, separators=(",", ":"))[1:]
    lit = encode_basestring_ascii
    peers = {rid: lit(_peer_name(rid)) for rid in range(BROADCAST, trace.n_clients + 1)}
    arrays: Dict[int, str] = {}  # id of an element -> its array
    lists: Dict[int, str] = {}  # id of a list -> its "text" and "value" members
    ops: Dict[int, str] = {}  # id of an op record -> its "op" member

    def element(x: Element) -> str:
        if id(x) not in arrays:
            arrays[id(x)] = "[%s,%d,%d]" % (lit(x[0]), x[1], x[2])
        return arrays[id(x)]

    # All clocks written at once: a list of lists of ints prints as its
    # JSON with spaces, and "],[" is where one clock ends and the next
    # begins.
    events = trace.events
    vclocks = str([list(e[3]) for e in events]).replace(" ", "")[2:-2].split("],[")
    out = []
    for (i, replica, kind, _, op, value, msg_id, src, dst, ot_seq), vc in zip(events, vclocks):
        if op is not None:
            x = ops.get(id(op))
            if x is None:
                okind, oid, el, pos = op
                x = ops[id(op)] = ',"op":{%s"kind":%s%s%s}' % (
                    "" if el is None else '"element":%s,' % element(el),
                    lit(okind),
                    "" if oid is None else ',"oid":' + lit(oid),
                    "" if pos is None else ',"pos":%d' % pos,
                )
            op = x
        if value is not None:
            x = lists.get(id(value))
            if x is None:
                try:
                    body = ",".join(map(arrays.__getitem__, map(id, value)))
                except KeyError:  # an element not written yet
                    body = ",".join(map(element, value))
                x = lists[id(value)] = ',"text":%s,"value":[%s]' % (lit(to_text(value)), body)
            value = x
        out.append(_EVENT % (
            "" if dst is None else '"dst":%s,' % peers[dst],
            i,
            kind,
            "" if msg_id is None else ',"msg":' + lit(msg_id),
            op or "",
            "" if ot_seq is None else ',"ot_seq":[%s]' % ",".join(map(lit, ot_seq)),
            replica,
            "" if src is None else ',"src":' + peers[src],
            value or "",
            vc,
        ))
    return '{"events":[%s],%s' % (",".join(out), head)


def bit_positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def causal_masks(events: Sequence) -> List[int]:
    """For the event at each position b, the bitset of the positions a with
    events[a].vclock < events[b].vclock.

    a.vclock <= b.vclock componentwise exactly when, for every component
    k, a lies in the prefix of the events sorted by component k that ends
    with the events whose k-th value equals b's. So le[b], the bitset of
    those a, is the AND over k of one prefix mask each, and a.vclock <
    b.vclock when in addition the two clocks differ. That costs
    O(n H log H) big-int operations for H events of n components, not H²
    compares. Raises ProtocolError if the clocks differ in length."""
    clocks = [e.vclock for e in events]
    if len(set(map(len, clocks))) > 1:
        raise ProtocolError("vector clocks of different lengths")
    le = [(1 << len(clocks)) - 1] * len(clocks)
    for column in zip(*clocks):
        upto: Dict[int, int] = {}  # value -> bitset of the events with that value, then at most it
        for p, v in enumerate(column):
            upto[v] = upto.get(v, 0) | 1 << p
        prefix = 0
        for v in sorted(upto):
            prefix = upto[v] = prefix | upto[v]
        le = [m & upto[v] for m, v in zip(le, column)]
    same: Dict[Tuple[int, ...], int] = {}
    for p, c in enumerate(clocks):
        same[c] = same.get(c, 0) | 1 << p
    return [m & ~same[c] for m, c in zip(le, clocks)]


def check_fifo(trace: Trace) -> None:
    """Per point-to-point channel, receive order must equal send order."""
    sent: Dict[Tuple[int, int], List[str]] = {}
    received: Dict[Tuple[int, int], List[str]] = {}
    for e in trace.events:
        if e.kind == "send":
            sent.setdefault((e.src, e.dst), []).append(e.msg_id)
        elif e.kind == "receive":
            received.setdefault((e.src, e.dst), []).append(e.msg_id)
    for chan, got in received.items():
        if BROADCAST in chan:
            continue
        want = sent.get(chan, [])[: len(got)]
        if got != want:
            raise ProtocolError(f"FIFO violation on channel {chan}: {got} vs {want}")


# --------------------------------------------------------------------------
# Engine


@dataclass
class RunResult:
    protocol: str
    schedule: Schedule
    trace: Trace
    final_values: Dict[int, ListState]
    arrival_log: Tuple[Oid, ...]
    quiescent: bool
    # cjupiter / djupiter artifacts; each *_steps is a StepHistory, or () without step snapshots
    css_final: Dict[int, CssSnapshot] = field(default_factory=dict)
    css_server_steps: Sequence[CssSnapshot] = ()
    css_client_steps: Dict[int, Sequence[CssSnapshot]] = field(default_factory=dict)
    # jupiter artifacts: 2D snapshots
    cscw_client_final: Dict[int, CssSnapshot] = field(default_factory=dict)
    cscw_server_final: Dict[int, CssSnapshot] = field(default_factory=dict)
    cscw_client_steps: Dict[int, Sequence[CssSnapshot]] = field(default_factory=dict)


class Simulation:
    """One protocol's replicas and their reliable FIFO channels: one up-queue
    and one down-queue per client, all through replica 0. Under djupiter
    replica 0 is the broadcast Sequencer, so the channels are the same.
    Every replica's space shares the run's one OidIndex: bit k is the k-th
    oid generated, so the index follows from the schedule alone.

    step() runs one schedule step and logs it; the log holds only
    references to immutable values, and events() turns it into trace
    events with vector clocks in one pass.
    """

    def __init__(self, protocol: str, n_clients: int):
        if protocol not in PROTOCOLS:
            raise ScheduleError(f"unknown protocol {protocol!r}")
        if n_clients < 1:
            raise ScheduleError("need at least one client")
        self.n_clients = n_clients
        self.index = OidIndex()
        if protocol == "cjupiter":
            self.hub, client = CJServer(n_clients, self.index), CJClient
        elif protocol == "jupiter":
            self.hub, client = JServer(n_clients, self.index), CJClient
        else:
            self.hub, client = Sequencer(n_clients), DJReplica
        # The peer at the other end of every client channel, as traced.
        self.hub_id = BROADCAST if protocol == "djupiter" else SERVER_ID
        self.clients = {c: client(c, self.index) for c in range(1, n_clients + 1)}
        self.up = {c: collections.deque() for c in self.clients}
        self.down = {c: collections.deque() for c in self.clients}
        self.log: List[tuple] = []
        self.messages = 0

    def quiescent(self) -> bool:
        return not any(self.up.values()) and not any(self.down.values())

    def _send(self, rid: int, dst: int) -> int:
        self.messages += 1
        self.log.append(("send", rid, self.messages, dst))
        return self.messages

    def step(self, step: Step, i: int) -> None:
        """Run step `i` of a schedule; raises ScheduleError if the step
        cannot run."""
        if isinstance(step, GenerateStep):
            cid, spec = step.cid, step.op
            if cid not in self.clients:
                raise ScheduleError(f"step {i}: generate at unknown client c{cid}")
            client = self.clients[cid]
            if spec.kind == "read":
                self.log.append(("do", cid, None, client.state))
                return
            if spec.kind not in ("ins", "del"):
                raise ScheduleError(f"step {i}: unknown op kind {spec.kind!r}")
            if not isinstance(spec.pos, int) or spec.pos < 0:
                raise ScheduleError(f"step {i}: {spec.kind} needs a non-negative position")
            # An ins may go at the end of the list, a del must name an element.
            n = len(client.state)
            if spec.pos > n or spec.kind == "del" and spec.pos == n:
                raise ScheduleError(
                    f"step {i}: {spec.kind} at position {spec.pos} is out of range for c{cid}'s list of length {n}"
                )
            if spec.kind == "ins":
                if spec.glyph is None:
                    raise ScheduleError(f"step {i}: ins needs a glyph")
                o = client.make_ins(spec.glyph, spec.pos)
            else:
                o = ListOp.del_(spec.pos)
            op = client.do(o)
            self.log.append(("do", cid, op, client.state))
            self.up[cid].append((self._send(cid, self.hub_id), op))
            return
        to, frm = step.to, step.frm
        if to == SERVER_ID and frm in self.up:
            queue = self.up[frm]
        elif frm == SERVER_ID and to in self.down:
            queue = self.down[to]
        else:
            raise ScheduleError(f"step {i}: bad delivery {step}")
        if not queue:
            raise ScheduleError(
                f"step {i}: delivery to {_replica_name(to)} from an empty channel"
            )
        msg, op = queue.popleft()
        if to != SERVER_ID:
            result = self.clients[to].receive(op)
            self.log.append(("receive", to, msg, self.hub_id, op.oid, result))
            return
        result = self.hub.receive(op)
        if self.hub_id == BROADCAST:
            # The sequencer relays the original message and records nothing.
            for dst, payload in result.fanout:
                self.down[dst].append((msg, payload))
        else:
            self.log.append(("receive", SERVER_ID, msg, frm, op.oid, result))
            for dst, payload in result.fanout:
                self.down[dst].append((self._send(SERVER_ID, dst), payload))

    def events(self) -> Tuple[TraceEvent, ...]:
        """The log as trace events. Every event ticks its replica's own
        clock component; a receive takes the componentwise maximum with the
        clock of the message's send event. Each replica's clock is a list
        ticked in place, and each event's clock is the one tuple made from
        it. Each oid's token is formatted once; every read shares one
        record, and so do the events that apply one ListOp. The records
        check nothing, so they are built by tuple.__new__, with no Python
        frame per event."""
        width = self.n_clients + 1
        clocks = [[0] * width for _ in range(width)]  # per replica
        sent: Dict[int, Tuple[Tuple[int, ...], str]] = {}  # message -> its send's clock and name
        tokens = {o: o.token() for o in self.index.oids}
        read = OpRecord("read")
        records: Dict[int, OpRecord] = {}  # id of a logged ListOp -> its record
        events: List[TraceEvent] = []
        for entry in self.log:
            kind, rid = entry[0], entry[1]
            own = clocks[rid]
            own[rid] += 1
            o = value = name = src = dst = ot_seq = None
            if kind == "receive":
                their, name = sent[entry[2]]
                # their[rid] < own[rid], so the maximum keeps the tick.
                for k, t in enumerate(their):
                    if t > own[k]:
                        own[k] = t
            clock = tuple(own)
            record = read if kind == "do" else None
            if kind == "send":
                _, _, msg, dst = entry
                name, src = f"m{msg}", rid
                sent[msg] = (clock, name)
            elif kind == "do":
                _, _, op, value = entry
                if op is not None:
                    oid, o = op.oid, op.o
            else:
                _, _, _, src, oid, result = entry
                o, value, dst = result.applied.o, result.value, rid
                ot_seq = tuple(map(tokens.__getitem__, result.ot_seq))
            if o is not None:
                token = tokens[oid]
                record = records.get(id(o))
                if record is None or record[1] is not token:
                    record = records[id(o)] = _tuple_new(OpRecord, (o.kind._value_, token, o.element, o.position))
            events.append(_tuple_new(TraceEvent, (len(events), rid, kind, clock, record, value, name, src, dst, ot_seq)))
        return tuple(events)


def run(protocol: str, schedule: Schedule, record_snapshots: bool = True) -> RunResult:
    """Replay a schedule under a protocol; deterministic in its arguments.
    Raises ScheduleError at the first step that cannot run. With
    record_snapshots, the result carries each recorded space's history:
    its snapshot before the first step and after every step that changed it."""
    sim = Simulation(protocol, schedule.n_clients)
    for i, step in enumerate(schedule.steps):
        sim.step(step, i)

    trace = Trace(
        protocol=protocol,
        n_clients=schedule.n_clients,
        schedule_sha256=schedule.sha256,
        events=sim.events(),
        prng=schedule.prng,
    )
    holders = {SERVER_ID: sim.hub} if protocol != "djupiter" else {}
    holders.update(sim.clients)
    result = RunResult(
        protocol=protocol,
        schedule=schedule,
        trace=trace,
        final_values={rid: r.state for rid, r in holders.items()},
        arrival_log=tuple(sim.hub.arrival_log),
        quiescent=sim.quiescent(),
    )
    spaces = {rid: r.space for rid, r in holders.items() if rid != SERVER_ID or protocol == "cjupiter"}
    finals = {rid: space.snapshot() for rid, space in spaces.items()}
    steps = {rid: StepHistory(finals[rid], s.marks) if record_snapshots else () for rid, s in spaces.items()}
    client_steps = {c: steps[c] for c in sim.clients}
    if protocol == "jupiter":
        result.cscw_client_final = finals
        result.cscw_server_final = {c: s.snapshot() for c, s in sim.hub.spaces.items()}
        result.cscw_client_steps = client_steps
    else:
        result.css_final = finals
        result.css_server_steps = steps.get(SERVER_ID, ())
        result.css_client_steps = client_steps
    return result


# --------------------------------------------------------------------------
# Schedule generation


class _BufferEnd:
    """One end of a client-server link: the messages it sent and received,
    its channel of messages (op, count received from the other end) in
    flight, its sent ops that the other end has not acknowledged, as
    (own message number, op) transformed up to this end's list, and the
    one DeliverStep that takes its channel's next message."""

    __slots__ = ("sent", "received", "buffer", "channel", "delivery")

    def __init__(self, to: int, frm: int) -> None:
        self.sent, self.received, self.buffer, self.channel = 0, 0, [], collections.deque()
        self.delivery = DeliverStep(to, frm)

    def send(self, o: ListOp) -> None:
        self.sent += 1
        self.buffer.append((self.sent, o))
        self.channel.append((o, self.received))

    def receive(self, peer: "_BufferEnd") -> ListOp:
        """The peer's next op, transformed against the ops it has not
        acknowledged as CssSpace.xform pairs them: o' = transform(o, b) and
        b' = transform(b, o)."""
        o, acked = peer.channel.popleft()
        self.received += 1
        buffer = []
        for k, b in self.buffer:
            if k > acked:
                buffer.append((k, transform(b, o)))
                o = transform(o, b)
        self.buffer = buffer
        return o


class BufferJupiter:
    """Jupiter over 1D buffers (Nichols, Curtis, Dixon & Lamping, UIST
    1995) on ot_core alone, with the lists that a jupiter replay of the
    same steps keeps. Client c and the server each hold one _BufferEnd of
    their link. It checks no step: it runs valid schedules whose inserts
    carry glyphs."""

    def __init__(self, n_clients: int):
        if n_clients < 1:
            raise ScheduleError("need at least one client")
        self.lists: List[ListState] = [()] * (n_clients + 1)  # by replica id
        self.links = {  # (client's end, server's end)
            c: (_BufferEnd(SERVER_ID, c), _BufferEnd(c, SERVER_ID)) for c in range(1, n_clients + 1)
        }

    def enabled(self) -> List[DeliverStep]:
        """The deliveries that can run now: per client in id order, its
        up-channel then its down-channel. Generators index into this list,
        so the order is part of every seeded schedule. Each is the one
        step its channel's end holds."""
        return [end.delivery for link in self.links.values() for end in link if end.channel]

    def step(self, step: Step) -> int:
        """Run one step: apply its op at the replica it runs at, whose id
        it returns, and send the op on."""
        if isinstance(step, GenerateStep):
            rid, spec = step.cid, step.op
            if spec.kind == "read":
                return rid
            own = self.links[rid][0]
            if spec.kind == "ins":
                o = ListOp.ins(Element(spec.glyph, rid, own.sent + 1), spec.pos)
            else:
                o = _fill_del(ListOp.del_(spec.pos), self.lists[rid])
            ends = [own]
        elif step.to != SERVER_ID:
            rid, (client, server) = step.to, self.links[step.to]
            o, ends = client.receive(server), []
        else:
            rid, (client, server) = SERVER_ID, self.links[step.frm]
            o = server.receive(client)
            ends = [other for c, (_, other) in self.links.items() if c != step.frm]
        self.lists[rid] = apply(self.lists[rid], o)
        for end in ends:
            end.send(o)
        return rid


def random_schedule(
    n_clients: int,
    n_updates: int,
    seed: int,
    read_probability: float = 0.15,
) -> Schedule:
    """Seeded-deterministic schedule: updates with in-range positions,
    arbitrary FIFO-respecting interleaving, full drain, and final reads.

    Each drawn step runs on a BufferJupiter, which tracks every client's
    list so that a deletion always targets an existing element. Its lists
    are those of a jupiter replay, and so of cjupiter and djupiter ones
    (the equivalence check_equivalence tests), so the draws depend on
    ot_core alone and on none of the three protocols' replays. Every
    delivery is the one step of its channel direction that the
    BufferJupiter holds, and every read the one read step of its client.
    """
    if n_updates < 0:
        raise ScheduleError("updates cannot be negative")
    # random.Random(-s) draws what Random(s) draws.
    _whole(seed, 0, "seed")
    sim = BufferJupiter(n_clients)
    read = OpSpec("read")
    reads = {c: GenerateStep(c, read) for c in range(1, n_clients + 1)}  # one read step per client
    rng = random.Random(seed)
    steps: List[Step] = []
    generated = 0
    glyphs = 0
    while True:
        actions: List[object] = sim.enabled()
        if generated < n_updates:
            actions += ["generate", "generate"]
        if not actions:
            break
        if rng.random() < read_probability:
            # Reads change no state, so they need not run here.
            steps.append(reads[rng.randint(1, n_clients)])
        act = rng.choice(actions)
        if act == "generate":
            cid = rng.randint(1, n_clients)
            length = len(sim.lists[cid])
            if length > 0 and rng.random() < 0.4:
                spec = OpSpec("del", pos=rng.randint(0, length - 1))
            else:
                spec = OpSpec("ins", glyph=GLYPH_POOL[glyphs % len(GLYPH_POOL)], pos=rng.randint(0, length))
                glyphs += 1
            act = GenerateStep(cid, spec)
            generated += 1
        steps.append(act)
        sim.step(act)

    steps += reads.values()
    return Schedule(n_clients, tuple(steps), prng=(PRNG_NAME, seed))


def podc16_schedule() -> Schedule:
    """The golden four-operation scenario: one insert seen everywhere, then
    three concurrent updates serialized by the server in a fixed order."""
    steps: Tuple[Step, ...] = (
        GenerateStep(1, OpSpec("ins", glyph="x", pos=0)),  # o1
        DeliverStep(SERVER_ID, 1),
        DeliverStep(2, SERVER_ID),
        DeliverStep(3, SERVER_ID),
        GenerateStep(1, OpSpec("del", pos=0)),  # o2
        GenerateStep(2, OpSpec("ins", glyph="a", pos=0)),  # o3
        GenerateStep(3, OpSpec("ins", glyph="b", pos=1)),  # o4
        DeliverStep(SERVER_ID, 1),
        DeliverStep(SERVER_ID, 2),
        DeliverStep(SERVER_ID, 3),
        DeliverStep(2, SERVER_ID),  # o2 at c2
        DeliverStep(3, SERVER_ID),  # o2 at c3
        DeliverStep(1, SERVER_ID),  # o3 at c1
        DeliverStep(2, SERVER_ID),  # o4 at c2
        DeliverStep(3, SERVER_ID),  # o3 at c3
        DeliverStep(1, SERVER_ID),  # o4 at c1
        GenerateStep(1, OpSpec("read")),
        GenerateStep(2, OpSpec("read")),
        GenerateStep(3, OpSpec("read")),
    )
    return Schedule(3, _shared(steps))
