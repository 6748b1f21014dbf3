"""Read admission and demand/state transfer.

One of the four protocol components behind the
:class:`~repro.replication.engine.StoreReplicationObject` façade.  This
component admits reads (serving them when the replica is fresh enough,
parking them otherwise), alone decides what to *demand* (catch-up) from
the parent, for a parked read or a replica the engine reports outdated,
installs the full/partial/log-suffix state transfers that come back, and
serves the downstream side of the same exchange.

Served reads share the **reply table** ``replies``: per invocation, the
reply (involved keys, served version, frozen body, size) the first serve
built at the current replica state.  Errors, reads past upstream-absent
keys and pull+immediate stores never enter it; ``apply_records``,
``_on_invalidate``, ``restore``, ``apply_delta`` and both installs drop it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Collection, Dict, List, Optional, Sequence, Set

from repro.coherence.records import WriteRecord
from repro.coherence.vector_clock import VectorClock
from repro.comm.invocation import MarshalledInvocation, decode_invocation
from repro.comm.message import Message, envelope_cost, estimate_size
from repro.obs import tracer as _obs
from repro.replication import messages as mk
from repro.replication.policy import (
    AccessTransfer,
    CoherenceTransfer,
    OutdateReaction,
)
from repro.sim.future import Future

#: The at-least-once envelope of one catch-up demand, and the pause
#: before re-demanding for reads a failed or insufficient round left
#: blocked (seconds).
DEMAND_TIMEOUT = 2.0
DEMAND_RETRIES = 20
DEMAND_RETRY_INTERVAL = 0.25


@dataclasses.dataclass(slots=True)
class WaitingRead:
    """A read held back until the replica can serve it."""

    src: str
    request: Message
    invocation: MarshalledInvocation
    client_id: str
    requirement: VectorClock
    involved: Sequence[str]
    #: Identical cohort clients this one request stands in for (weighted
    #: trace/metric accounting; 1 for an ordinary client read).
    weight: int = 1
    #: Reply-table key (the invocation itself); ``None``: the table never
    #: answers this read.
    key: Optional[MarshalledInvocation] = None
    #: Keys upstream reported absent; treated as present-and-missing so the
    #: semantics object produces the authoritative not-found error.
    absent: Set[str] = dataclasses.field(default_factory=set)


class ReadDemandPath:
    """Read-admission + demand/state-transfer component of one store."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.waiting: List[WaitingRead] = []
        self.replies: Dict[MarshalledInvocation, tuple] = {}  # reply table
        self._demand_inflight = False
        self._demand_again = False

    # -- read admission -------------------------------------------------------

    def on_read(self, src: str, message: Message) -> None:
        """A client asked for a read: serve it now, or park it.

        Under pull+immediate every read parks until a pull returns;
        otherwise a read the replica can serve is answered at once, and
        only one it cannot serve becomes a :class:`WaitingRead`.
        """
        engine = self.engine
        body = message.body
        invocation = decode_invocation(body["invocation"])
        session = body.get("session", {})
        client_id = session.get("client_id", "anonymous")
        requirement = session.get("requirement") or {}
        weight = int(body.get("weight", 1))
        pull = engine.pull_on_access
        key = None if pull else invocation
        try:
            reply = self.replies.get(key)
        except TypeError:  # unhashable argument values are never tabled
            key = reply = None
        if reply is None or requirement and not reply[1].dominates(
                VectorClock(requirement)):
            reply = None
            involved = tuple(engine.control.touched_keys(invocation))
            served = None if pull else self.admissible(
                involved, VectorClock(requirement))
        else:
            involved, served = reply[0], reply[1]
        if _obs.ACTIVE is not None:
            detail = dict(
                node=engine.address,
                obj=involved[0] if involved else None,
                decision=(
                    "pull-first" if pull
                    else "park" if served is None else "serve"
                ),
                client=client_id, strategy=engine.strategy_label,
            )
            if weight != 1:
                # Stamped only for cohort reads so per-client traffic keeps
                # its historical (golden-pinned) trace shape.
                detail["weight"] = weight
            _obs.ACTIVE.event(engine.clock.now, "repl.read", **detail)
        if served is not None:
            self.serve(src, message, invocation, client_id, requirement,
                       weight, served, involved, key, reply)
            return
        entry = WaitingRead(src, message, invocation, client_id,
                            VectorClock(requirement), involved, weight, key)
        self.waiting.append(entry)
        need = (None, None) if pull else self._need(entry)
        if need is not None:
            self.demand(*need)

    def _need(self, entry: WaitingRead) -> Optional[tuple]:
        """The :meth:`demand` arguments that would help a parked read.

        ``None``: it waits for a push.  Missing or invalid content is always
        fetched, a pure session gap only under the ``demand`` client reaction.
        """
        engine = self.engine
        keys = self.keys_needing_fetch(entry.involved, entry.absent)
        if keys:
            full = engine.policy.access_transfer is AccessTransfer.FULL
            return (None, True) if full else (keys, False)
        if engine.policy.client_outdate_reaction is OutdateReaction.WAIT:
            return None
        return None if engine.parent is None else (None, None)

    def keys_needing_fetch(
        self, involved: Sequence[str], absent: Collection[str] = ()
    ) -> List[str]:
        """Keys of ``involved`` whose content must be fetched to serve.

        Keys in ``absent`` are excluded: upstream said they do not exist.
        """
        engine = self.engine
        if engine.parent is None:
            # The primary is authoritative: a key it lacks does not exist,
            # so the read proceeds and fails with the semantics error.
            return []
        if absent:
            involved = [k for k in involved if k not in absent]
        missing = engine.control.missing_keys(involved)
        invalid = engine.invalid_keys
        if not missing and not invalid:
            # The overwhelmingly common case on a warm replica: nothing
            # to fetch, so skip the set algebra and its allocations.
            return []
        return sorted(set(missing) | (invalid & set(involved)))

    def served_version(self, involved: Sequence[str]) -> VectorClock:
        """The version vector a read over ``involved`` would observe."""
        engine = self.engine
        version = engine.ordering.applied.copy()
        for key in involved:
            if key in engine.as_of:
                version.merge(engine.as_of[key])
        return version

    def admissible(
        self, involved: Sequence[str], requirement: VectorClock,
        absent: Collection[str] = (),
    ) -> Optional[VectorClock]:
        """The version a read over ``involved`` is served at now, or ``None``.

        ``None`` when content must be fetched first, or when the replica
        is behind the read's session ``requirement``.
        """
        if self.keys_needing_fetch(involved, absent):
            return None
        served = self.served_version(involved)
        return served if served.dominates(requirement) else None

    def serve(
        self, src: str, request: Message, invocation: MarshalledInvocation,
        client_id: str, requirement: Dict[str, int], weight: int,
        served: VectorClock, involved: Sequence[str],
        key: Optional[MarshalledInvocation],
        reply: Optional[tuple] = None,
    ) -> None:
        """Answer an admitted read from its table ``reply`` (built if None)."""
        engine = self.engine
        if reply is None:
            try:
                result = engine.control.apply_local(invocation)
            except Exception as exc:
                engine.counters["tx:error"] += 1
                engine.comm.reply(
                    src, request.reply(mk.ERROR, {"error": str(exc)})
                )
                return
            # One dict per distinct version, shared with the trace's
            # stamps: a reply's version is never mutated.
            version = (served.as_dict() if engine.trace is None
                       else engine.trace.stamp(served)[1])
            body = {"result": result, "version": version,
                    "store": engine.address}
            reply = (involved, served, body,
                     envelope_cost(mk.READ_REPLY) + estimate_size(body))
            if key is not None:
                self.replies[key] = reply
        body = reply[2]
        if engine.trace is not None:
            engine.trace.record_read(
                time=engine.clock.now,
                store=engine.address,
                client_id=client_id,
                served_vc=body["version"],
                requirement=requirement,
                weight=weight,
            )
        engine.counters["tx:read_reply"] += 1
        message = Message(mk.READ_REPLY, body, reply_to=request.msg_id)
        message._size = reply[3]
        engine.comm.reply(src, message)

    def serve_waiting(self) -> None:
        """Serve every parked read the (possibly fresher) replica can."""
        still_waiting: List[WaitingRead] = []
        for entry in self.waiting:
            served = self.admissible(entry.involved, entry.requirement,
                                     entry.absent)
            if served is None:
                still_waiting.append(entry)
            else:  # past absent keys, a reply is not the state's alone
                self.serve(entry.src, entry.request, entry.invocation,
                           entry.client_id, entry.requirement.as_dict(),
                           entry.weight, served, entry.involved,
                           None if entry.absent else entry.key,
                           self.replies.get(entry.key))
        self.waiting = still_waiting

    # -- demand / catch-up ----------------------------------------------------

    def demand(
        self,
        keys: Optional[Sequence[str]] = None,
        want_full: Optional[bool] = None,
    ) -> None:
        """Request catch-up from the parent (the ``demand`` outdate reaction).

        ``keys`` asks for specific page content (access transfer on a miss
        or invalidation); otherwise the parent sends the log suffix or a
        snapshot, per the coherence transfer type.
        """
        engine = self.engine
        if engine.parent is None:
            return
        if self._demand_inflight:
            self._demand_again = True
            return
        if want_full is None:
            want_full = (
                engine.policy.coherence_transfer is CoherenceTransfer.FULL
                if keys is None
                else engine.policy.access_transfer is AccessTransfer.FULL
            )
        self._demand_inflight = True
        body = {
            "have": engine.ordering.applied.as_dict(),
            "want_full": bool(want_full),
            "keys": list(keys) if keys and not want_full else None,
        }
        engine.counters["tx:demand"] += 1
        # Timeout + retries make demands survive a lossy transport: a lost
        # demand (or reply) would otherwise wedge the inflight flag forever.
        future = engine.comm.request(
            engine.parent,
            Message(mk.DEMAND, body),
            timeout=DEMAND_TIMEOUT,
            retries=DEMAND_RETRIES,
        )
        future.add_callback(self._on_demand_reply)

    def _on_demand_reply(self, resolved: Future) -> None:
        engine = self.engine
        self._demand_inflight = False
        try:
            reply = resolved.result()
        except BaseException:
            engine.clock.schedule(DEMAND_RETRY_INTERVAL, self._retry)
            return
        body = reply.body
        if body.get("full"):
            self.install_snapshot(body)
            # A full snapshot is authoritative about non-existence: any
            # involved key it lacks is absent, so blocked reads can fail
            # with the semantics error instead of re-demanding forever.
            state_keys = set(body.get("state", {}))
            for entry in self.waiting:
                entry.absent.update(set(entry.involved) - state_keys)
        elif body.get("partial"):
            self.install_partial(body)
        else:
            records = [
                WriteRecord.from_wire(w) for w in body.get("records", ())
            ]
            engine.ingest_records(records, skip=engine.parent)
        self.serve_waiting()
        if self._demand_again:
            # What was asked for in flight: a parked read's keys first.
            self._demand_again = False
            if not self._retry():
                self.demand()
        elif any(self._need(entry) is not None for entry in self.waiting):
            engine.clock.schedule(DEMAND_RETRY_INTERVAL, self._retry)

    def _retry(self) -> bool:
        """Demand for the first parked read needing it; True if a round is out.

        No parked read is admissible, so none is re-checked: every state
        change that can admit one (``apply_records``, both installs, the
        ``absent`` marking above) ends in :meth:`serve_waiting`.  A
        pull-first read a failed round left parked may be; it pulls again.
        """
        if self._demand_inflight:
            return True
        for entry in self.waiting:
            need = self._need(entry)
            if need is not None:
                self.demand(*need)
                return True
        return False

    def outdated(self, keys: Optional[Collection[str]] = None) -> None:
        """The object-outdate reaction: demand (``keys``, if any), or wait."""
        if self.engine.policy.object_outdate_reaction is OutdateReaction.DEMAND:
            self.demand(keys=sorted(keys) if keys else None)

    # -- state-transfer installation ------------------------------------------

    def install_snapshot(self, body: Dict[str, Any]) -> None:
        """Install a full-state transfer, unless it would regress us."""
        engine = self.engine
        version = VectorClock(body["version"])
        if engine.ordering.applied.dominates(version) and (
            engine.ordering.applied != version
        ):
            return  # strictly newer locally: never regress
        if (version == engine.ordering.applied and engine.has_full_state
                and not engine.invalid_keys):
            return  # no-op refresh; an invalid page still needs the body
        self.replies = {}
        engine.control.semantics_restore(body["state"], partial=False)
        engine.has_full_state = True
        engine.ordering.install(version, body)
        engine.log = []
        engine.log_base = version.copy()
        engine.note_install(None)
        stamp = version.copy()
        engine.as_of = {
            key: stamp for key in engine.control.semantics_snapshot()
        }
        engine.invalid_keys.clear()
        if engine.trace is not None:
            engine.trace.record_install(
                engine.clock.now, engine.address, version.as_dict()
            )
        self.serve_waiting()

    def install_partial(self, body: Dict[str, Any]) -> None:
        """Install a partial (per-key) state transfer."""
        engine = self.engine
        state = body.get("state", {})
        as_of = VectorClock(body.get("as_of", {}))
        if state:
            self.replies = {}
            engine.control.semantics_restore(state, partial=True)
            engine.note_install(state)
            for key in state:
                engine.as_of[key] = as_of.copy()
                engine.invalid_keys.discard(key)
        absent = set(body.get("absent", ()))
        if absent:
            for entry in self.waiting:
                entry.absent.update(absent & set(entry.involved))
        self.serve_waiting()

    # -- the downstream-serving side ------------------------------------------

    def serve_demand(self, src: str, message: Message) -> None:
        """Serve a downstream catch-up request."""
        engine = self.engine
        have = VectorClock(message.body.get("have", {}))
        want_full = bool(message.body.get("want_full"))
        keys = message.body.get("keys")
        engine.counters["tx:demand_reply"] += 1
        if want_full or (not have.dominates(engine.log_base) and keys is None):
            body = dict(engine.emission.snapshot_body())
            body["full"] = True
            engine.comm.reply(src, message.reply(mk.DEMAND_REPLY, body))
            return
        if keys is not None:
            present = [
                k for k in keys if not engine.control.missing_keys([k])
            ]
            absent = [k for k in keys if k not in present]
            served = self.served_version(present)
            body = {
                "partial": True,
                "state": (
                    engine.control.semantics_snapshot(present)
                    if present else {}
                ),
                "as_of": served.as_dict(),
                "absent": absent,
            }
            engine.comm.reply(src, message.reply(mk.DEMAND_REPLY, body))
            return
        records = [
            record.to_wire()
            for record in engine.log
            if not have.includes(record.wid)
        ]
        engine.comm.reply(
            src, message.reply(mk.DEMAND_REPLY, {"records": records})
        )
