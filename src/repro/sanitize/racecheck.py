"""Dynamic happens-before race detection over the interpreter.

The interpreter executes parallel constructs *serialized* (thread by
thread, phase by phase), so a data race never corrupts simulated
results — which is exactly why a racy atomic-downgrade in the AD
thread-locality analysis would go unnoticed.  This module rebuilds the
logical concurrency structure with vector clocks and flags every pair
of conflicting accesses that is unordered by happens-before, FastTrack
style (per-cell last-access *epochs* with escalation to a shared read
map only when concurrent readers actually occur).

Clock edges modelled:

* ``parallel_for`` / ``fork`` — region begin forks child clocks off the
  parent; region end joins them all back (OpenMP's implied barrier);
* ``barrier`` (fork-region and worksharing-loop barriers) — all
  participants join to a common clock;
* ``spawn`` / ``task.wait`` — task begin forks a task clock, the wait
  joins it into the waiter;
* atomics — checked but never racing against other atomics (a
  ``via='lanes'`` accumulate is *not* atomic across threads);
* vector lanes — the lanes of one vectorised statement are concurrent:
  a plain vector store whose live lanes collide on a cell is reported
  as a write-write conflict of the op with itself;
* SimMPI — a send carries a snapshot of the sender's clock which the
  receiver joins when it observes completion (``recv`` or ``wait``);
  collectives join all participants like a barrier.

Thread ids are interned small integers; clocks are dense NumPy int64
vectors, so the per-access check is a handful of vectorized gathers and
compares even for wide SIMD accesses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..interp.memory import Buffer, CellClocks, PtrVal

#: Sentinel appended to extended clock vectors so that epoch thread id
#: ``-1`` ("no previous access") indexes it and always compares as
#: ordered-before everything.
_INF = np.int64(2 ** 62)


def _describe_op(op) -> str:
    """Render an access site: IR ops via the printer, engine-side
    accesses (MPI completions) via their string label."""
    if op is None:
        return "<unknown op>"
    if isinstance(op, str):
        return op
    try:
        from ..ir.printer import print_op
        return print_op(op)
    except Exception:
        return repr(op)


class RaceReport(Exception):
    """An unordered pair of conflicting accesses to one memory cell.

    Raised by the checker when ``raise_on_race`` is set; always appended
    to :attr:`RaceChecker.reports`.  Names both conflicting ops.
    """

    def __init__(self, kind: str, buffer: Buffer, index: int,
                 prev_op, prev_thread: str, op, thread: str) -> None:
        self.kind = kind                    # "write-write" | "read-write" | "write-read"
        self.buffer_name = buffer.name or f"#{buffer.bid}"
        self.buffer_id = buffer.bid
        self.index = int(index)
        self.prev_op = prev_op
        self.prev_thread = prev_thread
        self.op = op
        self.thread = thread
        super().__init__(self._describe())

    def _describe(self) -> str:
        return (
            f"{self.kind} race on buffer {self.buffer_name}"
            f"[{self.index}]:\n"
            f"  earlier access by {self.prev_thread}:\n"
            f"    {_describe_op(self.prev_op)}\n"
            f"  unordered access by {self.thread}:\n"
            f"    {_describe_op(self.op)}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "buffer": self.buffer_name,
            "index": self.index,
            "prev_thread": self.prev_thread,
            "prev_op": _describe_op(self.prev_op),
            "thread": self.thread,
            "op": _describe_op(self.op),
        }


class RaceChecker:
    """Vector-clock happens-before detector shared by one execution.

    One instance serves a whole run — a single :class:`~repro.interp.
    executor.Executor` or every rank of a :class:`~repro.parallel.mpi.
    SimMPI` engine (ranks share the checker so send/recv edges order
    cross-rank accesses).  Logical threads (main, parallel-region
    workers, tasks, MPI ranks, in-flight message deliveries) are
    interned as small integers; ``_vc[t][u]`` is the latest clock of
    ``u`` that ``t`` has synchronized with.
    """

    def __init__(self, raise_on_race: bool = True) -> None:
        self.raise_on_race = raise_on_race
        self.reports: list[RaceReport] = []
        self.accesses_checked = 0
        self._labels: list[str] = []
        self._vc: list[np.ndarray] = []

    # ------------------------------------------------------------------
    # Thread lifecycle / synchronization edges
    # ------------------------------------------------------------------
    def new_thread(self, label: str, parent: Optional[int] = None,
                   snapshot: Optional[np.ndarray] = None) -> int:
        """Intern a new logical thread, inheriting the parent's clock
        and/or an explicit clock snapshot (MPI message)."""
        tid = len(self._vc)
        vc = np.zeros(tid + 1, dtype=np.int64)
        if parent is not None:
            pv = self._vc[parent]
            vc[:len(pv)] = pv
        if snapshot is not None:
            np.maximum(vc[:len(snapshot)], snapshot, out=vc[:len(snapshot)])
        vc[tid] = 1
        self._vc.append(vc)
        self._labels.append(label)
        return tid

    def label(self, tid: int) -> str:
        return self._labels[tid] if 0 <= tid < len(self._labels) else "?"

    def _tick(self, tid: int) -> None:
        self._vc[tid][tid] += 1

    def _join_into(self, dst: int, src_vc: np.ndarray) -> None:
        v = self._vc[dst]
        if len(src_vc) > len(v):
            v = np.concatenate(
                [v, np.zeros(len(src_vc) - len(v), dtype=np.int64)])
            self._vc[dst] = v
        np.maximum(v[:len(src_vc)], src_vc, out=v[:len(src_vc)])

    def region_begin(self, parent: int, n: int, label: str = "worker"
                     ) -> list[int]:
        """Fork ``n`` children off ``parent`` (parallel_for / fork)."""
        self._tick(parent)
        return [self.new_thread(f"{label}#{i}", parent=parent)
                for i in range(n)]

    def region_end(self, parent: int, children: list[int]) -> None:
        """Join all children back into the parent (implied barrier)."""
        for c in children:
            self._join_into(parent, self._vc[c])
        self._tick(parent)

    def barrier(self, tids: list[int]) -> None:
        """All participants release and acquire a common clock."""
        n = len(self._vc)
        m = np.zeros(n, dtype=np.int64)
        for t in tids:
            v = self._vc[t]
            np.maximum(m[:len(v)], v, out=m[:len(v)])
        for t in tids:
            self._vc[t] = m.copy()
            self._tick(t)

    def task_begin(self, parent: int, label: str = "task") -> int:
        self._tick(parent)
        return self.new_thread(label, parent=parent)

    def task_join(self, waiter: int, task_tid: int) -> None:
        self._join_into(waiter, self._vc[task_tid])
        self._tick(waiter)

    def snapshot(self, tid: int) -> np.ndarray:
        """Release edge: tick then copy, e.g. onto an MPI message."""
        self._tick(tid)
        return self._vc[tid].copy()

    def join_snapshot(self, tid: int, snap: Optional[np.ndarray]) -> None:
        """Acquire edge: join a clock snapshot (MPI receive)."""
        if snap is not None:
            self._join_into(tid, snap)
        self._tick(tid)

    # ------------------------------------------------------------------
    # Access checking
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(ptr: PtrVal, idx, mask: Optional[np.ndarray]
                 ) -> np.ndarray:
        at = np.asarray(ptr.resolve(idx))
        if mask is not None and (at.ndim > 0 or mask.ndim > 0):
            at = np.broadcast_to(at, np.broadcast_shapes(
                at.shape, mask.shape))[mask]
        return np.atleast_1d(at).astype(np.int64, copy=False).ravel()

    @staticmethod
    def _meta(buf: Buffer) -> CellClocks:
        meta = buf.shadow_meta
        if meta is None:
            meta = buf.shadow_meta = CellClocks(buf.count)
        return meta

    def _ext(self, tid: int) -> np.ndarray:
        """This thread's clock padded to all interned tids, with an
        ``_INF`` sentinel at index -1 so epoch tid -1 reads as ordered."""
        vc = self._vc[tid]
        n = len(self._vc)
        out = np.zeros(n + 1, dtype=np.int64)
        out[:len(vc)] = vc
        out[n] = _INF
        return out

    def _report(self, kind: str, buf: Buffer, index: int,
                prev_op, prev_tid: int, op, tid: int) -> None:
        rep = RaceReport(kind, buf, index, prev_op, self.label(prev_tid),
                         op, self.label(tid))
        self.reports.append(rep)
        if self.raise_on_race:
            raise rep

    def on_write(self, tid: int, ptr: PtrVal, idx, op,
                 mask: Optional[np.ndarray] = None,
                 atomic: bool = False, lanes: int = 0) -> None:
        """Check one write.  ``atomic`` orders it against other
        atomics.  ``lanes`` (plain vector stores only) is the width of
        the stored value: the lanes of one vector
        statement are concurrent, so a store that sends several of
        them to one cell is a write-write conflict of the op with
        itself.  Vector read-modify-writes combine colliding lanes and
        pass 0."""
        at = self._resolve(ptr, idx, mask)
        if at.size == 0:
            return
        self.accesses_checked += 1
        buf = ptr.buffer
        if lanes > 1:
            # ``at`` holds one cell per live lane, except for a uniform
            # index outside any mask: then every lane writes that cell.
            if at.size == 1 and mask is None:
                self._report("write-write", buf, at[0], op, tid, op, tid)
            elif at.size > 1:
                srt = np.sort(at)
                dup = srt[1:][srt[1:] == srt[:-1]]
                if dup.size:
                    self._report("write-write", buf, dup[0], op, tid,
                                 op, tid)
        meta = self._meta(buf)
        cu = self._ext(tid)
        # write-write: previous write epoch not ordered before us.
        pt = meta.w_tid[at]
        ww = meta.w_clk[at] > cu[pt]
        if atomic:
            ww &= ~meta.w_atomic[at]
        if ww.any():
            k = int(np.argmax(ww))
            self._report("write-write", buf, at[k],
                         meta.w_op[at[k]], int(pt[k]), op, tid)
        # read-write: previous read epoch not ordered before us.
        rt = meta.r_tid[at]
        rw = meta.r_clk[at] > cu[rt]
        if atomic:
            rw &= ~meta.r_atomic[at]
        if rw.any():
            k = int(np.argmax(rw))
            self._report("read-write", buf, at[k],
                         meta.r_op[at[k]], int(rt[k]), op, tid)
        if meta.shared:
            self._check_shared(meta, buf, at, cu, op, tid, atomic)
        # Record the new write epoch; a write subsumes prior reads.
        clk = self._vc[tid][tid]
        meta.w_tid[at] = tid
        meta.w_clk[at] = clk
        meta.w_atomic[at] = atomic
        meta.w_op[at] = op
        meta.r_tid[at] = -1
        meta.r_clk[at] = 0
        meta.r_atomic[at] = False
        meta.r_op[at] = None
        if meta.shared:
            for i in at:
                meta.shared.pop(int(i), None)

    def on_read(self, tid: int, ptr: PtrVal, idx, op,
                mask: Optional[np.ndarray] = None,
                atomic: bool = False) -> None:
        at = self._resolve(ptr, idx, mask)
        if at.size == 0:
            return
        self.accesses_checked += 1
        buf = ptr.buffer
        meta = self._meta(buf)
        cu = self._ext(tid)
        # write-read: previous write epoch not ordered before us.
        pt = meta.w_tid[at]
        wr = meta.w_clk[at] > cu[pt]
        if atomic:
            wr &= ~meta.w_atomic[at]
        if wr.any():
            k = int(np.argmax(wr))
            self._report("write-read", buf, at[k],
                         meta.w_op[at[k]], int(pt[k]), op, tid)
        # Update read epochs: replace when the previous read is ours or
        # ordered before us; otherwise escalate to the shared read map
        # (two genuinely concurrent readers — legal, but both must be
        # remembered for later write-vs-read checks).
        clk = self._vc[tid][tid]
        rt = meta.r_tid[at]
        replace = (rt == tid) | (meta.r_clk[at] <= cu[rt])
        esc = ~replace
        if esc.any():
            for k in np.flatnonzero(esc):
                i = int(at[k])
                entry = meta.shared.setdefault(i, {})
                entry[int(rt[k])] = (int(meta.r_clk[at[k]]),
                                     meta.r_op[at[k]],
                                     bool(meta.r_atomic[at[k]]))
                entry[tid] = (int(clk), op, atomic)
        upd = at[replace]
        meta.r_tid[upd] = tid
        meta.r_clk[upd] = clk
        meta.r_atomic[upd] = atomic
        meta.r_op[upd] = op
        if meta.shared:
            # Cells already escalated also remember this reader.
            for i in at:
                entry = meta.shared.get(int(i))
                if entry is not None:
                    entry[tid] = (int(clk), op, atomic)

    def _check_shared(self, meta: CellClocks, buf: Buffer,
                      at: np.ndarray, cu: np.ndarray, op, tid: int,
                      atomic: bool) -> None:
        """Writes must also be ordered after every escalated reader."""
        for i in at:
            entry = meta.shared.get(int(i))
            if not entry:
                continue
            for t2, (c2, op2, at2) in entry.items():
                if atomic and at2:
                    continue
                if t2 < len(cu) - 1 and c2 > int(cu[t2]):
                    self._report("read-write", buf, int(i), op2, t2, op, tid)
                    return

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "tool": "racecheck",
            "threads": list(self._labels),
            "accesses_checked": int(self.accesses_checked),
            "races": [r.to_dict() for r in self.reports],
        }
