// Crash-safe checkpointing for parallel symbolic exploration.
//
// A Checkpointer turns an ExploreParallel run into an event-sourced
// journal: every published task is appended as a "pub" record (its
// portable start state, accumulated fork forces, and sink seed) before it
// becomes stealable, and every finished task as a "done" record (its
// segment chain, cycle count, and the sink's per-task observations). In
// checkpoint mode every fork is published — no worker-local fork stacks —
// so a task is exactly one segment chain from its start state to one
// terminal, and the journal's done-set is a consistent partial exploration
// at any instant.
//
// Resume replays the journal instead of re-exploring. The LIVE task set
// is computed top-down from the root: a done record names the exact child
// task it published at each branch (its final incarnation's children), so
// a task is live iff its publisher is live and done AND names it. Live
// done tasks are reconstructed from their records; live pending tasks are
// re-enqueued under their recorded identities. Everything else is an
// orphan and is discarded: its publisher either re-runs deterministically
// and re-publishes the same logical fork under a fresh identity, or — if
// the publisher did complete — its done record names the publisher's
// final-incarnation child, permanently superseding children published by
// earlier crashed incarnations (without the explicit naming, a twice-
// crashed task's completion would resurrect stale children and the same
// logical fork would be explored twice). Only live done tasks seed the
// claim table, so the claim-before-explore partition guarantees the
// resumed totals (cycles, nodes, paths) equal the uninterrupted run's
// exactly — which is what makes resumed runs seal bit-identical Reports.
//
// Durability posture: records are appended under one mutex and the file is
// synced every SyncEvery records, so a SIGKILL loses at most the unsynced
// tail; a torn or corrupted line truncates the journal at that point on
// load (everything after it is treated as lost — safe, it only creates
// orphans). The FIRST failed append permanently disables writing: a
// journal with an internal gap would break the pub-before-done prefix
// invariants, so the run degrades to un-checkpointed rather than risk a
// misleading journal.
package symx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/faultfs"
	"repro/internal/ulp430"
)

// CheckpointCodec serializes the sink-specific opaque values that ride the
// journal: task seeds (ptask.seed / WorkerSink.SpawnSeed) and segment
// payloads (Node.Data / Sink.Segment). The engine cannot know their
// concrete types, so the sink's package supplies the codec. Both Marshal
// methods must accept nil (and Unmarshal must return it for the nil
// encoding), and Unmarshal(Marshal(v)) must be semantically identical to v
// — for payloads feeding float aggregation, bit-identical.
type CheckpointCodec interface {
	MarshalSeed(seed interface{}) ([]byte, error)
	UnmarshalSeed(data []byte) (interface{}, error)
	MarshalPayload(data interface{}) ([]byte, error)
	UnmarshalPayload(data []byte) (interface{}, error)
}

// CheckpointConfig configures a Checkpointer.
type CheckpointConfig struct {
	// Path is the journal file. Its directory must exist.
	Path string
	// Tag identifies the analysis (image + resolved options); a journal
	// recorded under a different tag refuses to resume.
	Tag string
	// Codec serializes sink seeds and segment payloads.
	Codec CheckpointCodec
	// FS is the filesystem; nil means the real one.
	FS faultfs.FS
	// SyncEvery syncs the journal every n records (<=0: every 8).
	SyncEvery int
}

// NewCheckpointer creates the journal handle for one ExploreParallel run
// (pass it as ParallelOptions.Checkpoint). It does not touch the disk
// until the run starts.
func NewCheckpointer(cfg CheckpointConfig) *Checkpointer {
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 8
	}
	return &Checkpointer{cfg: cfg}
}

// Checkpointer journals one exploration run and replays a prior journal on
// resume. Safe for concurrent use by the exploration workers.
type Checkpointer struct {
	cfg CheckpointConfig

	mu        sync.Mutex
	f         faultfs.File
	sinceSync int
	werr      error // first write failure; latches, disables writing
}

// Err returns the first journal write failure, if any. A failed journal
// never fails the exploration — the run completes un-checkpointed — but
// callers that promised durability can surface this.
func (ck *Checkpointer) Err() error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.werr
}

// RemoteTask is one published unit of exploration work, as a fleet
// worker leases it and a journal pub record stores it. State is the
// ulp430.EncodePortable start state, whose memory is a sparse diff
// against the loaded image (empty for the root task, which resets
// instead); Seed is the sink seed marshaled through the run's
// CheckpointCodec.
type RemoteTask struct {
	ID      int        `json:"id"`
	BasePos int        `json:"base,omitempty"`
	Forces  ForkForces `json:"forces"`
	Seed    []byte     `json:"seed,omitempty"`
	State   []byte     `json:"state,omitempty"`
}

// RemoteNode is one segment of a completed task's chain, payload
// pre-marshaled through the codec. In a done record's chain (creation
// order) every node but the last is a KindBranch whose NotTaken is the
// next entry.
type RemoteNode struct {
	Len         int    `json:"len"`
	Kind        int    `json:"kind"`
	IRQ         bool   `json:"irq,omitempty"`
	PC          uint16 `json:"pc,omitempty"`
	Key         uint64 `json:"key,omitempty"`
	Key2        uint64 `json:"key2,omitempty"` // ForkKey.Hi (Key is .Lo)
	StreamStart int    `json:"ss,omitempty"`
	Payload     []byte `json:"data,omitempty"`
}

// RemoteResult is a completed task, as a fleet worker returns it and a
// journal done record stores it: its segment chain in creation order,
// the IDs of the tasks it published (one per branch, in branch order),
// its simulated cycle count, and the sink's per-task observation blob.
type RemoteResult struct {
	Cycles int          `json:"cycles"`
	Nodes  []RemoteNode `json:"nodes"`
	Kids   []int        `json:"kids,omitempty"`
	Sink   []byte       `json:"sink,omitempty"`
}

// ckptRec is one journal line. Kind "hdr" opens the journal, "pub"
// records a published task, "done" a finished one.
type ckptRec struct {
	T  string `json:"t"`
	ID int    `json:"id,omitempty"`

	// hdr
	Tag string `json:"tag,omitempty"`

	// pub
	Parent  int `json:"parent,omitempty"` // publisher task; -1 for the root
	Seq     int `json:"seq,omitempty"`    // branch index inside the publisher's chain
	BasePos int `json:"base,omitempty"`
	ForkForces
	Seed  []byte `json:"seed,omitempty"`
	State []byte `json:"state,omitempty"` // ulp430.EncodePortable (sparse memory diff); empty for the root

	// done
	Cycles int          `json:"cycles,omitempty"`
	Sink   []byte       `json:"sink,omitempty"`
	Nodes  []RemoteNode `json:"nodes,omitempty"`
	// Kids names the task published at each branch of the chain, in
	// branch order — the liveness witness that supersedes children
	// published by earlier crashed incarnations of this task.
	Kids []int `json:"kids,omitempty"`
}

// resumeState is what a journal replay hands back to ExploreParallel.
type resumeState struct {
	nodes    []*Node           // reconstructed segments of live done tasks
	pending  []*ptask          // live tasks awaiting (re-)execution, by ID
	replayed map[int][]byte    // task ID -> sink blob, live done tasks
	claims   map[ForkKey]*Node // branch-key claims to seed
	cycles   int64
	paths    int64
	nextID   int
	rootPub  bool // the journal already holds the root's pub record

	raw       []byte // journal bytes as read
	prefixLen int    // length of the consistent prefix of raw
}

// open loads any existing journal (resuming from its live records) and
// opens it for appending. Called once, before workers start.
func (ck *Checkpointer) open() (*resumeState, error) {
	rs, err := ck.load()
	if err != nil {
		return nil, err
	}
	if rs.prefixLen < len(rs.raw) {
		// Drop the torn or corrupt tail before appending: records written
		// after unreadable bytes could never be read back by a later
		// resume (load stops at the first bad line).
		if err := faultfs.WriteAtomic(ck.cfg.FS, ck.cfg.Path, rs.raw[:rs.prefixLen], 0o644); err != nil {
			return nil, fmt.Errorf("symx: checkpoint journal truncate: %w", err)
		}
	}
	rs.raw = nil
	f, err := ck.cfg.FS.OpenAppend(ck.cfg.Path)
	if err != nil {
		return nil, fmt.Errorf("symx: checkpoint journal: %w", err)
	}
	ck.mu.Lock()
	ck.f = f
	ck.mu.Unlock()
	if !rs.rootPub {
		// Fresh journal: stamp the header before any task record.
		ck.append(&ckptRec{T: "hdr", Tag: ck.cfg.Tag})
	}
	return rs, nil
}

// close syncs and closes the journal file.
func (ck *Checkpointer) close() {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.f != nil {
		if ck.werr == nil {
			ck.f.Sync()
		}
		ck.f.Close()
		ck.f = nil
	}
}

// append writes one record (newline-terminated JSON). On the first
// failure it latches werr and drops every subsequent record: the journal
// must stay a prefix of the event stream, never a subsequence.
func (ck *Checkpointer) append(rec *ckptRec) {
	line, err := json.Marshal(rec)
	if err != nil {
		// Records are plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("symx: checkpoint record marshal: %v", err))
	}
	line = append(line, '\n')
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.werr != nil || ck.f == nil {
		return
	}
	if _, err := ck.f.Write(line); err != nil {
		ck.werr = err
		return
	}
	ck.sinceSync++
	if ck.sinceSync >= ck.cfg.SyncEvery {
		ck.sinceSync = 0
		if err := ck.f.Sync(); err != nil {
			ck.werr = err
		}
	}
}

// writePub journals a task publication. Must complete before the task is
// handed to a worker (the pub-before-done prefix invariant).
func (ck *Checkpointer) writePub(t RemoteTask, parent, seq int) {
	ck.append(&ckptRec{
		T: "pub", ID: t.ID, Parent: parent, Seq: seq, BasePos: t.BasePos,
		ForkForces: t.Forces, Seed: t.Seed, State: t.State,
	})
}

// writeDone journals a finished task: its cycle count, segment chain,
// published children, and the sink's per-task observations.
func (ck *Checkpointer) writeDone(id int, res *RemoteResult) {
	ck.append(&ckptRec{T: "done", ID: id, Cycles: res.Cycles, Sink: res.Sink, Nodes: res.Nodes, Kids: res.Kids})
}

// encodeTask is t's record form: seed marshaled through codec, start
// state encoded by ulp430.EncodePortable. The state is not compressed:
// its memory is already a sparse diff against the loaded image, a few
// KB raw.
func encodeTask(t *ptask, codec CheckpointCodec) (RemoteTask, error) {
	seed, err := codec.MarshalSeed(t.seed)
	if err != nil {
		return RemoteTask{}, fmt.Errorf("symx: checkpoint seed marshal: %w", err)
	}
	rt := RemoteTask{ID: t.id, BasePos: t.basePos, Forces: t.forces, Seed: seed}
	if t.state != nil {
		rt.State = ulp430.EncodePortable(t.state)
	}
	return rt, nil
}

// decodeTask turns a task record back into a runnable task.
func decodeTask(rt RemoteTask, codec CheckpointCodec) (*ptask, error) {
	t := &ptask{id: rt.ID, basePos: rt.BasePos, forces: rt.Forces}
	if len(rt.State) > 0 {
		var err error
		if t.state, err = ulp430.DecodePortable(rt.State); err != nil {
			return nil, fmt.Errorf("task %d state: %w", rt.ID, err)
		}
	}
	seed, err := codec.UnmarshalSeed(rt.Seed)
	if err != nil {
		return nil, fmt.Errorf("task %d seed: %w", rt.ID, err)
	}
	t.seed = seed
	return t, nil
}

// load parses the journal and computes the resume state. A missing file is
// a fresh run. The journal is read as a prefix: the first unparseable or
// unterminated line (a torn tail, or corruption) ends it.
func (ck *Checkpointer) load() (*resumeState, error) {
	rs := &resumeState{replayed: map[int][]byte{}, claims: map[ForkKey]*Node{}}
	data, err := ck.cfg.FS.ReadFile(ck.cfg.Path)
	if err != nil {
		return rs, nil // fresh (or unreadable — treated as fresh) journal
	}

	type pubRec struct {
		rec  *ckptRec
		live bool
	}
	rs.raw = data
	pubs := map[int]*pubRec{}
	dones := map[int]*ckptRec{}
	sawHdr := false
parse:
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail
		}
		line := data[:nl]
		rec := &ckptRec{}
		if err := json.Unmarshal(line, rec); err != nil {
			break // corrupted line: everything after it is lost
		}
		switch rec.T {
		case "hdr":
			if rec.Tag != ck.cfg.Tag {
				return nil, fmt.Errorf("symx: checkpoint journal %s belongs to a different analysis (tag %q, want %q)", ck.cfg.Path, rec.Tag, ck.cfg.Tag)
			}
			sawHdr = true
		case "pub":
			if _, dup := pubs[rec.ID]; !dup {
				pubs[rec.ID] = &pubRec{rec: rec}
			}
			if rec.ID >= rs.nextID {
				rs.nextID = rec.ID + 1
			}
		case "done":
			if _, dup := dones[rec.ID]; !dup {
				dones[rec.ID] = rec
			}
		default:
			// Unknown record kind: written by a newer version. Stop here —
			// the prefix up to it is still consistent.
			break parse
		}
		data = data[nl+1:]
	}
	rs.prefixLen = len(rs.raw) - len(data)
	if len(pubs) > 0 && !sawHdr {
		return nil, fmt.Errorf("symx: checkpoint journal %s has task records but no header", ck.cfg.Path)
	}

	// A task is live iff its publisher is live and done AND the publisher's
	// done record names it at the matching branch — i.e. the publisher's
	// FINAL incarnation published it. Children published by earlier crashed
	// incarnations of a task are never named by its done record, so they
	// stay orphans no matter how many crash/resume generations intervened.
	// Computed top-down from the root.
	var liveIDs []int
	var stack []int
	for id, p := range pubs {
		if p.rec.Parent < 0 {
			p.live = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := dones[id]
		if d == nil {
			continue // live but pending: re-enqueued below
		}
		liveIDs = append(liveIDs, id)
		for seq, kid := range d.Kids {
			p, ok := pubs[kid]
			if ok && !p.live && p.rec.Parent == id && p.rec.Seq == seq {
				p.live = true
				stack = append(stack, kid)
			}
		}
	}
	sort.Ints(liveIDs)

	// Reconstruct the live done tasks' segment chains.
	firstNode := map[int]*Node{}
	byTask := map[int][]*Node{}
	for _, id := range liveIDs {
		d := dones[id]
		if len(d.Nodes) == 0 {
			return nil, fmt.Errorf("symx: checkpoint journal %s: done task %d has no segments", ck.cfg.Path, id)
		}
		chain := make([]*Node, len(d.Nodes))
		for i, cn := range d.Nodes {
			payload, err := ck.cfg.Codec.UnmarshalPayload(cn.Payload)
			if err != nil {
				return nil, fmt.Errorf("symx: checkpoint journal %s: task %d segment %d payload: %w", ck.cfg.Path, id, i, err)
			}
			n := &Node{
				Len: cn.Len, Kind: NodeKind(cn.Kind), IRQ: cn.IRQ,
				BranchPC: cn.PC, Data: payload,
				key:  ForkKey{Lo: cn.Key, Hi: cn.Key2},
				task: id, streamStart: cn.StreamStart, seq: i,
			}
			chain[i] = n
			if i > 0 {
				if chain[i-1].Kind != KindBranch {
					return nil, fmt.Errorf("symx: checkpoint journal %s: task %d has a non-branch mid-chain segment", ck.cfg.Path, id)
				}
				chain[i-1].NotTaken = n
			}
		}
		last := chain[len(chain)-1]
		if last.Kind == KindBranch {
			return nil, fmt.Errorf("symx: checkpoint journal %s: task %d chain ends on a branch", ck.cfg.Path, id)
		}
		firstNode[id] = chain[0]
		byTask[id] = chain
		rs.nodes = append(rs.nodes, chain...)
		rs.cycles += int64(d.Cycles)
		rs.paths++
		rs.replayed[id] = d.Sink
		for _, n := range chain {
			if n.Kind == KindBranch {
				if prev, dup := rs.claims[n.key]; dup && prev != n {
					return nil, fmt.Errorf("symx: checkpoint journal %s: fork key %#x:%#x claimed by two live tasks", ck.cfg.Path, n.key.Lo, n.key.Hi)
				}
				rs.claims[n.key] = n
			}
		}
	}

	// Graft each live task onto its publisher's branch node, and build the
	// pending task list.
	var pendingIDs []int
	for id, p := range pubs {
		if !p.live {
			continue
		}
		if dones[id] == nil {
			pendingIDs = append(pendingIDs, id)
		}
		if p.rec.Parent >= 0 {
			chain := byTask[p.rec.Parent]
			if p.rec.Seq >= len(chain) || chain[p.rec.Seq].Kind != KindBranch {
				return nil, fmt.Errorf("symx: checkpoint journal %s: task %d grafts onto a non-branch segment of task %d", ck.cfg.Path, id, p.rec.Parent)
			}
			if first, ok := firstNode[id]; ok {
				chain[p.rec.Seq].Taken = first
			}
		} else {
			rs.rootPub = true
		}
	}
	sort.Ints(pendingIDs)
	for _, id := range pendingIDs {
		rec := pubs[id].rec
		t, err := decodeTask(RemoteTask{
			ID: id, BasePos: rec.BasePos, Forces: rec.ForkForces, Seed: rec.Seed, State: rec.State,
		}, ck.cfg.Codec)
		if err != nil {
			return nil, fmt.Errorf("symx: checkpoint journal %s: %w", ck.cfg.Path, err)
		}
		if rec.Parent >= 0 {
			t.branch = byTask[rec.Parent][rec.Seq]
		}
		rs.pending = append(rs.pending, t)
	}
	return rs, nil
}
