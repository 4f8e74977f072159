// Checkpoint support for the power sink: serializing one exploration
// task's observations for the symx checkpoint journal, and replaying
// journaled tasks through the canonical merge on resume.
//
// The serialized record is everything a crashed run's finished task
// contributed to the final Report that cannot be re-derived without
// re-execution: its TopK candidates (replayed by MergeParallelReplay
// in canonical order exactly like live candidates), its ISR peak, and the
// FULL set of cells active during its cycles. Activity is deliberately the
// task's complete set rather than "new since the worker's last task": a
// worker-relative delta would depend on which earlier tasks shared that
// worker — information a resume discards — while per-task sets make the
// union a plain order-independent fold over any mix of replayed and
// re-executed tasks.
//
// Every float crosses the journal as JSON, which Go encodes at shortest
// round-trip precision, so replayed candidates fold bit-identically to
// live ones — the property the resumed-Report byte-identity tests pin.
package power

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"slices"

	"repro/internal/netlist"
)

// EnableCheckpoint does nothing: every sink keeps the per-task records
// MarshalTask serializes. It remains only so existing callers keep
// compiling.
func (s *Sink) EnableCheckpoint() {}

// peakWire is Peak, flattened for the journal.
type peakWire struct {
	P     float64   `json:"p"`
	Pos   int       `json:"pos"`
	Fetch uint16    `json:"f"`
	Prev  uint16    `json:"pf,omitempty"`
	State string    `json:"st,omitempty"`
	ISR   bool      `json:"isr,omitempty"`
	Mod   []float64 `json:"mod,omitempty"`
	Cells []int32   `json:"cells,omitempty"`
}

// candWire is one TopK candidate: a peak plus its stream coordinate (the
// task coordinate is the record's).
type candWire struct {
	Stream int `json:"s"`
	peakWire
}

// taskWire is one task's serialized observations.
type taskWire struct {
	TopK   []candWire `json:"topk,omitempty"`
	ISR    float64    `json:"isrmw,omitempty"`
	Active []int32    `json:"active,omitempty"`
}

// decode reads a record from the journal or a fleet worker (empty: a
// task that observed nothing). A field the format does not have, such as
// an older format's, or data after the record is an error: dropping it
// would fold the task short. So is an index that would overrun the merge
// or a later Report step: a cell ID outside [0, ncells), or a module
// split not nmod wide.
func (w *taskWire) decode(blob []byte, ncells, nmod int) error {
	if len(blob) > 0 {
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		if err := dec.Decode(w); err != nil {
			return err
		}
		if _, err := dec.Token(); err != io.EOF {
			return fmt.Errorf("data after the record")
		}
	}
	for _, ci := range w.Active {
		if ci < 0 || int(ci) >= ncells {
			return fmt.Errorf("active cell %d outside [0, %d)", ci, ncells)
		}
	}
	for _, c := range w.TopK {
		if len(c.Mod) != nmod {
			return fmt.Errorf("candidate at stream %d has %d module powers, want %d", c.Stream, len(c.Mod), nmod)
		}
		for _, ci := range c.Cells {
			if ci < 0 || int(ci) >= ncells {
				return fmt.Errorf("candidate at stream %d: cell %d outside [0, %d)", c.Stream, ci, ncells)
			}
		}
	}
	return nil
}

func toWire(pk Peak) peakWire {
	w := peakWire{
		P: pk.PowerMW, Pos: pk.PathPos, Fetch: pk.FetchAddr, Prev: pk.PrevFetch,
		State: pk.State, ISR: pk.InISR, Mod: pk.ByModuleMW,
	}
	if pk.ActiveCells != nil {
		w.Cells = make([]int32, len(pk.ActiveCells))
		for i, c := range pk.ActiveCells {
			w.Cells[i] = int32(c)
		}
	}
	return w
}

func fromWire(w peakWire) Peak {
	pk := Peak{
		PowerMW: w.P, PathPos: w.Pos, FetchAddr: w.Fetch, PrevFetch: w.Prev,
		State: w.State, InISR: w.ISR, ByModuleMW: w.Mod,
	}
	if w.Cells != nil {
		pk.ActiveCells = make([]netlist.CellID, len(w.Cells))
		for i, c := range w.Cells {
			pk.ActiveCells[i] = netlist.CellID(c)
		}
	}
	return pk
}

// MarshalTask implements symx.WorkerSink: flush the current segment and
// serialize the observations of the task begun by the last BeginTask.
func (s *Sink) MarshalTask() ([]byte, error) {
	s.NewSegment()
	w := taskWire{ISR: s.taskISR}
	for _, c := range s.topkCands[s.taskTopk0:] {
		w.TopK = append(w.TopK, candWire{Stream: c.Stream, peakWire: toWire(c.Peak)})
	}
	// The task's cells are its accumulator's bits, visited in plane
	// order: set them in the cell-ID bitset, then read it back in
	// ascending cell ID, clearing it for the next task. One buffer
	// serves every task; a run without a journal never makes them.
	if s.cellBits == nil {
		s.cellBits = make([]uint64, (s.nl.NumCells()+63)/64)
		s.cellVisit = func(ci netlist.CellID) { s.cellBits[ci/64] |= 1 << (ci % 64) }
	}
	s.sim.ForEachAccumulated(&s.actAccum, s.cellVisit)
	s.cellBuf = s.cellBuf[:0]
	for wi, word := range s.cellBits {
		if word == 0 {
			continue
		}
		s.cellBits[wi] = 0
		for ; word != 0; word &= word - 1 {
			s.cellBuf = append(s.cellBuf, int32(wi*64+bits.TrailingZeros64(word)))
		}
	}
	w.Active = s.cellBuf
	return json.Marshal(w)
}

// MergeParallelReplay folds the workers' sinks into the single-worker
// result: TopK by canonical-order replay of the recorded candidates
// through the sequential insertion code, ISRPeakMW by maximum, and the
// activity union by set union. best is the head of the replayed list,
// the run's peak with its active cells; topK is the list cut to k
// entries. nodeID resolves a candidate's (task, stream) coordinates to
// its final tree-node ID (symx.ParallelResult provides it); k is the
// TopK capacity and must match the sinks'.
//
// replayed holds observations journaled by MarshalTask in a previous
// (crashed) run, keyed by task ID; nil when nothing was replayed.
// Replayed candidates carry their recorded (task, stream) coordinates, so
// the canonical sort interleaves them with this run's live candidates
// exactly where the uninterrupted run would have produced them, and the
// order-insensitive folds (activity union, ISR peak) absorb the replayed
// per-task sets directly. Records are decoded in ascending task ID, so a
// malformed one (see taskWire.decode) is reported deterministically. The
// union is folded into the first sink's UnionActive.
func MergeParallelReplay(sinks []*Sink, k int, nodeID func(task, stream int) int, replayed map[int][]byte) (best Peak, topK []Peak, isrPeakMW float64, union []bool, err error) {
	var cands []PeakCand
	nmod := 0
	if len(sinks) > 0 {
		nmod = len(sinks[0].Modules())
	}
	for i, s := range sinks {
		cands = append(cands, s.topkCands...)
		if s.ISRPeakMW > isrPeakMW {
			isrPeakMW = s.ISRPeakMW
		}
		if i == 0 {
			union = s.UnionActive
			continue
		}
		for ci, b := range s.UnionActive {
			if b {
				union[ci] = true
			}
		}
	}
	for _, task := range slices.Sorted(maps.Keys(replayed)) {
		var w taskWire
		if derr := w.decode(replayed[task], len(union), nmod); derr != nil {
			return best, topK, isrPeakMW, union, fmt.Errorf("power: replay of task %d: %w", task, derr)
		}
		for _, c := range w.TopK {
			cands = append(cands, PeakCand{Peak: fromWire(c.peakWire), Task: task, Stream: c.Stream})
		}
		if w.ISR > isrPeakMW {
			isrPeakMW = w.ISR
		}
		for _, ci := range w.Active {
			union[ci] = true
		}
	}
	topK = replay(cands, k, nodeID)
	if len(topK) > 0 {
		best = topK[0]
	}
	return best, topK[:min(k, len(topK))], isrPeakMW, union, nil
}

// replay folds candidates in canonical order through the sequential
// insertion, keeping the cell list of the head alone.
func replay(cands []PeakCand, k int, nodeID func(task, stream int) int) []Peak {
	sortCanonical(cands, nodeID)
	var topK []Peak
	for _, c := range cands {
		pk := c.Peak
		topK = insertTopK(topK, k, pk.PowerMW, pk.FetchAddr, func(head bool) Peak {
			if !head {
				pk.ActiveCells = nil
			}
			return pk
		})
	}
	return topK
}

// Codec implements symx.CheckpointCodec for power sinks: seeds are
// TaskSeeds and segment payloads are per-cycle power traces ([]float64),
// both JSON-encoded (floats at shortest round-trip precision).
type Codec struct{}

type seedWire struct {
	Fetch uint16 `json:"f,omitempty"`
	Prev  uint16 `json:"pf,omitempty"`
	Depth int8   `json:"d,omitempty"`
}

// MarshalSeed implements symx.CheckpointCodec.
func (Codec) MarshalSeed(seed interface{}) ([]byte, error) {
	if seed == nil {
		return nil, nil
	}
	ts, ok := seed.(TaskSeed)
	if !ok {
		return nil, fmt.Errorf("power: checkpoint seed has type %T, want power.TaskSeed", seed)
	}
	return json.Marshal(seedWire{Fetch: ts.Fetch, Prev: ts.Prev, Depth: ts.Depth})
}

// UnmarshalSeed implements symx.CheckpointCodec.
func (Codec) UnmarshalSeed(data []byte) (interface{}, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var w seedWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return TaskSeed{Fetch: w.Fetch, Prev: w.Prev, Depth: w.Depth}, nil
}

// MarshalPayload implements symx.CheckpointCodec.
func (Codec) MarshalPayload(data interface{}) ([]byte, error) {
	trace, ok := data.([]float64)
	if !ok && data != nil {
		return nil, fmt.Errorf("power: checkpoint payload has type %T, want []float64", data)
	}
	return json.Marshal(trace)
}

// UnmarshalPayload implements symx.CheckpointCodec.
func (Codec) UnmarshalPayload(data []byte) (interface{}, error) {
	var trace []float64
	if err := json.Unmarshal(data, &trace); err != nil {
		return nil, err
	}
	return trace, nil
}
