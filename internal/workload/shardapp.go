package workload

import (
	"fmt"
	"sort"
	"sync"

	"versadep/internal/codec"
	"versadep/internal/vtime"
)

// ShardApp is the keyed benchmark servant for sharded deployments: one
// default servant serving an open-ended space of object references, each
// with its own counter. It is deterministic in the replicated sense — all
// encodings are sorted, so active replicas of a shard stay byte-identical
// — and its key space can be split: ExportKeys/ImportKeys carve out the
// key ranges that move when a shard is added, riding PR 4's state
// transfer and the add-shard control invocations.
type ShardApp struct {
	mu         sync.Mutex
	counters   map[string]int64
	execCost   vtime.Duration
	replyBytes int
	stateBytes int
}

// NewShardApp creates a keyed benchmark application with the same Table 1
// parameters as BenchApp (state padding, per-request execution cost,
// reply padding).
func NewShardApp(stateBytes int, execCost vtime.Duration, replyBytes int) *ShardApp {
	return &ShardApp{
		counters:   make(map[string]int64),
		execCost:   execCost,
		replyBytes: replyBytes,
		stateBytes: stateBytes,
	}
}

// Invoke implements orb.Servant for explicit registrations; it serves the
// reserved key "" (the adapter's default-servant path uses InvokeObject).
func (a *ShardApp) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	return a.InvokeObject("", op, args)
}

// InvokeObject implements orb.ObjectServant: each object reference keys
// its own counter.
func (a *ShardApp) InvokeObject(object, op string, args []codec.Value) ([]codec.Value, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "work":
		a.counters[object]++
		return []codec.Value{codec.Int(a.counters[object]), codec.Bytes(make([]byte, a.replyBytes))}, nil
	case "read":
		return []codec.Value{codec.Int(a.counters[object])}, nil
	default:
		return nil, fmt.Errorf("bench: unknown op %q", op)
	}
}

// ExecCost implements orb.ExecCoster.
func (a *ShardApp) ExecCost(string, []codec.Value) vtime.Duration { return a.execCost }

func (a *ShardApp) sortedKeysLocked() []string {
	keys := make([]string, 0, len(a.counters))
	for k := range a.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// encodePairs writes key/counter pairs for the sorted keys (a.mu held).
func (a *ShardApp) encodePairsLocked(keys []string, pad int) []byte {
	e := codec.NewEncoder(16 + 24*len(keys) + pad)
	e.PutUint32(uint32(len(keys)))
	for _, k := range keys {
		e.PutString(k)
		e.PutInt64(a.counters[k])
	}
	e.PutBytes(make([]byte, pad))
	return e.Bytes()
}

func decodePairs(b []byte) (map[string]int64, error) {
	d := codec.NewDecoder(b)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, codec.ErrTooLarge
	}
	out := make(map[string]int64, n)
	for i := uint32(0); i < n; i++ {
		k, err := d.String()
		if err != nil {
			return nil, err
		}
		v, err := d.Int64()
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// State implements replication.Checkpointable: every counter in sorted
// order plus the configured padding.
func (a *ShardApp) State() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.encodePairsLocked(a.sortedKeysLocked(), a.stateBytes)
}

// Restore implements replication.Checkpointable.
func (a *ShardApp) Restore(state []byte) error {
	pairs, err := decodePairs(state)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.counters = pairs
	a.mu.Unlock()
	return nil
}

// ExportKeys deterministically encodes the counters of every key matching
// pred, sorted — the donor half of an add-shard key-range move. Because
// iteration is sorted, every active replica of the donor shard produces
// byte-identical exports, which the reply-voting client relies on.
func (a *ShardApp) ExportKeys(pred func(key string) bool) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	var keys []string
	for _, k := range a.sortedKeysLocked() {
		if pred(k) {
			keys = append(keys, k)
		}
	}
	return a.encodePairsLocked(keys, 0)
}

// ImportKeys merges exported pairs into this app — the recipient half of
// a key-range move. Existing counters for the same keys are overwritten
// (the donor's value is authoritative: it executed the requests).
func (a *ShardApp) ImportKeys(b []byte) error {
	pairs, err := decodePairs(b)
	if err != nil {
		return err
	}
	a.mu.Lock()
	for k, v := range pairs {
		a.counters[k] = v
	}
	a.mu.Unlock()
	return nil
}
